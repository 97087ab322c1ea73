"""Sharding: split one campaign spec into independent range jobs.

A shard is a contiguous index range over the campaign's item axis —
fault indices for the ``campaign`` and ``patterns`` kinds, die indices
for ``mc``.  Items are independent by construction (that is what lets
the campaigns fork at all), so a shard runs through the *existing*
campaign path with one worker (the shard itself is the unit of
parallelism, so its campaign forks nothing), writing its own durable
JSONL checkpoint; the merge side re-reads every shard checkpoint and orders
records by the full item axis, which makes the merged artifact
byte-identical to an unsharded run (the ``service-parity`` guard pins
all three kinds).

:func:`build_job` turns a :class:`~repro.service.spec.CampaignSpec`
into the kind-specific :class:`ShardedJob`, built once in the
coordinator process — shard workers are forked *after* the tiers and
golden signatures exist, so they inherit them exactly like ordinary
campaign workers do.  The golden signatures are the nominal design's
whatever the spec, so every job of one process builds its tiers over
one :func:`shared_goldens` cache and only the first pays for the
references.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Hashable, Optional, Sequence

from ..core.supervisor import split_ranges as shard_ranges
from .spec import CampaignSpec

__all__ = ["ShardedJob", "build_job", "shard_ranges", "shared_goldens"]


@functools.lru_cache(maxsize=None)
def shared_goldens():
    """The process-wide :class:`~repro.dft.golden.GoldenSignatures`,
    created on first use.

    A reference is a function of the nominal design alone (the cache
    builds it with any die context suspended), never of a spec's seed,
    corner, mismatch model, sample or numerics policy, so one cache
    serves every job a serve loop runs.
    """
    from ..dft.golden import GoldenSignatures

    return GoldenSignatures()


class ShardedJob:
    """One spec's executable form: items, shard runner, merge-on-read.

    Subclasses bind the three campaign kinds to their existing
    machinery: they set ``campaign`` (whose ``run`` takes a slice of
    ``axis``, whose ``checkpoints`` type reads and merges the shard
    files and whose ``result`` builds the merged result), ``axis`` (the
    items, in item order) and ``keys`` (their keys, in the same order).
    ``run_shard`` executes inside a (possibly forked) shard worker and
    leaves a complete checkpoint at the given path; ``merge`` runs in
    the coordinator after every shard settled and returns the artifact
    dict the matching CLI export would have produced.
    ``completed_items`` is the crash-recovery scan: it counts the
    shard's durably checkpointed records *without running anything*,
    so a restarted coordinator can dispatch only the unfinished shards
    (and the shard's own in-run resume then skips its
    already-checkpointed items).
    """

    spec: CampaignSpec
    campaign: Any
    axis: Sequence[Any]
    keys: Sequence[Hashable]

    @property
    def items(self) -> int:
        return len(self.keys)

    def run_shard(self, lo: int, hi: int, checkpoint: str,
                  trace: Optional[str] = None) -> None:
        # in-process: the shard is the service's unit of parallelism
        self.campaign.run(self.axis[lo:hi], workers=1,
                          checkpoint=checkpoint, trace=trace)

    def completed_items(self, lo: int, hi: int, checkpoint: str) -> int:
        done = self.campaign.checkpoints.load(checkpoint)
        return sum(1 for key in self.keys[lo:hi] if key in done)

    def merged(self, checkpoints: Sequence[str]) -> Any:
        """The campaign result the shard files hold, in item order."""
        return self.campaign.result(
            self.campaign.checkpoints.merge(checkpoints, self.keys))

    def merge(self, checkpoints: Sequence[str]) -> Dict[str, object]:
        raise NotImplementedError


class FaultCampaignJob(ShardedJob):
    """``kind="campaign"``: the tier-configurable fault campaign."""

    def __init__(self, spec: CampaignSpec):
        from ..dft.coverage import build_fault_universe
        from ..dft.registry import create_tiers
        from ..faults.campaign import FaultCampaign
        from ..faults.sampling import stratified_sample

        self.spec = spec
        universe = build_fault_universe()
        if spec.sample:
            universe = stratified_sample(universe, spec.sample,
                                         seed=spec.seed)
        self.axis = list(universe)
        self.keys = [f.key() for f in self.axis]
        self.campaign = FaultCampaign(strict_numerics=spec.strict_numerics)
        for tier in create_tiers(spec.tiers, shared_goldens()):
            self.campaign.add_tier(tier)

    def merge(self, checkpoints: Sequence[str]) -> Dict[str, object]:
        return self.merged(checkpoints).to_dict()


class MonteCarloJob(ShardedJob):
    """``kind="mc"``: the Monte-Carlo mismatch campaign, sharded by
    die-index range (each die is a pure function of ``(seed, die)``,
    so a shard's records match the unsharded run's exactly)."""

    def __init__(self, spec: CampaignSpec):
        from ..analog.corners import get_corner
        from ..dft.registry import create_tiers
        from ..variation import MismatchModel, MonteCarloCampaign

        self.spec = spec
        self.axis = self.keys = range(spec.dies)
        model = MismatchModel(sigma_vt=spec.sigma_vt_mv * 1e-3,
                              sigma_kp_rel=spec.sigma_kp_pct / 100.0)
        self.campaign = MonteCarloCampaign(
            tiers=create_tiers(spec.tiers, shared_goldens()),
            corner=get_corner(spec.corner),
            model=model, seed=spec.seed,
            strict_numerics=spec.strict_numerics)

    def merge(self, checkpoints: Sequence[str]) -> Dict[str, object]:
        return self.merged(checkpoints).to_dict()


class PatternCampaignJob(ShardedJob):
    """``kind="patterns"``: the coverage-vs-pattern campaign, sharded
    over its (deterministically sampled) BIST fault universe."""

    def __init__(self, spec: CampaignSpec):
        from ..patterns.campaign import (PatternCampaign, bist_universe,
                                         sampled_universe)

        self.spec = spec
        self.pattern_campaign = PatternCampaign(patterns=spec.patterns,
                                                goldens=shared_goldens())
        self.axis = sampled_universe(bist_universe(), spec.sample)
        self.keys = [f.key() for f in self.axis]
        self.campaign = self.pattern_campaign.build()

    def merge(self, checkpoints: Sequence[str]) -> Dict[str, object]:
        return self.pattern_campaign.result(
            self.merged(checkpoints)).to_dict()


_JOB_KINDS = {
    "campaign": FaultCampaignJob,
    "mc": MonteCarloJob,
    "patterns": PatternCampaignJob,
}


def build_job(spec: CampaignSpec) -> ShardedJob:
    """The executable job for *spec* (tiers built, universe resolved)."""
    return _JOB_KINDS[spec.kind](spec)
