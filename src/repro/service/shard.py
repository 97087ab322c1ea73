"""Sharding: split one campaign spec into independent range jobs.

A shard is a contiguous index range over the campaign's item axis —
fault indices for the ``campaign`` and ``patterns`` kinds, die indices
for ``mc``.  Items are independent by construction (that is what lets
the campaigns fork at all), so a shard runs through the *existing*
supervised campaign path unchanged, writing its own durable JSONL
checkpoint; the merge side re-reads every shard checkpoint and orders
records by the full item axis, which makes the merged artifact
byte-identical to an unsharded run (the ``service-parity`` guard pins
all three kinds).

:func:`build_job` turns a :class:`~repro.service.spec.CampaignSpec`
into the kind-specific :class:`ShardedJob`, built once in the
coordinator process — shard workers are forked *after* the tiers and
golden signatures exist, so they inherit them exactly like ordinary
campaign workers do.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from .spec import CampaignSpec


def shard_ranges(items: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``[lo, hi)`` ranges covering ``items``.

    The first ``items % shards`` ranges are one longer, so sizes never
    differ by more than one; empty ranges are never produced (shard
    count is clamped to the item count).
    """
    if items < 0:
        raise ValueError("items must be >= 0")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, items) or 1
    base, extra = divmod(items, shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class ShardedJob:
    """One spec's executable form: items, shard runner, merge-on-read.

    Subclasses bind the three campaign kinds to their existing
    machinery: they set ``campaign`` (whose ``checkpoints`` type reads
    and merges the shard files) and ``keys`` (the item keys, in item
    order).  ``run_shard`` executes inside a (possibly forked) shard
    worker and must leave a complete checkpoint at the given path;
    ``merge`` runs in the coordinator after every shard settled and
    returns the artifact dict the matching CLI export would have
    produced.  ``completed_items`` is the crash-recovery scan: it
    counts the shard's durably checkpointed records *without running
    anything*, so a restarted coordinator can dispatch only the
    unfinished shards (and the shard's own in-run resume then skips
    its already-checkpointed items).
    """

    spec: CampaignSpec
    campaign: Any
    keys: Sequence[Hashable]

    @property
    def items(self) -> int:
        return len(self.keys)

    def run_shard(self, lo: int, hi: int, checkpoint: str,
                  trace: Optional[str] = None) -> None:
        raise NotImplementedError

    def completed_items(self, lo: int, hi: int, checkpoint: str) -> int:
        done = self.campaign.checkpoints.load(checkpoint)
        return sum(1 for key in self.keys[lo:hi] if key in done)

    def merge(self, checkpoints: Sequence[str]) -> Dict[str, object]:
        raise NotImplementedError


class FaultCampaignJob(ShardedJob):
    """``kind="campaign"``: the tier-configurable fault campaign."""

    def __init__(self, spec: CampaignSpec):
        from ..dft.coverage import build_fault_universe
        from ..dft.golden import GoldenSignatures
        from ..dft.registry import create_tiers
        from ..faults.campaign import FaultCampaign
        from ..faults.sampling import stratified_sample

        self.spec = spec
        universe = build_fault_universe()
        if spec.sample:
            universe = stratified_sample(universe, spec.sample,
                                         seed=spec.seed)
        self.universe = list(universe)
        self.keys = [f.key() for f in self.universe]
        self.campaign = FaultCampaign(
            strict_numerics=spec.strict_numerics, collapse=spec.collapse)
        for tier in create_tiers(spec.tiers, GoldenSignatures()):
            self.campaign.add_tier(tier)

    def run_shard(self, lo: int, hi: int, checkpoint: str,
                  trace: Optional[str] = None) -> None:
        self.campaign.run(self.universe[lo:hi], checkpoint=checkpoint,
                          trace=trace)

    def merge(self, checkpoints: Sequence[str]) -> Dict[str, object]:
        from ..faults.campaign import CampaignResult

        records = self.campaign.checkpoints.merge(checkpoints, self.keys)
        return CampaignResult(records, self.campaign.tier_names).to_dict()


class MonteCarloJob(ShardedJob):
    """``kind="mc"``: the Monte-Carlo mismatch campaign, sharded by
    die-index range (each die is a pure function of ``(seed, die)``,
    so a shard's records match the unsharded run's exactly)."""

    def __init__(self, spec: CampaignSpec):
        from ..analog.corners import get_corner
        from ..variation import MismatchModel, MonteCarloCampaign

        self.spec = spec
        self.keys = range(spec.dies)
        model = MismatchModel(sigma_vt=spec.sigma_vt_mv * 1e-3,
                              sigma_kp_rel=spec.sigma_kp_pct / 100.0)
        self.campaign = MonteCarloCampaign(
            tiers=spec.tiers, corner=get_corner(spec.corner),
            model=model, seed=spec.seed,
            strict_numerics=spec.strict_numerics,
            collapse=spec.collapse)

    def run_shard(self, lo: int, hi: int, checkpoint: str,
                  trace: Optional[str] = None) -> None:
        self.campaign.run(range(lo, hi), checkpoint=checkpoint,
                          trace=trace)

    def merge(self, checkpoints: Sequence[str]) -> Dict[str, object]:
        records = self.campaign.checkpoints.merge(checkpoints, self.keys)
        return self.campaign.result(records).to_dict()


class PatternCampaignJob(ShardedJob):
    """``kind="patterns"``: the coverage-vs-pattern campaign, sharded
    over its (deterministically sampled) BIST fault universe."""

    def __init__(self, spec: CampaignSpec):
        from ..patterns.campaign import (PatternCampaign, bist_universe,
                                         sampled_universe)

        self.spec = spec
        self.pattern_campaign = PatternCampaign(patterns=spec.patterns)
        self.universe = sampled_universe(bist_universe(), spec.sample)
        self.keys = [f.key() for f in self.universe]
        self.campaign = self.pattern_campaign.build()

    def run_shard(self, lo: int, hi: int, checkpoint: str,
                  trace: Optional[str] = None) -> None:
        self.campaign.run(self.universe[lo:hi], checkpoint=checkpoint,
                          trace=trace)

    def merge(self, checkpoints: Sequence[str]) -> Dict[str, object]:
        from ..faults.campaign import CampaignResult
        from ..patterns.campaign import (PatternCampaignResult,
                                         healthy_lock_summary)

        records = self.campaign.checkpoints.merge(checkpoints, self.keys)
        result = CampaignResult(records, self.campaign.tier_names)
        lock = {p: healthy_lock_summary(p)
                for p in self.pattern_campaign.patterns}
        return PatternCampaignResult(
            result=result, patterns=self.pattern_campaign.patterns,
            lock_summary=lock).to_dict()


_JOB_KINDS = {
    "campaign": FaultCampaignJob,
    "mc": MonteCarloJob,
    "patterns": PatternCampaignJob,
}


def build_job(spec: CampaignSpec) -> ShardedJob:
    """The executable job for *spec* (tiers built, universe resolved)."""
    return _JOB_KINDS[spec.kind](spec)
