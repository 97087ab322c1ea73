"""Monte-Carlo mismatch campaign: tiers re-run over sampled dies.

A Monte-Carlo campaign turns the deterministic Table I question ("does
tier X detect fault Y?") into the statistical one a production test
program faces: across dies whose transistors carry sampled local
mismatch on top of a global corner, how often does a *healthy* die fail
a tier (**yield loss**), and how often does a *faulty* die pass every
tier (**test escape**)?

Each die evaluates as a pure function of ``(seed, die_index)``:

* the per-device mismatch draws are keyed hashes
  (:mod:`repro.variation.mismatch`);
* the injected fault is :func:`repro.faults.sampling.pick_die_fault`
  of the same key;
* the tier measurements start from cold solver state every time (the
  Newton iteration seeds from zeros, companion models reset per
  transient, faults inject into clones), and the stage results the
  tiers share (:func:`repro.faults.collapse.stage_memo`) live for one
  die: its healthy screens solve the link once, its faulted DC and
  scan tiers solve the faulted link once.

Die independence is what lets :meth:`MonteCarloCampaign.run` run on the
fault campaign's own run loop: supervised fork-parallel workers
(:mod:`repro.core.supervisor`) whose records reassemble in die order
(bit-identical to a serial run for every healthy die, with hanging or
worker-killing dies settled as first-class timeout/quarantine
outcomes), and a JSONL checkpoint that lets an interrupted run resume
without re-simulating finished dies.  Within a worker, benches are built once
and *re-tuned* per die through :class:`repro.variation.context.DieContext`,
so the compiled MNA plans of PR 1 amortise across the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..core.profiling import COUNTERS
from ..analog.corners import ProcessCorner, get_corner
from ..analog.resilience import numerics_policy
from ..core.jsonl import JsonlCheckpoint
from ..core.records import ARTIFACT_VERSION, ResultEnvelope, call_tier
from ..core.supervisor import SUPERVISOR_TIER, RunTrace, run_checkpointed
from ..faults.collapse import stage_memo
from ..faults.model import StructuralFault
from ..faults.sampling import SampledCoverage, pick_die_fault
from .context import DieContext, activated
from .mismatch import MismatchModel

#: default tier pipeline, mirroring the fault campaign's
MC_TIER_ORDER = ("dc", "scan", "bist")

_CHECKPOINT_FORMAT = "repro-mc-checkpoint"


@dataclass
class DieRecord:
    """Outcome of one sampled die.

    ``healthy`` maps every tier name to its healthy-die screen outcome
    (True = the variation-shifted but fault-free die *passed* the tier;
    tiers without a screen always pass).  ``detected`` maps every tier
    name to whether the tier caught the die's injected ``fault`` (False
    when the tier missed or does not apply to the fault's block).
    Everything is bools, ints and strings — records serialize to
    byte-stable JSON by construction.

    ``outcome`` is ``"ok"`` for a normally evaluated die; the
    supervised runner settles a hanging die as ``"timeout"`` and one
    that repeatedly kills its worker as ``"quarantined"``, and a die
    whose linear systems the analog resilience ladder rejected settles
    as ``"unsolvable"``.  Non-ok dies fail the affected screens and
    detect nothing there — conservative in both directions, and visible
    in the accounting instead of lost.
    """

    die: int
    fault: StructuralFault
    healthy: Dict[str, bool]
    detected: Dict[str, bool]
    errors: List[Tuple[str, str]] = field(default_factory=list)
    outcome: str = "ok"

    # ------------------------------------------------------------------
    @property
    def healthy_pass(self) -> bool:
        """Did the fault-free die pass every tier's screen?"""
        return all(self.healthy.values())

    @property
    def escaped(self) -> bool:
        """Did the faulty die pass every tier (a test escape)?"""
        return not any(self.detected.values())

    def detected_by(self, upto: str, order: Sequence[str]) -> bool:
        """Was the fault caught by the pipeline through tier *upto*?"""
        idx = list(order).index(upto)
        return any(self.detected.get(t, False) for t in order[:idx + 1])

    # -- artifact serialization ----------------------------------------
    def to_dict(self) -> Dict[str, object]:
        # "outcome" is emitted only for abnormal records so ok-records
        # stay byte-identical to pre-supervision artifacts/checkpoints
        data: Dict[str, object] = {
            "die": self.die,
            "fault": self.fault.to_dict(),
            "healthy": dict(self.healthy),
            "detected": dict(self.detected),
            "errors": [list(e) for e in self.errors]}
        if self.outcome != "ok":
            data["outcome"] = self.outcome
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DieRecord":
        return cls(die=int(data["die"]),
                   fault=StructuralFault.from_dict(data["fault"]),
                   healthy={k: bool(v)
                            for k, v in (data.get("healthy") or {}).items()},
                   detected={k: bool(v)
                             for k, v in (data.get("detected") or {}).items()},
                   errors=[tuple(e) for e in (data.get("errors") or [])],
                   outcome=str(data.get("outcome", "ok")))


@dataclass
class MCResult(ResultEnvelope):
    """Records of a Monte-Carlo campaign plus statistical accounting.

    All rate estimates come back as
    :class:`~repro.faults.sampling.SampledCoverage` — a binomial count
    with its Wilson interval — so a 64-die smoke run and a 4096-die
    nightly report the same schema at honestly different widths.
    """

    FORMAT = "repro-mc-result"
    KIND = "Monte-Carlo"
    NOUN = "die"
    COUNTED = "counted as screen failures and missed detections"

    records: List[DieRecord]
    tier_order: Tuple[str, ...] = MC_TIER_ORDER
    seed: int = 2016
    corner: str = "TT"
    model: MismatchModel = field(default_factory=MismatchModel)
    strict_numerics: bool = False

    def __post_init__(self):
        self.tier_order = tuple(self.tier_order)

    # ------------------------------------------------------------------
    def yield_loss(self, tier: Optional[str] = None,
                   confidence: float = 0.95) -> SampledCoverage:
        """Healthy dies rejected — by one tier, or (default) by any."""
        if tier is None:
            fails = sum(1 for r in self.records if not r.healthy_pass)
        else:
            fails = sum(1 for r in self.records
                        if not r.healthy.get(tier, True))
        return SampledCoverage(detected=fails, sampled=self.total,
                               confidence=confidence)

    def escape_rate(self, confidence: float = 0.95) -> SampledCoverage:
        """Faulty dies no tier caught."""
        misses = sum(1 for r in self.records if r.escaped)
        return SampledCoverage(detected=misses, sampled=self.total,
                               confidence=confidence)

    def cumulative_detection(self, upto: str,
                             confidence: float = 0.95) -> SampledCoverage:
        """Statistical Table I row: pipeline-through-*upto* detection."""
        hit = sum(1 for r in self.records
                  if r.detected_by(upto, self.tier_order))
        return SampledCoverage(detected=hit, sampled=self.total,
                               confidence=confidence)

    def detection_by_kind(self, confidence: float = 0.95
                          ) -> Dict[str, SampledCoverage]:
        """Table I rows under variation: kind label -> detection rate."""
        out: Dict[str, List[int]] = {}
        for r in self.records:
            label = r.fault.kind.table_label
            hit, n = out.get(label, (0, 0))
            out[label] = (hit + (0 if r.escaped else 1), n + 1)
        return {k: SampledCoverage(detected=h, sampled=n,
                                   confidence=confidence)
                for k, (h, n) in out.items()}

    def error_count(self) -> int:
        return sum(len(r.errors) for r in self.records)

    # -- artifact layer ------------------------------------------------
    def fields(self) -> Dict[str, object]:
        return {"config": _config_dict(self.seed, self.corner,
                                       self.tier_order, self.model,
                                       self.strict_numerics),
                "dies": self.total,
                "records": [r.to_dict() for r in self.records]}

    @classmethod
    def from_fields(cls, data: Mapping[str, object]) -> "MCResult":
        config = data.get("config") or {}
        return cls(records=[DieRecord.from_dict(r) for r in data["records"]],
                   tier_order=tuple(config.get("tiers", MC_TIER_ORDER)),
                   seed=int(config.get("seed", 2016)),
                   corner=str(config.get("corner", "TT")),
                   model=_model_from_config(config),
                   strict_numerics=bool(config.get("strict_numerics",
                                                   False)))


def _config_dict(seed: int, corner: str, tiers: Sequence[str],
                 model: MismatchModel,
                 strict_numerics: bool = False) -> Dict[str, object]:
    """The campaign parameters that must match for records to mix.

    ``strict_numerics`` is emitted only when set: strict runs settle
    degraded solves differently, so their records must not mix with
    default-policy ones — while default-policy artifacts stay
    byte-identical to pre-resilience ones.
    """
    config: Dict[str, object] = {
        "seed": seed, "corner": corner, "tiers": list(tiers),
        "sigma_vt": model.sigma_vt,
        "sigma_kp_rel": model.sigma_kp_rel,
        "reference_area": model.reference_area}
    if strict_numerics:
        config["strict_numerics"] = True
    return config


def _model_from_config(config: Mapping[str, object]) -> MismatchModel:
    defaults = MismatchModel()
    return MismatchModel(
        sigma_vt=float(config.get("sigma_vt", defaults.sigma_vt)),
        sigma_kp_rel=float(config.get("sigma_kp_rel",
                                      defaults.sigma_kp_rel)),
        reference_area=float(config.get("reference_area",
                                        defaults.reference_area)))


class MonteCarloCampaign:
    """Runs the registered tiers over a population of sampled dies."""

    def __init__(self, tiers: Sequence[Union[str, object]] = MC_TIER_ORDER,
                 corner: Optional[ProcessCorner] = None,
                 model: Optional[MismatchModel] = None,
                 seed: int = 2016,
                 universe: Optional[Sequence[StructuralFault]] = None,
                 strict_numerics: bool = False):
        # the dft package routes its DUT builders through this package's
        # context seam, so import it lazily to keep the layering acyclic
        from ..dft.coverage import build_fault_universe
        from ..dft.golden import GoldenSignatures
        from ..dft.registry import create_tier

        self.seed = int(seed)
        self.corner = corner if corner is not None else get_corner("TT")
        self.model = model if model is not None else MismatchModel()
        self.strict_numerics = bool(strict_numerics)
        # tiers (and their goldens) are built OUTSIDE any die context:
        # the tester's expected signatures are the nominal design's, and
        # a die fails a screen exactly when mismatch moves an observable
        # off that nominal reference.  Each entry is a registered tier
        # name or a ready-made TestTier object (custom tiers let smoke
        # scripts drive deliberately pathological circuits through the
        # campaign).
        goldens = GoldenSignatures()
        self._tiers = [create_tier(t, goldens) if isinstance(t, str) else t
                       for t in tiers]
        self.tier_names = tuple(t.name for t in self._tiers)
        for i, name in enumerate(self.tier_names):
            if name in self.tier_names[:i]:
                raise ValueError(f"duplicate tier name {name!r}")
        self.universe: List[StructuralFault] = (
            list(universe) if universe is not None
            else build_fault_universe())
        if not self.universe:
            raise ValueError("Monte-Carlo campaign needs a non-empty "
                             "fault universe")
        self._ctx = DieContext(seed=self.seed, model=self.model,
                               corner=self.corner)

    # ------------------------------------------------------------------
    def evaluate_die(self, die_index: int) -> DieRecord:
        """Screen the healthy die, then inject and test its fault.

        A tier that raises is conservative in both directions: the
        healthy screen counts as *failed* (a tester crash rejects the
        part) and the detection counts as *missed* (a broken test never
        inflates coverage), triaged by
        :func:`~repro.core.records.call_tier` as in the fault campaign.
        The die runs under a fresh stage memo, so the tiers share its
        stage results (the DC and scan screens' healthy link, the DC
        and scan tiers' faulted one) and no other die's.
        """
        COUNTERS.mc_dies += 1
        fault = pick_die_fault(self.universe, self.seed, die_index)
        rec = DieRecord(die=die_index, fault=fault, healthy={}, detected={})
        with activated(self._ctx), \
                numerics_policy(strict=self.strict_numerics), \
                stage_memo():
            self._ctx.set_die(die_index)
            for tier in self._tiers:
                screen = getattr(tier, "screen", None)
                rec.healthy[tier.name] = (
                    screen is None or bool(call_tier(rec, tier.name, screen)))
            for tier in self._tiers:
                hit = tier.applies_to(fault) and call_tier(
                    rec, tier.name, tier.detect, fault)
                rec.detected[tier.name] = bool(hit)
        return rec

    def run(self, dies: Union[int, Sequence[int]],
            progress: Optional[Callable[[int, int], None]] = None,
            workers: Optional[int] = None,
            checkpoint: Optional[str] = None,
            timeout: Optional[float] = None,
            max_retries: int = 1,
            trace: Optional[Union[str, RunTrace]] = None) -> MCResult:
        """Evaluate the dies and assemble the result.

        ``dies`` is either a count (evaluate dies ``0..dies-1``, the
        historical form) or an explicit sequence of die indices — the
        service layer shards a population by die-index range, and each
        die is a pure function of ``(seed, die_index)``, so a shard's
        records are identical to the same dies' records in an
        unsharded run.

        Execution goes through the run loop the fault campaign uses
        (:func:`repro.core.supervisor.run_checkpointed`), so with fork
        available and ``workers`` > 1 (by default one per CPU this
        process may use) or a ``timeout`` set, pending dies are
        dispatched to supervised forked workers, each a contiguous
        share of the dies, sending their counters back —
        records reassemble in die order, identical to a serial run for
        every healthy die, while a hanging die settles as a ``timeout``
        outcome and a worker-killing die as ``quarantined`` after
        ``max_retries`` re-dispatches.  With ``checkpoint`` set,
        finished dies append to a JSONL file and are skipped on resume;
        ``trace`` streams the structured run-event log.
        """
        indices = range(int(dies)) if isinstance(dies, int) else dies
        return self.result(run_checkpointed(
            [int(d) for d in indices], self.evaluate_die, key=int,
            label=lambda die: {"die": die}, fallback=self._fallback_record,
            checkpoints=self.checkpoints, checkpoint=checkpoint,
            workers=workers, timeout=timeout, max_retries=max_retries,
            progress=progress, trace=trace))

    @property
    def checkpoints(self) -> JsonlCheckpoint:
        """The JSONL checkpoint format of this campaign's die records.

        The header carries the full campaign config (seed, corner,
        tiers, mismatch model and numerics policy): a record
        sampled under different parameters is a different die, and
        mixing them would corrupt every rate.
        """
        config = _config_dict(self.seed, self.corner.name,
                              self.tier_names, self.model,
                              self.strict_numerics)
        return JsonlCheckpoint(
            {"format": _CHECKPOINT_FORMAT, "version": ARTIFACT_VERSION,
             "config": config},
            DieRecord.from_dict, lambda rec: rec.die)

    def result(self, records: Sequence[DieRecord]) -> MCResult:
        """*records* (in die order) as this campaign's result."""
        return MCResult(records=list(records),
                        tier_order=self.tier_names, seed=self.seed,
                        corner=self.corner.name, model=self.model,
                        strict_numerics=self.strict_numerics)

    def _fallback_record(self, die: int, outcome: str,
                         detail: str) -> DieRecord:
        """First-class record for a die the supervisor gave up on.

        The die's fault is still the deterministic
        :func:`pick_die_fault` draw, so the record slots into the same
        accounting; every screen counts as failed and every detection
        as missed (a tester crash rejects the part; an unevaluated test
        never inflates coverage)."""
        fault = pick_die_fault(self.universe, self.seed, die)
        return DieRecord(die=die, fault=fault,
                         healthy={t: False for t in self.tier_names},
                         detected={t: False for t in self.tier_names},
                         errors=[(SUPERVISOR_TIER, detail)],
                         outcome=outcome)
