"""Fault-campaign machinery: run test tiers over the fault universe.

A campaign owns an *ordered list of tiers* — any objects satisfying the
:class:`repro.dft.registry.TestTier` protocol (``name`` / ``detect`` /
``applies_to``), or bare ``(name, detector, applies)`` triples.  The
paper's pipeline is the default three (``dc``, ``scan``, ``bist``,
:data:`TIER_ORDER`), but nothing here is specific to them: coverage
accounting, set algebra, serialization, and the parallel path all work
over whatever tier names the campaign was built with.  Every fault is
evaluated against every applicable tier — the paper's headline numbers
are *cumulative* (DC, DC+scan, DC+scan+BIST), and the set-algebra claim
("intersecting but not subsets") needs the per-tier sets.

Faults are independent of each other, so :meth:`FaultCampaign.run`
fans the universe out over worker processes, by default one per CPU
the process may run on (``workers=1`` evaluates in-process).  Workers
are forked *after* the detectors are built, so they inherit the golden
signatures without re-solving them, and results are reassembled in
universe order — the records (and therefore every coverage number) are
identical to a serial run.  Execution is *supervised*
(:mod:`repro.core.supervisor`): a fault that hangs past its wall-clock
budget becomes a ``timeout`` record, a fault that kills its worker is
retried and then ``quarantined``, and the campaign finishes regardless.

Campaigns are also *artifacts*: :meth:`CampaignResult.to_json` /
:meth:`CampaignResult.from_json` round-trip a result losslessly, and
``run(..., checkpoint=path)`` appends each record to a JSONL checkpoint
as it completes and skips already-evaluated faults on the next run, so
an interrupted multi-hour campaign resumes where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

from ..core.profiling import COUNTERS
from ..analog.resilience import numerics_policy
from ..core.jsonl import JsonlCheckpoint
from ..core.records import ARTIFACT_VERSION, ResultEnvelope, call_tier
from ..core.supervisor import SUPERVISOR_TIER, RunTrace, run_checkpointed
from .collapse import stage_memo
from .model import DetectionRecord, StructuralFault

DetectorFunc = Callable[[StructuralFault], bool]
AppliesFunc = Callable[[StructuralFault], bool]

#: the paper's default tier pipeline (Section IV accounting)
TIER_ORDER = ("dc", "scan", "bist")

_CHECKPOINT_FORMAT = "repro-campaign-checkpoint"


@dataclass
class CampaignResult(ResultEnvelope):
    """Per-fault detection records plus coverage accounting.

    ``tier_order`` names the tiers the campaign ran, in pipeline order;
    it defaults to the paper's three so hand-built results keep working.
    """

    FORMAT = "repro-campaign-result"
    KIND = "campaign"
    NOUN = "fault"
    COUNTED = "unreached tiers counted undetected"

    records: List[DetectionRecord]
    tier_order: Tuple[str, ...] = TIER_ORDER

    def __post_init__(self):
        self.tier_order = tuple(self.tier_order)

    # ------------------------------------------------------------------
    def detected_by(self, tier: str) -> Set[StructuralFault]:
        """Faults the named tier detects (non-cumulative)."""
        return {r.fault for r in self.records if r.hit(tier)}

    def cumulative_coverage(self, upto: str) -> float:
        """Coverage of the tiers from the first through *upto* combined."""
        if self.total == 0:
            return 1.0
        idx = self.tier_order.index(upto)
        active = self.tier_order[:idx + 1]
        hit = sum(1 for r in self.records
                  if any(r.hit(t) for t in active))
        return hit / self.total

    @property
    def overall_coverage(self) -> float:
        """Fraction of faults some tier detected."""
        if self.total == 0:
            return 1.0
        return sum(1 for r in self.records if r.detected) / self.total

    def coverage_by_kind(self) -> Dict[str, Tuple[int, int, float]]:
        """Table I rows: kind -> (detected, total, coverage)."""
        out: Dict[str, List[int]] = {}
        for r in self.records:
            label = r.fault.kind.table_label
            d, t = out.get(label, (0, 0))
            out[label] = (d + (1 if r.detected else 0), t + 1)
        return {k: (d, t, d / t) for k, (d, t) in out.items()}

    def coverage_by_block(self) -> Dict[str, Tuple[int, int, float]]:
        out: Dict[str, Tuple[int, int]] = {}
        for r in self.records:
            d, t = out.get(r.fault.block, (0, 0))
            out[r.fault.block] = (d + (1 if r.detected else 0), t + 1)
        return {k: (d, t, d / t) for k, (d, t) in out.items()}

    def undetected(self) -> List[StructuralFault]:
        return [r.fault for r in self.records if not r.detected]

    def sets_intersect_not_nested(self, a: str = "scan",
                                  b: str = "bist") -> bool:
        """The paper's claim: tiers a and b overlap, neither contains
        the other."""
        sa, sb = self.detected_by(a), self.detected_by(b)
        return bool(sa & sb) and bool(sa - sb) and bool(sb - sa)

    # -- artifact layer ------------------------------------------------
    def fields(self) -> Dict[str, object]:
        return {"tier_order": list(self.tier_order),
                "records": [r.to_dict() for r in self.records]}

    @classmethod
    def from_fields(cls, data: Mapping[str, object]) -> "CampaignResult":
        return cls(records=[DetectionRecord.from_dict(r)
                            for r in data["records"]],
                   tier_order=tuple(data["tier_order"]))


class FaultCampaign:
    """Orchestrates registered test tiers over a fault universe.

    ``strict_numerics`` escalates degraded analog solves (accepted by
    the resilience ladder but not verified good) to ``unsolvable``
    outcomes — the ``--strict-numerics`` CLI semantics.  It is applied
    inside :meth:`evaluate`, so forked campaign workers inherit it.

    Every :meth:`run` collapses the fault universe as it goes
    (DESIGN.md §14): it activates a fresh
    :class:`~repro.faults.collapse.StageMemo`, and the tiers' stages
    reuse the result of an earlier fault whose injected netlist change
    is structurally the same.  A forked run's workers each fill their
    own copy over a contiguous share of the faults in key order, so
    the faults of one device meet in one copy.  Records are the same
    either way and do not say which fault simulated a stage.
    """

    def __init__(self, strict_numerics: bool = False):
        self._tiers: List[Tuple[str, DetectorFunc, AppliesFunc]] = []
        self.strict_numerics = strict_numerics

    @property
    def tier_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _, _ in self._tiers)

    @property
    def checkpoints(self) -> JsonlCheckpoint:
        """The JSONL checkpoint format of this campaign's records.

        Records resume only under the same tier pipeline and numerics
        policy.  ``strict_numerics`` enters the header only when set, so
        default checkpoints stay byte-identical to earlier ones.
        """
        header: Dict[str, object] = {
            "format": _CHECKPOINT_FORMAT, "version": ARTIFACT_VERSION,
            "tier_order": list(self.tier_names)}
        if self.strict_numerics:
            header["strict_numerics"] = True
        return JsonlCheckpoint(header, DetectionRecord.from_dict,
                               lambda rec: rec.fault.key())

    def add_tier(self, tier: Union[str, object],
                 detector: Optional[DetectorFunc] = None,
                 applies: Optional[AppliesFunc] = None) -> None:
        """Append a tier to the pipeline.

        Either pass a :class:`~repro.dft.registry.TestTier` object
        (``add_tier(tier)``), or the legacy unpacked form
        (``add_tier(name, detector, applies)``).  Tier names are free-
        form but must be unique within the campaign — cumulative
        coverage follows insertion order.
        """
        if isinstance(tier, str):
            if detector is None:
                raise TypeError(
                    "add_tier(name, ...) needs a detector callable; "
                    "pass a TestTier object for the protocol form")
            name = tier
        else:
            name = tier.name
            detector = tier.detect
            applies = applies if applies is not None else tier.applies_to
        if name in self.tier_names:
            raise ValueError(f"duplicate tier name {name!r}")
        self._tiers.append((name, detector, applies or (lambda f: True)))

    def evaluate(self, fault: StructuralFault) -> DetectionRecord:
        """Run every applicable tier on one fault.

        A detector that raises counts as "not detected" for that tier,
        triaged by :func:`~repro.core.records.call_tier`: a solver
        failure settles the record ``unsolvable``, any other exception
        is a tier bug; both land on ``errors``.
        """
        rec = DetectionRecord(fault=fault)
        with numerics_policy(strict=self.strict_numerics):
            for name, detector, applies in self._tiers:
                if applies(fault) and call_tier(rec, name, detector, fault):
                    rec.tiers[name] = True
        return rec

    def run(self, universe: Sequence[StructuralFault],
            progress: Optional[Callable[[int, int], None]] = None,
            workers: Optional[int] = None,
            checkpoint: Optional[str] = None,
            timeout: Optional[float] = None,
            max_retries: int = 1,
            trace: Optional[Union[str, RunTrace]] = None
            ) -> CampaignResult:
        """Evaluate every fault against every applicable tier.

        The run activates a fresh stage memo (see the class docstring):
        a stage whose structural key an earlier fault of this run (of
        this worker, in a forked run) already simulated reuses that
        result.

        Execution is handed to the campaigns' shared run loop,
        :func:`repro.core.supervisor.run_checkpointed`: with fork
        available and ``workers`` > 1 (by default one per CPU this
        process may use) or a ``timeout`` set, faults are dispatched
        one at a time to supervised forked workers, each working
        through its share of the faults in key order and sending its
        counters back with each record.  Healthy faults produce records identical to a plain
        serial loop — including the per-tier exception capture — while
        a fault that hangs past ``timeout`` seconds is settled as a
        ``timeout`` outcome and a fault that repeatedly kills its worker
        is settled as ``quarantined`` after ``max_retries``
        re-dispatches.  ``progress`` is called once per completed fault
        with the same ``(done, total)`` signature in both serial and
        parallel runs, error-carrying records included.

        With ``checkpoint`` set, every finished record is appended to
        that JSONL file as it completes, and faults already present in
        the file (from a previous, possibly interrupted run with the
        same :attr:`checkpoints` header) are *skipped* — their records
        are read back instead of re-simulated.  The returned result is
        identical to an uninterrupted run either way, and a finished
        run's checkpoint holds its lines in universe order whatever the
        worker count.

        ``trace`` (a path or an open :class:`RunTrace`) streams the
        structured run-event log: worker spawns/deaths, dispatches,
        per-fault durations, retries, timeouts and checkpoint writes,
        and, when the run evaluates in-process, one ``stage_reused``
        event per stage result a fault took from its representative.
        """
        return self.result(run_checkpointed(
            universe, self.evaluate, key=StructuralFault.key,
            label=lambda fault: {"fault": str(fault)},
            fallback=self._fallback_record, checkpoints=self.checkpoints,
            checkpoint=checkpoint, workers=workers, timeout=timeout,
            max_retries=max_retries, progress=progress, trace=trace,
            scope=self._run_scope))

    def result(self, records: Sequence[DetectionRecord]) -> CampaignResult:
        """*records* (in universe order) as this campaign's result."""
        return CampaignResult(records=list(records),
                              tier_order=self.tier_names)

    @staticmethod
    def _run_scope(trace: Optional[RunTrace],
                   pending: List[StructuralFault]):
        """Count the faults a run evaluates and activate its stage memo."""
        COUNTERS.campaign_faults += len(pending)
        return stage_memo(trace)

    def _fallback_record(self, fault: StructuralFault, outcome: str,
                         detail: str) -> DetectionRecord:
        """First-class record for a fault the supervisor gave up on:
        no tier hits (an unevaluated fault never inflates coverage),
        the outcome label, and the supervisor's reason on ``errors``."""
        return DetectionRecord(fault=fault, outcome=outcome,
                               errors=[(SUPERVISOR_TIER, detail)])
