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

Faults are independent of each other, so :meth:`FaultCampaign.run` can
fan the universe out over worker processes (``workers=N``).  Workers are
forked *after* the detectors are built, so they inherit the golden
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

import json
from contextlib import ExitStack
from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

from .._profiling import COUNTERS
from ..analog.resilience import numerics_policy
from ..analog.solver import SolverError
from ..core.jsonl import DurableJsonlWriter, JsonlCheckpoint
from ..core.supervisor import (OUTCOME_UNSOLVABLE, SUPERVISOR_TIER, RunTrace,
                               SupervisorPolicy, run_supervised)
from .model import DetectionRecord, StructuralFault

DetectorFunc = Callable[[StructuralFault], bool]
AppliesFunc = Callable[[StructuralFault], bool]

#: the paper's default tier pipeline (Section IV accounting)
TIER_ORDER = ("dc", "scan", "bist")

#: artifact / checkpoint schema version
ARTIFACT_VERSION = 1
_RESULT_FORMAT = "repro-campaign-result"
_CHECKPOINT_FORMAT = "repro-campaign-checkpoint"


@dataclass
class CampaignResult:
    """Per-fault detection records plus coverage accounting.

    ``tier_order`` names the tiers the campaign ran, in pipeline order;
    it defaults to the paper's three so hand-built results keep working.
    """

    records: List[DetectionRecord]
    tier_order: Tuple[str, ...] = TIER_ORDER

    def __post_init__(self):
        self.tier_order = tuple(self.tier_order)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.records)

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

    def outcome_counts(self) -> Dict[str, int]:
        """How many records settled per outcome (``ok`` / ``timeout`` /
        ``quarantined`` / ``unsolvable``)."""
        counts: Dict[str, int] = {}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    def unevaluated(self) -> List[DetectionRecord]:
        """Records that did not get a full, numerically clean evaluation
        (timed out, quarantined, or unsolvable).  Tiers they did not
        reach count as undetected in every coverage number — explicit
        conservatism, never silent loss."""
        return [r for r in self.records if r.outcome != "ok"]

    def sets_intersect_not_nested(self, a: str = "scan",
                                  b: str = "bist") -> bool:
        """The paper's claim: tiers a and b overlap, neither contains
        the other."""
        sa, sb = self.detected_by(a), self.detected_by(b)
        return bool(sa & sb) and bool(sa - sb) and bool(sb - sa)

    # -- artifact layer ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"format": _RESULT_FORMAT,
                "version": ARTIFACT_VERSION,
                "tier_order": list(self.tier_order),
                "records": [r.to_dict() for r in self.records]}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignResult":
        if data.get("format") != _RESULT_FORMAT:
            raise ValueError(
                f"not a campaign result artifact: {data.get('format')!r}")
        if data.get("version") != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported artifact version {data.get('version')!r}")
        return cls(records=[DetectionRecord.from_dict(r)
                            for r in data["records"]],
                   tier_order=tuple(data["tier_order"]))

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_dict(json.loads(text))

    def save(self, path: str, indent: Optional[int] = 2) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=indent))

    @classmethod
    def load(cls, path: str) -> "CampaignResult":
        with open(path) as fh:
            return cls.from_json(fh.read())


class FaultCampaign:
    """Orchestrates registered test tiers over a fault universe.

    ``strict_numerics`` escalates degraded analog solves (accepted by
    the resilience ladder but not verified good) to ``unsolvable``
    outcomes — the ``--strict-numerics`` CLI semantics.  It is applied
    inside :meth:`evaluate`, so forked campaign workers inherit it.

    ``collapse`` selects fault-universe compression (DESIGN.md §14):
    ``"off"`` (default) evaluates every fault; ``"on"`` runs each tier's
    ``detect_collapsed`` prepass, simulating one representative per
    structural equivalence class and expanding the verdict to the class
    members (records carry ``collapsed_from`` provenance); ``"audit"``
    additionally re-runs a seeded sample of non-representatives through
    the serial detectors and raises
    :class:`~repro.faults.collapse.CollapseAuditError` on any verdict
    mismatch.
    """

    def __init__(self, strict_numerics: bool = False,
                 collapse: str = "off"):
        from .collapse import COLLAPSE_MODES

        if collapse not in COLLAPSE_MODES:
            raise ValueError(f"collapse must be one of {COLLAPSE_MODES}, "
                             f"got {collapse!r}")
        self._tiers: List[Tuple[str, DetectorFunc, AppliesFunc]] = []
        self.strict_numerics = strict_numerics
        self.collapse = collapse
        # tier objects (protocol form only) — the collapse prepass needs
        # the object to reach its detect_collapsed method
        self._tier_objects: Dict[str, object] = {}
        # (tier name, fault.key()) -> detected, filled by the collapse
        # prepass and consulted by evaluate() before running a detector
        self._precomputed: Dict[Tuple[str, Tuple], bool] = {}
        # (tier name, fault.key()) -> representative fault.key(), filled
        # by the collapse prepass for non-representative members
        self._collapsed_from: Dict[Tuple[str, Tuple], Tuple] = {}

    @property
    def tier_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _, _ in self._tiers)

    @property
    def checkpoints(self) -> JsonlCheckpoint:
        """The JSONL checkpoint format of this campaign's records.

        Records resume only under the same tier pipeline, collapse
        policy and numerics policy.  ``collapse`` and
        ``strict_numerics`` enter the header only when set, so default
        checkpoints stay byte-identical to earlier ones; ``"audit"``
        records as ``"on"`` (the audit verifies the same records).
        """
        header: Dict[str, object] = {
            "format": _CHECKPOINT_FORMAT, "version": ARTIFACT_VERSION,
            "tier_order": list(self.tier_names)}
        if self.collapse != "off":
            header["collapse"] = "on"
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
        if not isinstance(tier, str):
            self._tier_objects[name] = tier
        self._tiers.append((name, detector, applies or (lambda f: True)))

    def evaluate(self, fault: StructuralFault) -> DetectionRecord:
        """Run every applicable tier on one fault.

        A detector that raises is treated as "not detected" for that
        tier (a broken test must never inflate coverage), with typed
        triage: :class:`~repro.analog.solver.SolverError` means the
        analog engine's resilience ladder rejected the faulted circuit's
        linear systems, so the record is settled with the first-class
        ``unsolvable`` outcome (alongside the error detail); any other
        exception is a tier bug and lands on ``errors`` only.
        """
        rec = DetectionRecord(fault=fault)
        with numerics_policy(strict=self.strict_numerics):
            for name, detector, applies in self._tiers:
                if not applies(fault):
                    continue
                pre = self._precomputed.get((name, fault.key()))
                if pre is not None:
                    if pre:
                        rec.tiers[name] = True
                    prov = self._collapsed_from.get((name, fault.key()))
                    if prov is not None:
                        rec.collapsed_from[name] = prov
                    continue
                try:
                    if detector(fault):
                        rec.tiers[name] = True
                except SolverError as exc:
                    rec.outcome = OUTCOME_UNSOLVABLE
                    rec.errors.append((name, repr(exc)))
                except Exception as exc:  # noqa: BLE001 - keep campaign alive
                    rec.errors.append((name, repr(exc)))
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

        With ``collapse`` on, a prepass in the parent process resolves
        whole equivalence classes from one representative each (see
        :meth:`_precompute_collapsed`) and the per-fault evaluation
        consults those verdicts; everything else evaluates serially.

        Execution is handed to :func:`repro.core.supervisor.run_supervised`:
        with ``workers`` > 1 (or a ``timeout`` set) and fork available,
        faults are dispatched one at a time to supervised forked
        workers.  Healthy faults produce records identical to a plain
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
        identical to an uninterrupted run either way.

        ``trace`` (a path or an open :class:`RunTrace`) streams the
        structured run-event log: worker spawns/deaths, dispatches,
        per-fault durations, retries, timeouts and checkpoint writes.
        """
        universe = list(universe)
        n = len(universe)
        done: Dict[Tuple[str, str, str, str], DetectionRecord] = {}
        with ExitStack() as stack:
            if isinstance(trace, str):
                trace = stack.enter_context(RunTrace(trace))
            writer: Optional[DurableJsonlWriter] = None
            if checkpoint is not None:
                done, writer = self.checkpoints.resume(checkpoint)
                stack.enter_context(writer)
            pending = [f for f in universe if f.key() not in done]
            base = n - len(pending)
            COUNTERS.campaign_faults += len(pending)
            if self.collapse != "off":
                self._precompute_collapsed(pending)
            completed = [base]

            def on_record(index: int, fault: StructuralFault,
                          rec: DetectionRecord, outcome: str) -> None:
                done[fault.key()] = rec
                if writer is not None:
                    writer.write_line(rec.to_dict())
                    if isinstance(trace, RunTrace):
                        trace.emit("checkpoint_write", item=index,
                                   fault=str(fault), outcome=outcome)
                completed[0] += 1
                if progress is not None:
                    progress(completed[0], n)

            n_workers = (1 if workers is None
                         else min(int(workers), max(len(pending), 1)))
            run_supervised(
                pending, self.evaluate, workers=n_workers,
                policy=SupervisorPolicy(timeout=timeout,
                                        max_retries=max_retries),
                fallback=self._fallback_record, on_record=on_record,
                trace=trace if isinstance(trace, RunTrace) else None)
        return CampaignResult(records=[done[f.key()] for f in universe],
                              tier_order=self.tier_names)

    def _precompute_collapsed(self,
                              pending: Sequence[StructuralFault]) -> None:
        """Collapse prepass: one representative simulation per class.

        Only runs when at least one tier object implements
        ``detect_collapsed`` (so stub-tier campaigns never pay for the
        collapser's reference circuits).  The sub-stage memo is shared
        across tiers — the DC and scan tiers split the cost of the
        combined ``link_static`` stage.  A tier whose collapsed pass
        raises is skipped wholesale: its faults all evaluate serially.
        Runs before workers fork, so every worker inherits the verdict
        maps.
        """
        self._precomputed.clear()
        self._collapsed_from.clear()
        tiers_with = [(name, self._tier_objects.get(name), applies)
                      for name, _, applies in self._tiers
                      if hasattr(self._tier_objects.get(name),
                                 "detect_collapsed")]
        if not tiers_with:
            return
        from .collapse import FaultCollapser

        goldens = next((obj.goldens for _, obj, _ in tiers_with
                        if hasattr(obj, "goldens")), None)
        collapser = FaultCollapser(goldens=goldens)
        COUNTERS.classes += len(collapser.classes(pending))
        memo: Dict[Tuple, object] = {}
        with numerics_policy(strict=self.strict_numerics):
            for name, obj, applies in tiers_with:
                faults = [f for f in pending if applies(f)]
                if not faults:
                    continue
                try:
                    resolved, provenance = obj.detect_collapsed(
                        faults, collapser, memo=memo)
                except Exception:  # noqa: BLE001 - serial path covers it
                    continue
                for key, hit in resolved.items():
                    self._precomputed[(name, key)] = bool(hit)
                for key, rep in provenance.items():
                    self._collapsed_from[(name, key)] = tuple(rep)
        if self.collapse == "audit":
            self._audit(pending)

    def _audit(self, pending: Sequence[StructuralFault]) -> None:
        """Equivalence audit: serially re-detect a seeded sample of the
        non-representative members and fail loudly on any divergence
        from the class verdict (DESIGN.md §14)."""
        import random

        from .collapse import (AUDIT_FRACTION, AUDIT_SEED,
                               CollapseAuditError)

        pairs = sorted(self._collapsed_from)
        if not pairs:
            return
        by_key = {f.key(): f for f in pending}
        rng = random.Random(AUDIT_SEED)
        n = max(1, int(len(pairs) * AUDIT_FRACTION))
        sample = rng.sample(pairs, min(n, len(pairs)))
        with numerics_policy(strict=self.strict_numerics):
            for name, key in sample:
                fault = by_key.get(key)
                tier = self._tier_objects.get(name)
                if fault is None or tier is None:
                    continue
                COUNTERS.audit_checks += 1
                collapsed = self._precomputed[(name, key)]
                try:
                    serial = bool(tier.detect(fault))
                except Exception as exc:  # noqa: BLE001 - audit is strict
                    raise CollapseAuditError(
                        f"collapse audit: tier {name!r} raised {exc!r} "
                        f"for member {fault} whose class verdict is "
                        f"{collapsed} (representative "
                        f"{self._collapsed_from[(name, key)]})") from exc
                if serial != collapsed:
                    raise CollapseAuditError(
                        f"collapse audit mismatch: tier {name!r}, fault "
                        f"{fault}: serial detect says {serial}, class "
                        f"verdict (via representative "
                        f"{self._collapsed_from[(name, key)]}) says "
                        f"{collapsed}")

    def _fallback_record(self, fault: StructuralFault, outcome: str,
                         detail: str) -> DetectionRecord:
        """First-class record for a fault the supervisor gave up on:
        no tier hits (an unevaluated fault never inflates coverage),
        the outcome label, and the supervisor's reason on ``errors``."""
        return DetectionRecord(fault=fault, outcome=outcome,
                               errors=[(SUPERVISOR_TIER, detail)])
