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
  transient, faults inject into clones).

Die independence is what lets :meth:`MonteCarloCampaign.run` reuse the
fault campaign's machinery shape: supervised fork-parallel workers
(:mod:`repro.core.supervisor`) whose records reassemble in die order
(bit-identical to a serial run for every healthy die, with hanging or
worker-killing dies settled as first-class timeout/quarantine
outcomes), and a JSONL checkpoint that lets an interrupted run resume
without re-simulating finished dies.  Within a worker, benches are built once
and *re-tuned* per die through :class:`repro.variation.context.DieContext`,
so the compiled MNA plans of PR 1 amortise across the whole sweep.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .._profiling import COUNTERS
from ..analog.corners import ProcessCorner, get_corner
from ..analog.resilience import numerics_policy
from ..analog.solver import SolverError
from ..core.jsonl import DurableJsonlWriter, JsonlCheckpoint
from ..core.supervisor import (OUTCOME_UNSOLVABLE, SUPERVISOR_TIER, RunTrace,
                               SupervisorPolicy, run_supervised)
from ..faults.model import StructuralFault
from ..faults.sampling import SampledCoverage, pick_die_fault
from .context import DieContext, activated
from .mismatch import MismatchModel

#: default tier pipeline, mirroring the fault campaign's
MC_TIER_ORDER = ("dc", "scan", "bist")

#: artifact / checkpoint schema version
ARTIFACT_VERSION = 1
_RESULT_FORMAT = "repro-mc-result"
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

    def screen_failures(self) -> Tuple[str, ...]:
        return tuple(t for t, ok in self.healthy.items() if not ok)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DieRecord):
            return NotImplemented
        return (self.die == other.die and self.fault == other.fault
                and self.healthy == other.healthy
                and self.detected == other.detected
                and self.errors == other.errors
                and self.outcome == other.outcome)


@dataclass
class MCResult:
    """Records of a Monte-Carlo campaign plus statistical accounting.

    All rate estimates come back as
    :class:`~repro.faults.sampling.SampledCoverage` — a binomial count
    with its Wilson interval — so a 64-die smoke run and a 4096-die
    nightly report the same schema at honestly different widths.
    """

    records: List[DieRecord]
    tier_order: Tuple[str, ...] = MC_TIER_ORDER
    seed: int = 2016
    corner: str = "TT"
    model: MismatchModel = field(default_factory=MismatchModel)
    strict_numerics: bool = False
    collapse: str = "off"

    def __post_init__(self):
        self.tier_order = tuple(self.tier_order)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.records)

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

    def outcome_counts(self) -> Dict[str, int]:
        """How many dies settled per outcome (``ok`` / ``timeout`` /
        ``quarantined`` / ``unsolvable``)."""
        counts: Dict[str, int] = {}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    def unevaluated(self) -> List[DieRecord]:
        """Dies that did not get a full, numerically clean evaluation
        (timed out, quarantined, or unsolvable).  Tiers they did not
        reach count as screen failures and missed detections in every
        rate — explicit conservatism."""
        return [r for r in self.records if r.outcome != "ok"]

    # -- artifact layer ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"format": _RESULT_FORMAT,
                "version": ARTIFACT_VERSION,
                "config": _config_dict(self.seed, self.corner,
                                       self.tier_order, self.model,
                                       self.strict_numerics,
                                       self.collapse),
                "dies": self.total,
                "records": [r.to_dict() for r in self.records]}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MCResult":
        if data.get("format") != _RESULT_FORMAT:
            raise ValueError(
                f"not a Monte-Carlo result artifact: {data.get('format')!r}")
        if data.get("version") != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported artifact version {data.get('version')!r}")
        config = data.get("config") or {}
        return cls(records=[DieRecord.from_dict(r) for r in data["records"]],
                   tier_order=tuple(config.get("tiers", MC_TIER_ORDER)),
                   seed=int(config.get("seed", 2016)),
                   corner=str(config.get("corner", "TT")),
                   model=_model_from_config(config),
                   strict_numerics=bool(config.get("strict_numerics",
                                                   False)),
                   collapse=str(config.get("collapse", "off")))

    @classmethod
    def from_json(cls, text: str) -> "MCResult":
        return cls.from_dict(json.loads(text))

    def save(self, path: str, indent: Optional[int] = 2) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=indent))

    @classmethod
    def load(cls, path: str) -> "MCResult":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _config_dict(seed: int, corner: str, tiers: Sequence[str],
                 model: MismatchModel,
                 strict_numerics: bool = False,
                 collapse: str = "off") -> Dict[str, object]:
    """The campaign parameters that must match for records to mix.

    ``strict_numerics`` is emitted only when set: strict runs settle
    degraded solves differently, so their records must not mix with
    default-policy ones — while default-policy artifacts stay
    byte-identical to pre-resilience ones.  ``collapse`` likewise: a
    collapsed run detects through class representatives, so its records
    must not mix with per-fault ones (``audit`` records as ``"on"`` —
    the audit is a verification layer over the same records).
    """
    config: Dict[str, object] = {
        "seed": seed, "corner": corner, "tiers": list(tiers),
        "sigma_vt": model.sigma_vt,
        "sigma_kp_rel": model.sigma_kp_rel,
        "reference_area": model.reference_area}
    if strict_numerics:
        config["strict_numerics"] = True
    if collapse != "off":
        config["collapse"] = "on"
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
                 strict_numerics: bool = False,
                 collapse: str = "off"):
        # the dft package routes its DUT builders through this package's
        # context seam, so import it lazily to keep the layering acyclic
        from ..dft.coverage import build_fault_universe
        from ..dft.golden import GoldenSignatures
        from ..dft.registry import create_tier
        from ..faults.collapse import COLLAPSE_MODES

        if collapse not in COLLAPSE_MODES:
            raise ValueError(f"collapse must be one of {COLLAPSE_MODES}, "
                             f"got {collapse!r}")
        self.seed = int(seed)
        self.corner = corner if corner is not None else get_corner("TT")
        self.model = model if model is not None else MismatchModel()
        self.strict_numerics = bool(strict_numerics)
        self.collapse = collapse
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
        self.universe: List[StructuralFault] = (
            list(universe) if universe is not None
            else build_fault_universe())
        if not self.universe:
            raise ValueError("Monte-Carlo campaign needs a non-empty "
                             "fault universe")
        self._ctx = DieContext(seed=self.seed, model=self.model,
                               corner=self.corner)
        # fault key -> class-representative fault (DESIGN.md §14).  The
        # map is built here, OUTSIDE any die context: the structural
        # digests must come from the nominal netlists, not a die-shifted
        # realisation, so the substitution is the same for every die.
        self._rep_map: Dict[Tuple, StructuralFault] = {}
        if self.collapse != "off":
            from ..faults.collapse import FaultCollapser

            collapser = FaultCollapser(goldens=goldens)
            self._rep_map = collapser.representative_map(self.universe)

    def _rep_for(self, fault: StructuralFault) -> StructuralFault:
        """The fault actually simulated for detection: the fault's class
        representative under collapsing, the fault itself otherwise."""
        return self._rep_map.get(fault.key(), fault)

    # ------------------------------------------------------------------
    def evaluate_die(self, die_index: int) -> DieRecord:
        """Screen the healthy die, then inject and test its fault.

        A tier that raises is conservative in both directions: the
        healthy screen counts as *failed* (a tester crash rejects the
        part) and the detection counts as *missed* (a broken test never
        inflates coverage) — with typed triage:
        :class:`~repro.analog.solver.SolverError` means the resilience
        ladder rejected the die's linear systems, so the record settles
        with the first-class ``unsolvable`` outcome; any other exception
        is a tier bug and lands on ``errors`` only.
        """
        COUNTERS.mc_dies += 1
        fault = pick_die_fault(self.universe, self.seed, die_index)
        healthy: Dict[str, bool] = {}
        detected: Dict[str, bool] = {}
        errors: List[Tuple[str, str]] = []
        outcome = "ok"
        with activated(self._ctx), \
                numerics_policy(strict=self.strict_numerics):
            self._ctx.set_die(die_index)
            for tier in self._tiers:
                screen = getattr(tier, "screen", None)
                if screen is None:
                    healthy[tier.name] = True
                    continue
                try:
                    healthy[tier.name] = bool(screen())
                except SolverError as exc:
                    healthy[tier.name] = False
                    errors.append((tier.name, repr(exc)))
                    outcome = OUTCOME_UNSOLVABLE
                except Exception as exc:  # noqa: BLE001 - keep run alive
                    healthy[tier.name] = False
                    errors.append((tier.name, repr(exc)))
            rep = self._rep_for(fault)
            for tier in self._tiers:
                hit = False
                if tier.applies_to(fault):
                    try:
                        hit = bool(tier.detect(rep))
                    except SolverError as exc:
                        errors.append((tier.name, repr(exc)))
                        outcome = OUTCOME_UNSOLVABLE
                    except Exception as exc:  # noqa: BLE001
                        errors.append((tier.name, repr(exc)))
                detected[tier.name] = hit
        return DieRecord(die=die_index, fault=fault, healthy=healthy,
                         detected=detected, errors=errors, outcome=outcome)

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

        Mirrors :meth:`repro.faults.campaign.FaultCampaign.run`:
        execution goes through the supervised runner
        (:func:`repro.core.supervisor.run_supervised`), so with
        ``workers`` > 1 (or a ``timeout`` set) and fork available,
        pending dies are dispatched to supervised forked workers —
        records reassemble in die order, identical to a serial run for
        every healthy die, while a hanging die settles as a ``timeout``
        outcome and a worker-killing die as ``quarantined`` after
        ``max_retries`` re-dispatches.  With ``checkpoint`` set,
        finished dies append to a JSONL file and are skipped on resume;
        ``trace`` streams the structured run-event log.
        """
        indices = (list(range(int(dies))) if isinstance(dies, int)
                   else [int(d) for d in dies])
        n = len(indices)
        done: Dict[int, DieRecord] = {}
        with ExitStack() as stack:
            if isinstance(trace, str):
                trace = stack.enter_context(RunTrace(trace))
            writer: Optional[DurableJsonlWriter] = None
            if checkpoint is not None:
                done, writer = self.checkpoints.resume(checkpoint)
                stack.enter_context(writer)
            pending = [i for i in indices if i not in done]
            base = n - len(pending)
            completed = [base]

            def on_record(index: int, die: int, rec: DieRecord,
                          outcome: str) -> None:
                done[die] = rec
                if writer is not None:
                    writer.write_line(rec.to_dict())
                    if isinstance(trace, RunTrace):
                        trace.emit("checkpoint_write", item=index,
                                   die=die, outcome=outcome)
                completed[0] += 1
                if progress is not None:
                    progress(completed[0], n)

            n_workers = (1 if workers is None
                         else min(int(workers), max(len(pending), 1)))
            run_supervised(
                pending, self.evaluate_die, workers=n_workers,
                policy=SupervisorPolicy(timeout=timeout,
                                        max_retries=max_retries),
                fallback=self._fallback_record, on_record=on_record,
                trace=trace if isinstance(trace, RunTrace) else None)
        if self.collapse == "audit":
            self._audit(done)
        return self.result([done[i] for i in indices])

    @property
    def checkpoints(self) -> JsonlCheckpoint:
        """The JSONL checkpoint format of this campaign's die records.

        The header carries the full campaign config (seed, corner,
        tiers, mismatch model, numerics and collapse policy): a record
        sampled under different parameters is a different die, and
        mixing them would corrupt every rate.
        """
        config = _config_dict(self.seed, self.corner.name,
                              self.tier_names, self.model,
                              self.strict_numerics, self.collapse)
        return JsonlCheckpoint(
            {"format": _CHECKPOINT_FORMAT, "version": ARTIFACT_VERSION,
             "config": config},
            DieRecord.from_dict, lambda rec: rec.die)

    def result(self, records: Sequence[DieRecord]) -> MCResult:
        """*records* (in die order) as this campaign's result."""
        return MCResult(records=list(records),
                        tier_order=self.tier_names, seed=self.seed,
                        corner=self.corner.name, model=self.model,
                        strict_numerics=self.strict_numerics,
                        collapse="off" if self.collapse == "off" else "on")

    def _audit(self, done: Mapping[int, DieRecord]) -> None:
        """Equivalence audit under variation (DESIGN.md §14): for a
        seeded sample of cleanly evaluated dies whose fault was
        substituted by a class representative, re-run the *actual*
        fault through every applicable tier on that die and fail
        loudly on any divergence from the recorded verdicts."""
        import random

        from ..faults.collapse import (AUDIT_FRACTION, AUDIT_SEED,
                                       CollapseAuditError)

        candidates = [die for die in sorted(done)
                      if done[die].outcome == "ok"
                      and self._rep_for(done[die].fault).key()
                      != done[die].fault.key()]
        if not candidates:
            return
        rng = random.Random(AUDIT_SEED)
        n = max(1, int(len(candidates) * AUDIT_FRACTION))
        sample = rng.sample(candidates, min(n, len(candidates)))
        with activated(self._ctx), \
                numerics_policy(strict=self.strict_numerics):
            for die in sample:
                rec = done[die]
                self._ctx.set_die(die)
                rep = self._rep_for(rec.fault)
                for tier in self._tiers:
                    if not tier.applies_to(rec.fault):
                        continue
                    COUNTERS.audit_checks += 1
                    recorded = rec.detected.get(tier.name, False)
                    try:
                        serial = bool(tier.detect(rec.fault))
                    except Exception as exc:  # noqa: BLE001 - strict
                        raise CollapseAuditError(
                            f"collapse audit: die {die}, tier "
                            f"{tier.name!r} raised {exc!r} for fault "
                            f"{rec.fault} (representative {rep}, "
                            f"recorded verdict {recorded})") from exc
                    if serial != recorded:
                        raise CollapseAuditError(
                            f"collapse audit mismatch: die {die}, tier "
                            f"{tier.name!r}, fault {rec.fault}: direct "
                            f"detect says {serial}, recorded verdict "
                            f"(via representative {rep}) says "
                            f"{recorded}")

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
