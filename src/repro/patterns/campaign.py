"""Coverage-vs-pattern and BER-vs-pattern-length campaigns.

The tentpole question this layer answers: *which fault classes does
each stimulus class buy you?*  The paper's BIST runs one stimulus
("random data at speed"); here the at-speed stage is swept over the
registered pattern classes and scored per class.

Shape: one :class:`~repro.faults.campaign.FaultCampaign` carries a
single pattern-independent ``static`` tier (receiver checks + VCDL
aliveness, run once per fault) plus one ``at_speed@<pattern>`` tier
per stimulus, each a stage method of a shared-golden
:class:`~repro.dft.bist.BISTTest` instance.  The run's stage memo
(DESIGN.md §14) measures each pattern-independent characterisation once
per structural class and each lock verdict once per class and
stimulus.  Campaign records are assembled in universe order by the
supervised runner, so the exported JSON is byte-identical across
``--workers`` counts — the pattern-parity CI smoke pins that.

The BER sweep runs the healthy behavioural loop under each stimulus
with a :class:`~repro.patterns.checker.PatternChecker` attached and
reports the measured bit-error ratio, sectors in error, lock time and
the (stimulus-scaled) 2 us budget verdict per pattern length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dft.bist import (BISTTest, LOCK_BUDGET, LOCK_TEST_CYCLES,
                        LOCK_TEST_PHASE)
from ..dft.golden import GoldenSignatures
from ..faults.campaign import CampaignResult, FaultCampaign
from ..faults.model import StructuralFault
from ..link.params import LinkParams
from ..synchronizer.loop import SynchronizerLoop
from . import sources as _sources
from .checker import PatternChecker
from .sources import PATTERN_NAMES, build_stimulus

#: default stimulus sweep: one member of each pattern class (PRBS,
#: scrambler, ISI template, crosstalk aggressor) plus a longer PRBS
DEFAULT_CAMPAIGN_PATTERNS: Tuple[str, ...] = (
    "prbs7", "prbs15", "scrambler", "isi", "aggressor")

#: the campaign's pattern-independent first tier
STATIC_TIER = "static"


def at_speed_tier(pattern: str) -> str:
    """Campaign tier name of a stimulus' at-speed stage."""
    return f"at_speed@{pattern}"


def check_pattern_sweep(patterns: Sequence[str]) -> None:
    """Refuse an empty sweep or a repeated stimulus (ValueError) and an
    unknown one (KeyError)."""
    if not patterns:
        raise ValueError("empty pattern sweep")
    for p in patterns:
        if p not in PATTERN_NAMES:
            raise KeyError(f"unknown pattern {p!r}; choices: "
                           f"{', '.join(PATTERN_NAMES)}")
    if len(set(patterns)) != len(patterns):
        raise ValueError("duplicate pattern in sweep")


def fault_class(fault: StructuralFault) -> str:
    """The reporting granularity: block plus Table-I defect kind."""
    return f"{fault.block}/{fault.kind.table_label}"


def bist_universe() -> List[StructuralFault]:
    """The BIST-applicable slice of the paper's fault universe."""
    from ..dft.coverage import build_fault_universe

    return [f for f in build_fault_universe()
            if f.block in ("cp", "window_comp", "vcdl")]


def healthy_lock_summary(pattern: str) -> Dict[str, object]:
    """Healthy-die lock behaviour under *pattern* from both worst-case
    startup phases, against the stimulus-scaled 2 us budget."""
    probe, _ = build_stimulus(pattern)
    scale = float(getattr(probe, "lock_budget_scale", 1.0))
    budget = LOCK_BUDGET * scale
    phases: Dict[str, Dict[str, object]] = {}
    for phase in (LOCK_TEST_PHASE, LOCK_TEST_PHASE + 1):
        source, aggressor = build_stimulus(pattern)
        params = LinkParams(initial_phase_index=phase)
        loop = SynchronizerLoop(params=params, source=source,
                                aggressor=aggressor)
        # full length and untraced: the summary reports counts
        result = loop.run(max_cycles=int(LOCK_TEST_CYCLES * scale),
                          record_every=0)
        phases[str(phase)] = {
            "locked": bool(result.locked),
            "lock_time_s": result.lock_time,
            "within_budget": bool(result.locked
                                  and result.lock_time is not None
                                  and result.lock_time <= budget),
            "coarse_corrections": int(result.coarse_corrections),
            "errors_after_lock": int(result.errors_after_lock),
        }
    return {"budget_s": budget, "lock_budget_scale": scale,
            "phases": phases}


def sampled_universe(universe: Sequence[StructuralFault],
                     sample: Optional[int]) -> List[StructuralFault]:
    """Deterministic subsample shared by :meth:`PatternCampaign.run`
    and the service layer's sharder — one rule, so a sharded service
    run sees exactly the faults an unsharded ``--sample`` run sees.
    ``None`` or 0 keeps the whole universe; a negative size is a
    ``ValueError``."""
    import random

    if sample is not None and sample < 0:
        raise ValueError(f"sample must be >= 0, got {sample}")
    universe = list(universe)
    if sample and sample < len(universe):
        picks = sorted(random.Random(0).sample(range(len(universe)),
                                               sample))
        universe = [universe[i] for i in picks]
    return universe


@dataclass
class PatternCampaignResult:
    """Per-pattern detection sets over one shared fault universe."""

    result: CampaignResult
    patterns: Tuple[str, ...]
    lock_summary: Dict[str, Dict] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.result.total

    def static_detected(self) -> Set[StructuralFault]:
        """Faults the pattern-independent stages alone catch."""
        return self.result.detected_by(STATIC_TIER)

    def at_speed_detected(self, pattern: str) -> Set[StructuralFault]:
        """Faults *pattern*'s at-speed stage catches."""
        return self.result.detected_by(at_speed_tier(pattern))

    def detected(self, pattern: str) -> Set[StructuralFault]:
        """Full-tier detections under *pattern* (static + at speed)."""
        return self.static_detected() | self.at_speed_detected(pattern)

    def coverage(self, pattern: str) -> float:
        if self.total == 0:
            return 1.0
        return len(self.detected(pattern)) / self.total

    def at_speed_classes(self, pattern: str) -> List[str]:
        """Fault classes with at least one at-speed detection."""
        return sorted({fault_class(f)
                       for f in self.at_speed_detected(pattern)})

    def unique_at_speed_classes(self) -> Dict[str, List[str]]:
        """pattern -> classes only that stimulus detects at speed."""
        per = {p: set(self.at_speed_classes(p)) for p in self.patterns}
        out: Dict[str, List[str]] = {}
        for p in self.patterns:
            others: Set[str] = set()
            for q in self.patterns:
                if q != p:
                    others |= per[q]
            out[p] = sorted(per[p] - others)
        return out

    def classes_beyond_prbs7(self, pattern: str) -> List[str]:
        """Classes *pattern* detects at speed that PRBS7 misses."""
        base = set(self.at_speed_classes("prbs7")) \
            if "prbs7" in self.patterns else set()
        return sorted(set(self.at_speed_classes(pattern)) - base)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        unique = self.unique_at_speed_classes()
        per_pattern = {}
        for p in self.patterns:
            per_pattern[p] = {
                "coverage": self.coverage(p),
                "at_speed_detected": len(self.at_speed_detected(p)),
                "at_speed_classes": self.at_speed_classes(p),
                "unique_classes": unique[p],
                "classes_beyond_prbs7": self.classes_beyond_prbs7(p),
                "lock": self.lock_summary.get(p, {}),
            }
        faults = {}
        for rec in self.result.records:
            faults[":".join(rec.fault.key())] = {
                "detected_by": sorted(t for t in rec.tiers if rec.tiers[t]),
                "outcome": rec.outcome,
            }
        return {
            "patterns": list(self.patterns),
            "total_faults": self.total,
            "static_detected": len(self.static_detected()),
            "per_pattern": per_pattern,
            "faults": faults,
        }

    def to_json(self) -> str:
        """Deterministic export (the worker-parity compare target)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class PatternCampaign:
    """Coverage-vs-pattern campaign over the BIST fault universe."""

    def __init__(self, patterns: Optional[Sequence[str]] = None,
                 goldens: Optional[GoldenSignatures] = None):
        self.patterns = tuple(patterns if patterns is not None
                              else DEFAULT_CAMPAIGN_PATTERNS)
        check_pattern_sweep(self.patterns)
        goldens = goldens if goldens is not None else GoldenSignatures()
        # one BISTTest per stimulus over one golden cache
        self.tiers: Dict[str, BISTTest] = {
            p: BISTTest(goldens, pattern=p) for p in self.patterns}

    def build(self) -> FaultCampaign:
        """The underlying fault campaign: static tier + one at-speed
        tier per stimulus (forked workers inherit the shared goldens
        without re-solving)."""
        campaign = FaultCampaign()
        first = self.tiers[self.patterns[0]]
        campaign.add_tier(STATIC_TIER, first.static_detect,
                          first.applies_to)
        for p in self.patterns:
            tier = self.tiers[p]
            campaign.add_tier(at_speed_tier(p), tier.at_speed_detect,
                              tier.applies_to)
        return campaign

    def run(self, universe: Optional[Sequence[StructuralFault]] = None,
            workers: Optional[int] = None,
            sample: Optional[int] = None,
            checkpoint: Optional[str] = None,
            timeout: Optional[float] = None,
            progress=None) -> PatternCampaignResult:
        """Run the sweep; ``sample`` keeps a deterministic subset of the
        universe (identical for every worker count).  ``workers`` as in
        :meth:`~repro.faults.campaign.FaultCampaign.run`: one per CPU
        this process may use by default."""
        if universe is None:
            universe = bist_universe()
        universe = sampled_universe(universe, sample)
        return self.result(self.build().run(
            universe, workers=workers, checkpoint=checkpoint,
            timeout=timeout, progress=progress))

    def result(self, result: CampaignResult) -> PatternCampaignResult:
        """The sweep's result from its fault campaign's, with each
        stimulus' healthy lock summary."""
        lock = {p: healthy_lock_summary(p) for p in self.patterns}
        return PatternCampaignResult(result=result, patterns=self.patterns,
                                     lock_summary=lock)


# ----------------------------------------------------------------------
# BER vs pattern length
# ----------------------------------------------------------------------
@dataclass
class BERSweepPoint:
    """One stimulus' healthy-loop checker tally and lock verdict."""

    pattern: str
    length_bits: int
    cycles: int
    bits: int
    errors: int
    ber: float
    sectors_in_error: int
    locked: bool
    lock_time_s: Optional[float]
    budget_s: float
    within_budget: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern,
            "length_bits": self.length_bits,
            "cycles": self.cycles,
            "bits": self.bits,
            "errors": self.errors,
            "ber": self.ber,
            "sectors_in_error": self.sectors_in_error,
            "locked": self.locked,
            "lock_time_s": self.lock_time_s,
            "budget_s": self.budget_s,
            "within_budget": self.within_budget,
        }


def ber_vs_length_sweep(orders: Sequence[int] = (7, 15, 23, 31),
                        run_lengths: Sequence[int] = (4, 9, 14),
                        cycles: int = LOCK_TEST_CYCLES,
                        phase: int = LOCK_TEST_PHASE
                        ) -> List[BERSweepPoint]:
    """BER / lock-time of the healthy loop vs stimulus length.

    Sweeps the PRBS orders (length ``2^n - 1``), the scrambler
    keystream, the ISI templates at several run lengths, and the
    crosstalk-aggressor stimulus, each with a checker FSM attached.
    The measured BER counts the acquisition-phase sampling errors too —
    what a tester integrating over the whole test window sees — and the
    budget column applies each stimulus' scaled lock budget.
    """
    entries: List[Tuple[str, object, object, object]] = []
    for order in orders:
        entries.append((f"prbs{order}",
                        _sources.PRBSSource(order),
                        _sources.PRBSSource(order), None))
    entries.append(("scrambler", _sources.ScramblerSource(),
                    _sources.ScramblerSource(), None))
    for k in run_lengths:
        entries.append((f"isi{k}" if k != _sources.ISI_RUN_LENGTH
                        else "isi",
                        _sources.ISISource(k), _sources.ISISource(k),
                        None))
    tx = _sources.AggressorSource()
    entries.append(("aggressor", tx, _sources.AggressorSource(),
                    tx.aggressor))

    points: List[BERSweepPoint] = []
    for name, source, reference, aggressor in entries:
        scale = float(getattr(source, "lock_budget_scale", 1.0))
        budget = LOCK_BUDGET * scale
        n_cycles = int(cycles * scale)
        checker = PatternChecker(reference)
        checker.start()
        params = LinkParams(initial_phase_index=phase)
        loop = SynchronizerLoop(params=params, source=source,
                                aggressor=aggressor, checker=checker)
        result = loop.run(max_cycles=n_cycles)
        report = checker.tally()
        points.append(BERSweepPoint(
            pattern=name,
            length_bits=int(getattr(source, "period", 0)),
            cycles=n_cycles,
            bits=report.bits,
            errors=report.errors,
            ber=report.ber,
            sectors_in_error=report.sectors_in_error,
            locked=bool(result.locked),
            lock_time_s=result.lock_time,
            budget_s=budget,
            within_budget=bool(result.locked
                               and result.lock_time is not None
                               and result.lock_time <= budget)))
    return points
