"""Coverage accounting: the paper's headline numbers and Table I.

:func:`build_fault_universe` enumerates the structural fault universe of
the mission analog blocks; :func:`run_paper_campaign` wires the DC, scan
and BIST detectors into a :class:`~repro.faults.campaign.FaultCampaign`
and runs the lot.  :class:`CoverageReport` formats the results against
the paper's reported values (50.4% / 74.3% / 94.8%, Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..circuits.full_link import build_full_link
from ..faults.campaign import CampaignResult, FaultCampaign
from ..faults.enumerate import faults_for_caps, faults_for_devices
from ..faults.model import StructuralFault
from .duts import build_receiver_dut, build_vcdl_dut
from .golden import GoldenSignatures
from .registry import create_tiers

#: the paper's reported coverage figures
PAPER_DC = 0.504
PAPER_SCAN = 0.743
PAPER_BIST = 0.948
PAPER_TABLE1 = {
    "Gate open": 0.878,
    "Drain open": 0.939,
    "Source open": 0.939,
    "Gate drain short": 0.939,
    "Gate source short": 1.000,
    "Drain source short": 1.000,
    "Capacitor short": 1.000,
}


def build_fault_universe() -> List[StructuralFault]:
    """Enumerate the mission analog fault universe (all blocks)."""
    faults: List[StructuralFault] = []

    link = build_full_link()
    faults += faults_for_devices(link.tx.mission_devices, "tx")
    faults += faults_for_caps(link.tx.mission_caps, "tx")
    faults += faults_for_devices(link.term.mission_devices, "termination")

    dut = build_receiver_dut()
    faults += faults_for_devices(dut.cp.mission_devices, "cp")
    faults += faults_for_caps(dut.cp.mission_caps, "cp")
    win_devices = [e for e in dut.circuit
                   if getattr(e, "role", "") == "window_comp"]
    faults += faults_for_devices(win_devices, "window_comp")

    vcdl = build_vcdl_dut()
    faults += faults_for_devices(vcdl.ports.mission_devices, "vcdl")
    return faults


@dataclass
class CoverageReport:
    """Measured-vs-paper coverage summary."""

    result: CampaignResult

    @property
    def dc(self) -> float:
        return self.result.cumulative_coverage("dc")

    @property
    def scan(self) -> float:
        return self.result.cumulative_coverage("scan")

    @property
    def bist(self) -> float:
        return self.result.cumulative_coverage("bist")

    def headline_rows(self) -> List[Tuple[str, float, float]]:
        """(tier, measured, paper) rows for the Section IV numbers."""
        return [
            ("DC test", self.dc, PAPER_DC),
            ("DC + scan", self.scan, PAPER_SCAN),
            ("DC + scan + BIST", self.bist, PAPER_BIST),
        ]

    def table1_rows(self) -> List[Tuple[str, int, int,
                                        Optional[float], float]]:
        """Table I rows: (defect, detected, total, measured, paper).

        A kind with zero faults in the universe has no measurable
        coverage — its measured entry is None (rendered ``n/a``), not a
        flattering 100%.
        """
        by_kind = self.result.coverage_by_kind()
        rows = []
        for label, paper in PAPER_TABLE1.items():
            detected, total, cov = by_kind.get(label, (0, 0, None))
            rows.append((label, detected, total, cov, paper))
        rows.append(("Total", sum(r[1] for r in rows),
                     sum(r[2] for r in rows),
                     self.bist, PAPER_BIST))
        return rows

    def format_table1(self) -> str:
        lines = [f"{'Defect':<22}{'Measured':>10}{'Paper':>8}"]
        for label, det, tot, cov, paper in self.table1_rows():
            measured = "n/a" if cov is None else f"{cov * 100:.1f}%"
            lines.append(
                f"{label:<22}{measured:>10}{paper * 100:>7.1f}%"
                f"   ({det}/{tot})")
        return "\n".join(lines)

    def format_headline(self) -> str:
        lines = [f"{'Test tier':<20}{'Measured':>10}{'Paper':>8}"]
        for tier, measured, paper in self.headline_rows():
            lines.append(f"{tier:<20}{measured * 100:>9.1f}%{paper * 100:>7.1f}%")
        counts = self.result.outcome_counts()
        unsolvable = counts.get("unsolvable", 0)
        if unsolvable:
            # solver-quality line: numerics failures are not crashes
            lines.append(f"  numerics: {unsolvable} fault(s) unsolvable "
                         f"(resilience ladder exhausted) — unreached "
                         f"tiers counted undetected")
        abnormal = {k: v for k, v in counts.items()
                    if k not in ("ok", "unsolvable")}
        if abnormal:
            body = ", ".join(f"{v} {k}"
                             for k, v in sorted(abnormal.items()))
            lines.append(f"  supervisor: {body} fault(s) counted "
                         f"undetected (see records' errors)")
        return "\n".join(lines)


def run_paper_campaign(universe: Optional[List[StructuralFault]] = None,
                       progress: Optional[Callable[[int, int], None]] = None,
                       workers: Optional[int] = None,
                       checkpoint: Optional[str] = None,
                       timeout: Optional[float] = None,
                       max_retries: int = 1,
                       trace: Optional[str] = None,
                       collapse: str = "off") -> CoverageReport:
    """Run the complete three-tier campaign over the fault universe.

    ``workers`` > 1 fans the universe out over supervised forked worker
    processes (see :meth:`repro.faults.campaign.FaultCampaign.run`);
    the tiers and their shared golden signatures are built once, before
    the fork, so every worker inherits them for free.  ``checkpoint``
    names a JSONL file to stream completed records into (and resume
    from); ``timeout``/``max_retries``/``trace`` configure the
    supervision layer.  ``collapse`` enables fault-universe compression
    (one simulated representative per structural equivalence class,
    DESIGN.md §14); ``"audit"`` additionally re-checks a seeded member
    sample serially.
    """
    if universe is None:
        universe = build_fault_universe()

    campaign = FaultCampaign(collapse=collapse)
    for tier in create_tiers(("dc", "scan", "bist"), GoldenSignatures()):
        campaign.add_tier(tier)
    result = campaign.run(universe, progress=progress, workers=workers,
                          checkpoint=checkpoint, timeout=timeout,
                          max_retries=max_retries, trace=trace)
    return CoverageReport(result=result)
