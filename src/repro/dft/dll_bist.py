"""Stand-alone all-digital DLL BIST (the paper's deferred integration).

Section III: "The DLL in the receiver is not tested completely by this
BIST.  This DLL can be treated as a stand-alone unit and using the
techniques reported in [11], [12] a complete test of the DLL can be
integrated with the interconnect test."  This module implements that
integration as an extension: a purely digital phase-spacing BIST in the
spirit of Sunter & Roy [12].

Principle: select each DLL tap in turn and, against a reference clock
running at a slightly offset frequency, count how many reference periods
elapse before the tap edge and the reference edge coincide (a digital
vernier).  For an ideal N-phase DLL the coincidence counts of adjacent
taps differ by a constant; a tap with a delay defect breaks the
arithmetic progression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..faults.model import StructuralFault
from ..link.params import LinkParams
from .golden import GoldenSignatures
from .registry import register_tier

#: vernier resolution: the reference clock is offset by 1/VERNIER_RATIO
VERNIER_RATIO = 64
#: tap spacing tolerance as a fraction of the nominal step
SPACING_TOL = 0.25


@dataclass
class DLLModel:
    """A DLL with per-tap phase errors (the unit under BIST)."""

    params: LinkParams = field(default_factory=LinkParams)
    #: per-tap additive phase error [s]
    tap_errors: Dict[int, float] = field(default_factory=dict)
    #: taps that produce no edge at all
    dead_taps: List[int] = field(default_factory=list)

    def tap_phase(self, index: int) -> Optional[float]:
        if index in self.dead_taps:
            return None
        nominal = (index % self.params.n_phases) * self.params.phase_step
        return nominal + self.tap_errors.get(index, 0.0)


@dataclass
class DLLBistResult:
    """Outcome of the digital DLL BIST."""

    counts: List[Optional[int]]
    passed: bool
    failing_taps: List[int]


def vernier_count(phase: Optional[float], bit_time: float) -> Optional[int]:
    """Coincidence count of a tap at *phase* against the vernier clock.

    The reference runs at ``T_ref = T * (1 + 1/VERNIER_RATIO)``; each
    reference period gains ``T/VERNIER_RATIO`` on the tap, so the count
    until coincidence quantises the tap phase to that resolution.
    """
    if phase is None:
        return None
    step = bit_time / VERNIER_RATIO
    return int(round((phase % bit_time) / step))


def run_dll_bist(dll: DLLModel) -> DLLBistResult:
    """Measure every tap and check the spacing arithmetic progression."""
    p = dll.params
    counts = [vernier_count(dll.tap_phase(k), p.bit_time)
              for k in range(p.n_phases)]

    nominal_step_counts = VERNIER_RATIO / p.n_phases
    failing: List[int] = []
    for k in range(p.n_phases):
        if counts[k] is None:
            failing.append(k)
            continue
        nxt = (k + 1) % p.n_phases
        if counts[nxt] is None:
            continue
        diff = (counts[nxt] - counts[k]) % VERNIER_RATIO
        if abs(diff - nominal_step_counts) > SPACING_TOL * nominal_step_counts:
            failing.append(k)
    return DLLBistResult(counts=counts, passed=not failing,
                         failing_taps=sorted(set(failing)))


def healthy_dll() -> DLLModel:
    """A defect-free DLL under the paper's operating point."""
    return DLLModel()


def dll_with_tap_defect(tap: int, error_fraction: float = 0.5) -> DLLModel:
    """A DLL whose *tap* is late by *error_fraction* of a phase step."""
    p = LinkParams()
    return DLLModel(tap_errors={tap: error_fraction * p.phase_step})


def dll_with_dead_tap(tap: int) -> DLLModel:
    """A DLL whose *tap* produces no edge at all."""
    return DLLModel(dead_taps=[tap])


#: block tag :class:`DLLBistTier` claims in a structural fault universe
DLL_BLOCK = "dll"


def dll_for_fault(fault: StructuralFault) -> Optional[DLLModel]:
    """Build the DLL defect model a structural fault maps onto.

    The trailing integer in the device name selects the tap (e.g.
    ``"vcdl_stage3"`` -> tap 3).  Opens kill the tap's edge entirely;
    shorts load the stage and shift the tap late by half a phase step.
    Returns None when the device name carries no tap index — such a
    fault cannot be projected onto the tap-spacing model.
    """
    match = re.search(r"(\d+)$", fault.device)
    if match is None:
        return None
    tap = int(match.group(1)) % LinkParams().n_phases
    if fault.kind.is_open:
        return dll_with_dead_tap(tap)
    return dll_with_tap_defect(tap)


@register_tier("dll_bist")
class DLLBistTier:
    """The stand-alone digital DLL BIST as a registrable test tier.

    Makes the paper's deferred DLL integration (Section III) a campaign
    stage: a structural fault tagged ``block="dll"`` is projected onto
    the vernier tap-spacing model (see :func:`dll_for_fault`) and the
    BIST's pass/fail verdict scores the fault.  The tier takes no
    stimulus pattern (``dll_bist@isi`` is refused): the vernier measures
    tap spacing against a reference clock and no data traverses the
    link, so no stimulus could change its verdict.
    """

    name = "dll_bist"

    def __init__(self, goldens: Optional[GoldenSignatures] = None):
        goldens = goldens if goldens is not None else GoldenSignatures()
        self._golden_counts = goldens.get(
            "dll_bist_counts",
            lambda: tuple(run_dll_bist(healthy_dll()).counts))

    @property
    def golden(self) -> Mapping[str, object]:
        """Healthy vernier coincidence counts, one per DLL tap."""
        return {"counts": self._golden_counts}

    def applies_to(self, fault: StructuralFault) -> bool:
        return fault.block == DLL_BLOCK

    def detect(self, fault: StructuralFault) -> bool:
        dll = dll_for_fault(fault)
        if dll is None:
            return False
        return not run_dll_bist(dll).passed
