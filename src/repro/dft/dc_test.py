"""The paper's DC test: two static patterns plus the quiescent receiver.

Section IV: "two DC tests with the interconnect input at logic 1 and
logic 0 respectively can detect 50.4% of the structural faults".  The
test powers the whole link, holds the data static, and observes every
on-chip test comparator:

* the termination's offset comparators and bias window comparator
  (:mod:`repro.circuits.full_link` observables), for both data values;
* the receiver's quiescent signature — with the PD quiet the charge pump
  idles at a deterministic mid-rail state, and the coarse-loop window
  comparator plus the CP-BIST comparator report an in-window "0000".

A fault is DC-detected when any observed bit differs from the fault-free
signature (non-convergence of the faulted operating point also counts:
on a tester it shows as an out-of-spec supply current).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional

from ..faults.collapse import stage_result
from ..faults.model import StructuralFault
from .duts import bench, link_static
from .golden import GoldenSignatures
from .registry import register_tier

#: blocks whose faults the full-link netlist contains
LINK_BLOCKS = ("tx", "termination")
#: blocks whose faults the receiver bench contains
RECEIVER_BLOCKS = ("cp", "window_comp")


@register_tier("dc")
@dataclass
class DCTest:
    """DC tier detector over the shared golden-signature cache."""

    goldens: GoldenSignatures = field(default_factory=GoldenSignatures)

    name: ClassVar[str] = "dc"

    def __post_init__(self):
        # populate the shared cache now, not at first detect: campaigns
        # build their tiers before forking workers, so the healthy
        # solves happen exactly once in the parent process
        self.goldens.dc_link
        self.goldens.dc_receiver

    @property
    def golden(self) -> Dict[str, object]:
        """Healthy signatures: the full-link two-pattern DC observation
        and the quiescent receiver observation."""
        return {"link": self.goldens.dc_link,
                "receiver": self.goldens.dc_receiver}

    # ------------------------------------------------------------------
    def applies_to(self, fault: StructuralFault) -> bool:
        return fault.block in LINK_BLOCKS + RECEIVER_BLOCKS

    def screen(self) -> bool:
        """Healthy-die screen: does a fault-free die pass the DC tier?

        The golden signatures are the *nominal* design's (the tester's
        programmed expectations); under an active die context the
        builders hand back variation-shifted netlists, so a die fails
        this screen exactly when mismatch pushes a DC observable past a
        compare threshold — the DC tier's yield-loss contribution.  The
        link observation is the healthy ``link_static`` stage, which the
        scan screen shares.
        """
        return (link_static(self.goldens, None)[0] == self.goldens.dc_link
                and self._observe_receiver(None) == self.goldens.dc_receiver)

    def detect(self, fault: StructuralFault) -> bool:
        """Run the DC tier against *fault*; True when detected.

        The link observation is the ``link_static`` stage the scan
        tier's probe capture shares (one solve per data bit serves
        both tiers within a run).
        """
        if fault.block in LINK_BLOCKS:
            return link_static(self.goldens, fault)[0] != self.goldens.dc_link

        if fault.block in RECEIVER_BLOCKS:
            observed = stage_result(self.goldens, "rx_dc", fault, ("R",),
                                    self._observe_receiver)
            return observed != self.goldens.dc_receiver

        return False

    def _observe_receiver(self, fault: Optional[StructuralFault]
                          ) -> Dict[str, int]:
        """Quiescent receiver observation of the (faulted) bench; a
        bench that does not converge reads ``converged`` 0."""
        dut = bench("R", self.goldens, fault)
        dut.set_condition()
        return dut.observe(dut.solve())
