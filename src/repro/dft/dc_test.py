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
from typing import ClassVar, Dict, Iterable, Tuple

from ..circuits.full_link import FullLinkPorts, build_full_link
from ..faults.inject import inject_fault
from ..faults.model import StructuralFault
from .duts import build_receiver_dut
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
        compare threshold — the DC tier's yield-loss contribution.
        """
        link = build_full_link()
        if link.run_dc_test() != self.goldens.dc_link:
            return False
        dut = build_receiver_dut()
        dut.set_condition()
        op = dut.solve()
        if not op.converged:
            return False
        return dut.observe(op) == self.goldens.dc_receiver

    def retention_for(self, fault: StructuralFault) -> Dict[str, float]:
        if fault.block in LINK_BLOCKS:
            return self.goldens.retention_link
        return self.goldens.retention_receiver

    def detect(self, fault: StructuralFault) -> bool:
        """Run the DC tier against *fault*; True when detected."""
        if fault.block in LINK_BLOCKS:
            link = build_full_link()
            faulted = inject_fault(link.circuit, fault,
                                   retention=self.goldens.retention_link)
            dut = FullLinkPorts(
                circuit=faulted, data_source_name=link.data_source_name,
                datab_source_name=link.datab_source_name, tx=link.tx,
                term=link.term, vdd=link.vdd)
            return dut.run_dc_test() != self.goldens.dc_link

        if fault.block in RECEIVER_BLOCKS:
            return self._observe_receiver(fault) != self.goldens.dc_receiver

        return False

    def _observe_receiver(self, fault: StructuralFault) -> Dict[str, int]:
        """Quiescent receiver observation of the faulted bench."""
        dut = build_receiver_dut()
        dut.circuit = inject_fault(
            dut.circuit, fault, retention=self.goldens.retention_receiver)
        dut.set_condition()
        return dut.observe(dut.solve())

    # ------------------------------------------------------------------
    def detect_collapsed(self, faults: Iterable[StructuralFault],
                         collapser, memo=None
                         ) -> Tuple[Dict[Tuple, bool], Dict[Tuple, Tuple]]:
        """One-representative-per-class :meth:`detect` (DESIGN.md §14).

        Groups *faults* by structural DC-tier signature, executes each
        sub-stage once per distinct digest (results land in the shared
        cross-tier *memo* — the link stage also carries the scan tier's
        probe capture), and expands the verdict to every member.
        Returns ``(resolved, provenance)``; provenance maps a member's
        key to its representative's.  Groups whose stage raised stay
        unresolved, so the serial detector reproduces exact error
        records per member.
        """
        from .collapsed import (consume, expand, group_by_signature,
                                run_link_static, stage_exec)

        memo = {} if memo is None else memo
        resolved: Dict[Tuple, bool] = {}
        provenance: Dict[Tuple, Tuple] = {}
        groups = group_by_signature(faults, collapser, self.name)
        link_groups = {s: m for s, m in groups.items() if s[0] == "L"}
        rx_groups = {s: m for s, m in groups.items() if s[0] == "R"}

        fresh = stage_exec(
            memo,
            {("link_static", s[1]): m[0] for s, m in link_groups.items()},
            lambda rep: run_link_static(self.goldens, rep))
        for sig, members in link_groups.items():
            key = ("link_static", sig[1])
            entry = memo[key]
            if isinstance(entry, Exception):
                continue
            consume(fresh, key, len(members))
            dc_sig, _probe = entry
            expand(resolved, provenance, members,
                   dc_sig != self.goldens.dc_link)

        fresh = stage_exec(
            memo, {("rx_dc", s[1]): m[0] for s, m in rx_groups.items()},
            self._observe_receiver)
        for sig, members in rx_groups.items():
            key = ("rx_dc", sig[1])
            entry = memo[key]
            if isinstance(entry, Exception):
                continue
            consume(fresh, key, len(members))
            expand(resolved, provenance, members,
                   entry != self.goldens.dc_receiver)

        return resolved, provenance
