"""The scan tier for the analog blocks (Section II).

Three analog-facing procedures run when scan is enabled:

* **Probe test** — the grey probe flip-flops capture the driver side of
  the transmitter's series capacitors for both data values; a strong or
  tap driver fault flips a captured bit even though the (DC-open) caps
  hide it from the line comparators.
* **Toggle test** — the 100 MHz window comparator watches the receiver
  bias while a toggling pattern runs; a transmission-gate open that
  leaves the statics legal unbalances the arm time constants and the
  bias node glitches past the comparator window on every edge.
* **Receiver scan conditions** — with ``S_en`` the charge pump turns
  combinational and the window comparator is exercised at forced-mid,
  V_c = logic 1 and V_c = logic 0 (driven through the PD via Scan chain
  A in the real flow; here through the UP/DN control sources).

The purely digital scan content (chains A and B, ring counter preload,
switch-matrix continuity) lives in :mod:`repro.dft.digital_scan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional

import numpy as np

from ..analog import transient
from ..faults.collapse import stage_result, stored_stage_result
from ..faults.model import StructuralFault
from .duts import bench, digitize, link_static
from .golden import GoldenSignatures
from .registry import register_tier

#: window-comparator decision threshold for the toggle test [V]
#: (the measured lower trip point of the Fig 6 termination window
#: comparator; the healthy toggle excursion is ~2 mV after the
#: slew-symmetric driver sizing)
TOGGLE_THRESHOLD = 13e-3
#: the toggle test ignores the bias excursion before this time [s]
#: (the link's start-up settling, not a fault signature)
TOGGLE_MASK = 5e-9
#: the receiver scan conditions (Section II-B).  The PD can only assert
#: UP or DN (never both), so there is no contention condition — which is
#: precisely why a drain-source short in a current-source transistor is
#: masked during scan (the paper's Section III observation).
SCAN_CONDITIONS = (
    ("mid", dict(scan=True, force_mid=True)),
    ("up", dict(scan=True, up=1)),
    ("dn", dict(scan=True, dn=1)),
    ("up_st", dict(scan=True, up_st=1)),
    ("dn_st", dict(scan=True, dn_st=1)),
)


@register_tier("scan")
@dataclass
class ScanTest:
    """Scan tier detector with cached golden signatures."""

    goldens: GoldenSignatures = field(default_factory=GoldenSignatures)
    _golden_probe: Dict = field(default_factory=dict, repr=False)
    _golden_receiver: Dict = field(default_factory=dict, repr=False)

    name: ClassVar[str] = "scan"

    def __post_init__(self):
        # retention references come from the shared cache (the DC tier's
        # healthy operating points); touch them here so they are built
        # pre-fork even in campaigns without a DC tier.  The probe
        # golden comes from the link's golden solve pair.
        self._golden_probe = self.goldens.probe_link
        self.goldens.retention_receiver
        # the receiver stage stops at a decided verdict only once its
        # golden exists, so the golden build is a full pass
        self._golden_receiver = self.goldens.get(
            "scan.receiver", lambda: self._run_receiver(None))

    @property
    def golden(self) -> Dict[str, object]:
        """Healthy signatures: probe-FF captures, the receiver's scan-
        condition captures, and the toggle-test bias excursion.

        No verdict reads the excursion (every toggle compare is against
        the absolute :data:`TOGGLE_THRESHOLD`), so its full 25 ns pass
        runs on the first read of this property, not at construction.
        """
        return {"probe": self._golden_probe,
                "receiver": self._golden_receiver,
                "toggle": self.goldens.get(
                    "scan.toggle", lambda: self._run_toggle(None, full=True))}

    # ------------------------------------------------------------------
    def applies_to(self, fault: StructuralFault) -> bool:
        return fault.block in ("tx", "termination", "cp", "window_comp")

    def screen(self) -> bool:
        """Healthy-die screen: does a fault-free die pass the scan tier?

        Compares the die's probe captures and receiver scan conditions
        against the nominal goldens, and applies the toggle-test
        threshold the tester uses — the same compares ``detect`` runs,
        minus the fault injection.
        """
        if link_static(self.goldens, None)[1] != self._golden_probe:
            return False
        if self._run_receiver(None) != self._golden_receiver:
            return False
        return self._run_toggle(None) <= TOGGLE_THRESHOLD

    def detect(self, fault: StructuralFault) -> bool:
        if fault.block == "tx":
            # probe flip-flops first (static drivers), then the toggling
            # pattern: a weakened driver that still reads correctly at
            # DC cannot deliver its capacitive kick, and the 100 MHz
            # window comparator sees the unbalanced bias glitch
            if link_static(self.goldens, fault)[1] != self._golden_probe:
                return True
        if fault.block in ("tx", "termination"):
            excursion = stage_result(self.goldens, "toggle", fault, ("T",),
                                     self._run_toggle)
            return excursion > TOGGLE_THRESHOLD
        if fault.block in ("cp", "window_comp"):
            captured = stage_result(self.goldens, "rx_scan", fault, ("R",),
                                    self._run_receiver)
            return captured != self._golden_receiver
        return False

    # ------------------------------------------------------------------
    def _run_receiver(self, fault: Optional[StructuralFault]) -> Dict:
        """Window-comparator captures across the five scan conditions.

        Returns at the first condition whose capture differs from the
        golden: the captures already differ there, whatever the later
        conditions would read.  Building the golden (no golden yet)
        runs every condition.
        """
        dut = bench("R", self.goldens, fault)
        golden = self._golden_receiver
        out = {}
        for label, kw in SCAN_CONDITIONS:
            dut.set_condition(**kw)
            op = dut.solve()
            if not op.converged:
                out[label] = ("no_convergence",)
            else:
                out[label] = digitize(op, ("win_hi", "win_lo"))
            if golden and out[label] != golden[label]:
                break
        return out

    def _run_toggle(self, fault: Optional[StructuralFault],
                    full: bool = False) -> float:
        """Peak bias-node excursion during the 100 MHz toggle [V].

        The transient ends at the first sample after the settling mask
        whose excursion exceeds :data:`TOGGLE_THRESHOLD`: the peak is
        then over the threshold whatever the later samples read.
        ``full=True`` (the golden's own pass) integrates the whole run.
        When the run's memo already holds the ``link_static`` stage
        (a DC tier or a screen solved this link), the transient starts
        from its data = 0 solve, the t = 0 operating point of the same
        netlist; otherwise it solves that point itself, one solve where
        the link stage would take two.
        """
        dut = bench("T", self.goldens, fault)
        link = stored_stage_result(self.goldens, "link_static", fault,
                                   ("L",))
        x0 = None if link is None else link[2][1].x
        stop = None
        if not full:
            def stop(t, v):
                return t > TOGGLE_MASK and abs(v[0] - v[1]) > TOGGLE_THRESHOLD
        tr = transient(dut.circuit, 25e-9, 0.1e-9,
                       probes=[dut.vcm_node, dut.ref_node], x0=x0, stop=stop)
        mask = tr.time > TOGGLE_MASK
        return float(np.abs(tr.vdiff(dut.vcm_node, dut.ref_node))[mask].max())
