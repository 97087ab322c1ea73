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
from typing import ClassVar, Dict, Iterable, Optional, Tuple

import numpy as np

from ..analog import dc_operating_point, transient
from ..faults.inject import inject_fault
from ..faults.model import StructuralFault
from .duts import build_receiver_dut, build_toggle_dut
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


def _digitize(op, nodes, vdd=1.2) -> Tuple:
    return tuple(1 if op.v(n) > vdd / 2 else 0 for n in nodes)


@register_tier("scan")
@dataclass
class ScanTest:
    """Scan tier detector with cached golden signatures."""

    goldens: GoldenSignatures = field(default_factory=GoldenSignatures)
    _golden_probe: Dict = field(default_factory=dict, repr=False)
    _golden_receiver: Dict = field(default_factory=dict, repr=False)
    _golden_toggle: Optional[float] = field(default=None, repr=False)

    name: ClassVar[str] = "scan"

    #: probe-FF observation nodes in the full-link netlist
    PROBE_NODES = ("tx_p_drv", "tx_p_tap", "tx_n_drv", "tx_n_tap")

    def __post_init__(self):
        # retention references come from the shared cache (the DC tier's
        # healthy operating points); touch them here so they are built
        # pre-fork even in campaigns without a DC tier
        self.goldens.retention_link
        self.goldens.retention_receiver
        # the stages stop at a decided verdict only once the goldens
        # exist, so each golden below is a full pass
        self._golden_probe = self._run_probe(None)
        self._golden_receiver = self._run_receiver(None)
        self._golden_toggle = self._run_toggle(None)

    @property
    def golden(self) -> Dict[str, object]:
        """Healthy signatures: probe-FF captures, the receiver's scan-
        condition captures, and the toggle-test bias excursion."""
        return {"probe": self._golden_probe,
                "receiver": self._golden_receiver,
                "toggle": self._golden_toggle}

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
        if self._run_probe(None) != self._golden_probe:
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
            if self._run_probe(fault) != self._golden_probe:
                return True
            return self._run_toggle(fault) > TOGGLE_THRESHOLD
        if fault.block == "termination":
            exc = self._run_toggle(fault)
            return exc > TOGGLE_THRESHOLD
        if fault.block in ("cp", "window_comp"):
            return self._run_receiver(fault) != self._golden_receiver
        return False

    # ------------------------------------------------------------------
    def detect_collapsed(self, faults: Iterable[StructuralFault],
                         collapser, memo=None
                         ) -> Tuple[Dict[Tuple, bool], Dict[Tuple, Tuple]]:
        """One-representative-per-class :meth:`detect`; see
        DCTest.detect_collapsed for the memo/provenance contract.

        The probe stage consumes the same ``link_static`` memo entries
        the DC tier fills — one solve pair serves both tiers — and the
        toggle stage runs only for classes whose probe capture matched
        golden, mirroring the serial short-circuit.
        """
        from .collapsed import (consume, expand, group_by_signature,
                                run_link_static, stage_exec)

        memo = {} if memo is None else memo
        resolved: Dict[Tuple, bool] = {}
        provenance: Dict[Tuple, Tuple] = {}
        groups = group_by_signature(faults, collapser, self.name)
        tx_groups = {s: m for s, m in groups.items() if s[0] == "L"}
        term_groups = {s: m for s, m in groups.items() if s[0] == "T"}
        rx_groups = {s: m for s, m in groups.items() if s[0] == "R"}

        fresh = stage_exec(
            memo,
            {("link_static", s[1]): m[0] for s, m in tx_groups.items()},
            lambda rep: run_link_static(self.goldens, rep))
        toggle_need: Dict[Tuple, StructuralFault] = {}
        toggle_groups = []
        for sig, members in tx_groups.items():
            key = ("link_static", sig[1])
            entry = memo[key]
            if isinstance(entry, Exception):
                continue
            consume(fresh, key, len(members))
            _dc_sig, probe = entry
            if probe != self._golden_probe:
                expand(resolved, provenance, members, True)
            else:
                tkey = ("toggle", sig[3])
                toggle_need.setdefault(tkey, members[0])
                toggle_groups.append((tkey, members))
        for sig, members in term_groups.items():
            tkey = ("toggle", sig[1])
            toggle_need.setdefault(tkey, members[0])
            toggle_groups.append((tkey, members))

        fresh = stage_exec(memo, toggle_need, self._run_toggle)
        for tkey, members in toggle_groups:
            entry = memo[tkey]
            if isinstance(entry, Exception):
                continue
            consume(fresh, tkey, len(members))
            expand(resolved, provenance, members,
                   entry > TOGGLE_THRESHOLD)

        fresh = stage_exec(
            memo, {("rx_scan", s[1]): m[0] for s, m in rx_groups.items()},
            self._run_receiver)
        for sig, members in rx_groups.items():
            key = ("rx_scan", sig[1])
            entry = memo[key]
            if isinstance(entry, Exception):
                continue
            consume(fresh, key, len(members))
            expand(resolved, provenance, members,
                   entry != self._golden_receiver)

        return resolved, provenance

    # ------------------------------------------------------------------
    def _run_probe(self, fault: Optional[StructuralFault]) -> Dict:
        """Probe-FF capture of the driver nodes for both data values."""
        from ..circuits.full_link import build_full_link

        link = build_full_link()
        circuit = link.circuit
        if fault is not None:
            circuit = inject_fault(circuit, fault,
                                   retention=self.goldens.retention_link)
        out = {}
        for bit in (1, 0):
            v = link.vdd if bit else 0.0
            circuit["VDATA"].voltage = v
            circuit["VDATAB"].voltage = link.vdd - v
            op = dc_operating_point(circuit)
            if not op.converged:
                out[bit] = ("no_convergence",)
            else:
                out[bit] = _digitize(op, self.PROBE_NODES)
        return out

    def _run_receiver(self, fault: Optional[StructuralFault]) -> Dict:
        """Window-comparator captures across the five scan conditions.

        Returns at the first condition whose capture differs from the
        golden: the captures already differ there, whatever the later
        conditions would read.  Building the golden (no golden yet)
        runs every condition.
        """
        dut = build_receiver_dut()
        if fault is not None:
            dut.circuit = inject_fault(
                dut.circuit, fault,
                retention=self.goldens.retention_receiver)
        golden = self._golden_receiver
        out = {}
        for label, kw in SCAN_CONDITIONS:
            dut.set_condition(**kw)
            op = dut.solve()
            if not op.converged:
                out[label] = ("no_convergence",)
            else:
                out[label] = _digitize(op, ("win_hi", "win_lo"))
            if golden and out[label] != golden[label]:
                break
        return out

    def _run_toggle(self, fault: Optional[StructuralFault]) -> float:
        """Peak bias-node excursion during the 100 MHz toggle [V].

        The transient ends at the first sample after the settling mask
        whose excursion exceeds :data:`TOGGLE_THRESHOLD`: the peak is
        then over the threshold whatever the later samples read.
        Building the golden (no golden yet) integrates the whole run.
        """
        dut = build_toggle_dut()
        circuit = dut.circuit
        if fault is not None:
            circuit = inject_fault(circuit, fault,
                                   retention=self.goldens.retention_link)
        stop = None
        if self._golden_toggle is not None:
            def stop(t, v):
                return t > TOGGLE_MASK and abs(v[0] - v[1]) > TOGGLE_THRESHOLD
        tr = transient(circuit, 25e-9, 0.1e-9,
                       probes=[dut.vcm_node, dut.ref_node], stop=stop)
        mask = tr.time > TOGGLE_MASK
        return float(np.abs(tr.vdiff(dut.vcm_node, dut.ref_node))[mask].max())
