"""Full-pass oracles of the tier stages that stop at a decided verdict.

The product stages (``ScanTest._run_receiver`` / ``_run_toggle``,
``BISTTest._run_receiver_checks`` / ``_measure_faulted_vcdl`` /
``_measure_vcdl_delays``) end as soon as their verdict is fixed.  These
are the same stages run to completion: every scan condition, every
receiver-check group, the whole 25 ns toggle transient and the whole
1.6 ns VCDL characterisation, both window bounds always measured.
``tests/dft/test_stop_at_verdict.py`` holds the product stages to them.

Each oracle takes the tier instance and reads its goldens, retention
references and calibration, so both sides see the same inputs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.analog import transient
from repro.dft.bist import CURRENT_HI, CURRENT_LO
from repro.dft.duts import build_receiver_dut, build_toggle_dut
from repro.dft.scan_test import SCAN_CONDITIONS, _digitize
from repro.faults.inject import inject_fault
from repro.link.params import LinkParams


def run_receiver(scan, fault) -> Dict:
    """Window-comparator captures across all five scan conditions."""
    dut = build_receiver_dut()
    if fault is not None:
        dut.circuit = inject_fault(
            dut.circuit, fault, retention=scan.goldens.retention_receiver)
    out = {}
    for label, kw in SCAN_CONDITIONS:
        dut.set_condition(**kw)
        op = dut.solve()
        if not op.converged:
            out[label] = ("no_convergence",)
        else:
            out[label] = _digitize(op, ("win_hi", "win_lo"))
    return out


def toggle_transient(scan, fault):
    """The whole 25 ns toggle-bench transient and its two probe nodes."""
    dut = build_toggle_dut()
    circuit = dut.circuit
    if fault is not None:
        circuit = inject_fault(circuit, fault,
                               retention=scan.goldens.retention_link)
    probes = [dut.vcm_node, dut.ref_node]
    return transient(circuit, 25e-9, 0.1e-9, probes=probes), probes


def run_toggle(scan, fault) -> float:
    """Peak bias-node excursion over the whole toggle transient [V]."""
    tr, (vcm, ref) = toggle_transient(scan, fault)
    mask = tr.time > 5e-9
    return float(np.abs(tr.vdiff(vcm, ref))[mask].max())


def run_receiver_checks(bist, fault) -> Dict:
    """V_p tracking, slew screens and every pump-current window."""
    dut = build_receiver_dut()
    if fault is not None:
        dut.circuit = inject_fault(
            dut.circuit, fault, retention=bist.goldens.retention_receiver)
    out: Dict[str, object] = {}
    dut.set_condition(hold=True)
    op = dut.solve()
    if not op.converged:
        return {"converged": False}
    obs = dut.observe(op)
    out["vp_flag"] = (obs["bist_hi"], obs["bist_lo"])
    currents = bist._ota_currents(dut, op)
    for name in bist.OTA_DEVICES:
        ref = bist._healthy_ota_i.get(name, 0.0)
        out[f"slew_{name}_ok"] = bool(
            ref == 0.0 or currents[name] >= bist.SLEW_COLLAPSE * ref)
    nominal = {"up": 1.83e-6, "dn": 3.66e-6,
               "up_st": 14.6e-6, "dn_st": 29e-6}
    for name, kw in (("up", dict(hold=True, up=1)),
                     ("dn", dict(hold=True, dn=1)),
                     ("up_st", dict(hold=True, up_st=1)),
                     ("dn_st", dict(hold=True, dn_st=1))):
        dut.set_condition(**kw)
        op = dut.solve()
        if not op.converged:
            return {"converged": False}
        i = abs(dut.hold_current(op))
        ref = nominal[name]
        out[f"i_{name}_ok"] = bool(CURRENT_LO * ref <= i <= CURRENT_HI * ref)
    out["converged"] = True
    return out


def vcdl_transient(bist, fault, vctl: float):
    """The whole 1.6 ns VCDL characterisation transient."""
    faulted = bist._vcdl_char_circuit(fault, vctl)
    return transient(faulted, 1.6e-9, 2e-12, probes=["clk_out"])


def measure_faulted_vcdl(bist, fault, vctl: float) -> float:
    """Delay read off the whole characterisation transient."""
    return bist._vcdl_delay_from(vcdl_transient(bist, fault, vctl))


def measure_vcdl_delays(bist, fault):
    """Both window-bound delays, always measured."""
    p0 = LinkParams()
    return (measure_faulted_vcdl(bist, fault, p0.v_window_lo),
            measure_faulted_vcdl(bist, fault, p0.v_window_hi))
