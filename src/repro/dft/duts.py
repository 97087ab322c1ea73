"""The device-under-test benches of the DC, scan, and BIST tiers.

Five benches cover the whole analog fault universe, one
:data:`BENCHES` entry each under the tag the stage memo
(:func:`repro.faults.collapse.stage_result`) keys on:

* ``L`` :func:`build_full_link` (in ``repro.circuits``) — transmitter +
  wire + termination; excited by the two static data patterns and read
  by the line comparators and the probe flip-flops
  (:func:`run_link_static`).
* ``T`` :func:`build_toggle_dut` — the same link, data toggling at the
  100 MHz scan frequency.
* ``R`` :func:`build_receiver_dut` — charge pump + coarse-loop window
  comparator + CP-BIST comparator, with every control (UP/DN, strong
  pump, scan enable, window-input force, V_c hold) brought out as a
  source.  One netlist, many excitations: the quiet DC signature, the
  five scan conditions, and the BIST V_p/current checks all run here.
* ``V`` :func:`build_vcdl_dut` — the VCDL with a static input drive.
* ``C`` :func:`build_vcdl_char_dut` — the VCDL under a clock step, the
  BIST lock test's delay characterisation.

Device names are identical across all benches touching a block, so a
:class:`~repro.faults.model.StructuralFault` can be injected into any
bench containing its device; :func:`bench` is the one place that does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ..analog import (Circuit, OperatingPoint, clock_waveform,
                      dc_operating_point, step_waveform)
from ..circuits.charge_pump import ChargePumpPorts, build_charge_pump
from ..circuits.cp_bist_comparator import build_cp_bist_comparator
from ..circuits.full_link import FullLinkPorts, build_full_link
from ..circuits.vcdl import build_vcdl
from ..circuits.window_comparator import build_window_comparator
from ..faults.collapse import stage_result
from ..faults.inject import inject_fault
from ..faults.model import StructuralFault
from ..variation.context import die_bench

VDD = 1.2
#: V_c value the hold switch pins during the BIST checks (mid-window,
#: i.e. the locked operating point)
VC_HOLD = 0.6


@dataclass
class ReceiverDUT:
    """Receiver-side bench: CP + window comparator + CP-BIST comparator."""

    circuit: Circuit
    cp: ChargePumpPorts
    vdd: float = VDD

    # ------------------------------------------------------------------
    def set_condition(self, *, scan: bool = False, up: int = 0, dn: int = 0,
                      up_st: int = 0, dn_st: int = 0,
                      force_mid: bool = False, hold: bool = False) -> None:
        """Drive every control source for one test condition."""
        c = self.circuit
        v = self.vdd

        def drive(name: str, level: int) -> None:
            c[name].voltage = v if level else 0.0

        drive("VSEN", 1 if scan else 0)
        drive("VUP", up)
        drive("VUPB", 0 if up else 1)
        drive("VDN", dn)
        drive("VDNB", 0 if dn else 1)
        drive("VUPSTB", 0 if up_st else 1)
        drive("VDNST", dn_st)
        drive("VFORCE", 1 if force_mid else 0)
        drive("VFORCEB", 0 if force_mid else 1)
        drive("VHOLDEN", 1 if hold else 0)

    def solve(self) -> OperatingPoint:
        return dc_operating_point(self.circuit)

    def observe(self, op: OperatingPoint) -> Dict[str, int]:
        """Digitised observables: window comparator + CP-BIST outputs."""
        half = self.vdd / 2

        def bit(node: str) -> int:
            return 1 if op.v(node) > half else 0

        return {
            "win_hi": bit("win_hi"),
            "win_lo": bit("win_lo"),
            "bist_hi": bit("bist_hi"),
            "bist_lo": bit("bist_lo"),
            "converged": int(op.converged),
        }

    def hold_current(self, op: OperatingPoint) -> float:
        """Current the hold source supplies into V_c (pump current).

        Positive = the pump is pulling V_c up (the hold sinks current).
        """
        hold = self.circuit["VHOLD"]
        return float(op.x[hold.aux_base])


@die_bench
def build_receiver_dut() -> ReceiverDUT:
    """Assemble the receiver bench with all control sources."""
    c = Circuit("receiver_dut")
    c.add_vsource("vdd", "0", VDD, name="VDD")
    # the pump control nets come from FSM gates with finite output
    # impedance; model it so gate shorts load the driving net as they
    # would on silicon (an ideal source would mask the fault)
    for name, net, v0 in (
            ("VUP", "up", 0.0), ("VUPB", "up_b", VDD),
            ("VDN", "dn", 0.0), ("VDNB", "dn_b", VDD),
            ("VUPSTB", "up_st_b", VDD), ("VDNST", "dn_st", 0.0)):
        c.add_vsource(f"{net}_src", "0", v0, name=name)
        c.add_resistor(f"{net}_src", net, 1e3, name=f"RDRV_{net}")
    for name, net, v0 in (
            ("VSEN", "sen", 0.0),
            ("VFORCE", "force", 0.0), ("VFORCEB", "force_b", VDD),
            ("VHOLDEN", "holden", 0.0)):
        c.add_vsource(net, "0", v0, name=name)

    cp = build_charge_pump(c, "cp", up_b="up_b", dn="dn",
                           up_st_b="up_st_b", dn_st="dn_st",
                           up="up", dn_b="dn_b", vdd="vdd", vss="0",
                           scan_en="sen")

    # reference bias from the clock-recovery side (V_c window centre)
    c.add_resistor("vdd", "vref", 10e3, name="REF_RT")
    c.add_resistor("vref", "0", 10e3, name="REF_RB")

    # coarse-loop window comparator (the wide, 150 mV design: its
    # thresholds relative to vref are the paper's V_L/V_H = 0.45/0.75)
    win = build_window_comparator(c, "win", "win_in", "vref",
                                  "win_hi", "win_lo", wide=True)
    for dev in win.devices:
        dev.role = "window_comp"

    # DFT: window-input force switches (scan connects the comparator
    # input to the middle of the thresholds -- Section II-B)
    c.add_switch("cp_vc", "win_in", "force_b", r_on=10.0, name="S_WNORM")
    c.add_switch("vref", "win_in", "force", r_on=10.0, name="S_WMID")

    # DFT: CP-BIST window comparator watching V_p against V_c (Fig 9)
    build_cp_bist_comparator(c, "bist", "cp_vc", "cp_vp",
                             "bist_hi", "bist_lo")

    # DFT: V_c hold for the BIST operating-point checks
    c.add_vsource("vc_hold", "0", VC_HOLD, name="VHOLD")
    c.add_switch("cp_vc", "vc_hold", "holden", r_on=10.0, name="S_HOLD")

    return ReceiverDUT(circuit=c, cp=cp)


# ----------------------------------------------------------------------
# termination toggle bench (the 100 MHz dynamic-mismatch test)
# ----------------------------------------------------------------------
@dataclass
class ToggleDUT:
    """Full link driven by a toggling pattern at the scan frequency."""

    circuit: Circuit
    vcm_node: str
    ref_node: str


def build_toggle_dut(toggle_freq: float = 100e6) -> ToggleDUT:
    """The complete link, data toggling at the 100 MHz scan frequency.

    The bias excursions the 100 MHz window comparator watches come from
    the FFE coupling capacitors: every data edge kicks both arms ~100 mV
    in opposite directions (the weak path alone cannot move the line at
    this rate — its time constant is ~70 ns).  A healthy termination
    cancels the kicks at the bias node; a transmission-gate open halves
    one arm's conductance and the bias node glitches by tens of mV on
    every edge — the dynamic mismatch of Section II-A.

    The link comes from the die-bench builder, so the toggle bench
    carries an active die's mismatch like every other bench.
    """
    link = build_full_link(name="toggle_dut")
    c = link.circuit
    period = 1.0 / toggle_freq
    c["VDATA"].waveform = clock_waveform(period, v_low=0.0, v_high=VDD,
                                         t_rise=200e-12)
    c["VDATAB"].waveform = clock_waveform(period, v_low=VDD, v_high=0.0,
                                          t_rise=200e-12)
    return ToggleDUT(circuit=c, vcm_node=link.term.vcm,
                     ref_node=link.term.vcm_ref)


# ----------------------------------------------------------------------
# VCDL bench
# ----------------------------------------------------------------------
@dataclass
class VCDLDUT:
    """VCDL bench with a static input drive (aliveness check)."""

    circuit: Circuit
    ports: object = None

    def set_input(self, level: int) -> None:
        self.circuit["VCLK"].voltage = VDD if level else 0.0

    def observe(self) -> Optional[int]:
        op = dc_operating_point(self.circuit)
        if not op.converged:
            return None
        return 1 if op.v("clk_out") > VDD / 2 else 0


def _vcdl_dut(name: str, vctl: float) -> VCDLDUT:
    c = Circuit(name)
    c.add_vsource("vdd", "0", VDD, name="VDD")
    c.add_vsource("vctl", "0", vctl, name="VCTL")
    c.add_vsource("clk_in", "0", 0.0, name="VCLK")
    ports = build_vcdl(c, "vcdl", "clk_in", "clk_out", "vctl")
    return VCDLDUT(circuit=c, ports=ports)


@die_bench
def build_vcdl_dut(vctl: float = 0.6) -> VCDLDUT:
    """Assemble the standalone VCDL bench at control voltage *vctl*."""
    return _vcdl_dut("vcdl_dut", vctl)


#: step instant of the VCDL characterisation stimulus [s]
VCDL_CHAR_T_STEP = 0.3e-9


@die_bench
def build_vcdl_char_dut(vctl: float = 0.6) -> VCDLDUT:
    """The ad-hoc VCDL characterisation bench at *vctl*: a clock step
    into the line, the control voltage held by a source."""
    dut = _vcdl_dut("vcdl_char", vctl)
    dut.circuit["VCLK"].waveform = step_waveform(
        0.0, VDD, VCDL_CHAR_T_STEP, t_rise=20e-12)
    return dut


# ----------------------------------------------------------------------
# the bench table
# ----------------------------------------------------------------------
#: probe-FF observation nodes in the full-link netlist
PROBE_NODES = ("tx_p_drv", "tx_p_tap", "tx_n_drv", "tx_n_tap")


@dataclass(frozen=True)
class Bench:
    """One bench: its builder, the healthy operating point a gate open
    on it retains (a :class:`~repro.dft.golden.GoldenSignatures`
    property) and the nodes its observations read."""

    build: Callable[..., object]
    retention: str
    observed: FrozenSet[str]


#: the bench behind each stage-memo tag
BENCHES: Dict[str, Bench] = {
    "L": Bench(build_full_link, "retention_link", frozenset(
        PROBE_NODES + ("term_cmp_pos", "term_cmp_neg", "term_win_hi",
                       "term_win_lo"))),
    "T": Bench(build_toggle_dut, "retention_link",
               frozenset(("term_vcm", "term_vcm_ref"))),
    "R": Bench(build_receiver_dut, "retention_receiver",
               frozenset(("win_hi", "win_lo", "bist_hi", "bist_lo"))),
    "V": Bench(build_vcdl_dut, "retention_vcdl", frozenset(("clk_out",))),
    "C": Bench(build_vcdl_char_dut, "retention_vcdl",
               frozenset(("clk_out",))),
}


def bench(tag: str, goldens, fault: Optional[StructuralFault] = None,
          *args):
    """Bench *tag*, its builder called with *args*: under an active die
    context, the die-tuned bench that context caches.

    With a *fault*, a faulted clone of it in fresh ports instead, its
    gate opens retaining *goldens*' healthy profile of the bench (a
    healthy bench never reads *goldens*); the cached bench is never
    rebound, so no clone reaches a later call.
    """
    entry = BENCHES[tag]
    ports = entry.build(*args)
    if fault is None:
        return ports
    return replace(ports, circuit=inject_fault(
        ports.circuit, fault, retention=getattr(goldens, entry.retention)))


# ----------------------------------------------------------------------
# the link's static stage
# ----------------------------------------------------------------------
def digitize(op: OperatingPoint, nodes, vdd: float = VDD) -> Tuple:
    """Logic levels of *nodes* at *op* (above half the supply = 1)."""
    return tuple(1 if op.v(n) > vdd / 2 else 0 for n in nodes)


def run_link_static(link: FullLinkPorts
                    ) -> Tuple[Dict, Dict, Tuple[OperatingPoint, ...]]:
    """Both static data values on *link*, one solve each.

    The DC tier's two-pattern observation and the scan tier's probe-FF
    capture of the transmitter driver nodes drive identical source
    values on the same netlist, so one solve per data bit serves both.
    Non-convergence is an observable (``converged``): on a tester it
    shows as an out-of-range supply current.  Returns
    ``(dc_signature, probe_capture, (op_1, op_0))``, the operating
    points at data = 1 and data = 0.  The healthy link's data = 1 point
    is its retention profile, and the data = 0 solution vector is the
    toggle transient's t = 0 operating point, bit for bit: the toggle
    bench is this netlist with clocks whose t = 0 values are those of
    data = 0.
    """
    dc_sig: Dict = {}
    probe: Dict = {}
    ops = []
    for bit in (1, 0):
        link.apply_data(bit)
        op = dc_operating_point(link.circuit)
        obs = link.observe(op) if op.converged else {}
        obs["converged"] = op.converged
        dc_sig[bit] = obs
        probe[bit] = (digitize(op, PROBE_NODES, link.vdd)
                      if op.converged else ("no_convergence",))
        ops.append(op)
    return dc_sig, probe, tuple(ops)


def link_static(goldens, fault: Optional[StructuralFault]
                ) -> Tuple[Dict, Dict, Tuple[OperatingPoint, ...]]:
    """:func:`run_link_static` on the (faulted) link bench through the
    run's stage memo: the one lookup the DC and scan tiers (and their
    screens, with *fault* None) share; the toggle test reads its start
    point from it."""
    return stage_result(goldens, "link_static", fault, ("L",),
                        lambda f: run_link_static(bench("L", goldens, f)))
