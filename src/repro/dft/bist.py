"""The BIST tier (Section III): lock detector + CP-BIST checks.

Four at-speed observations, all available without external test access:

* **V_p tracking** — after lock (emulated by pinning V_c at the locked
  mid-window point) the CP-BIST window comparator must read "00"; a
  balancing-path or amplifier fault lets V_p drift past the 150 mV
  window.
* **Pump-current check** — with V_c pinned, asserting UP (then DN) must
  draw a weak-pump current within a window of the nominal; a
  drain-source short in a current-source transistor (masked during scan,
  where the source is used as a switch) multiplies the current.
* **VCDL aliveness** — the sampling clock must propagate; a dead stage
  shows statically as an output that no longer follows the input.
* **Lock test** — the behavioural loop runs at speed on PRBS data from
  the worst-case startup phase; the lock detector must report lock
  within 2 us with no more than n_phases/2 coarse corrections.

The at-speed stimulus is a sweepable axis (DESIGN.md §15): the tier
registers parameterised variants ``bist@<pattern>`` over the
:mod:`repro.patterns` sources.  The default ``bist`` tier is the
legacy PRBS7 run, bit-identical to every pre-pattern-engine campaign;
non-default patterns additionally run past lock and apply the strict
data-integrity verdict (zero post-lock sampling errors) under a
stimulus-specific lock-budget stretch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..faults.behavior_map import map_fault_to_knobs
from ..faults.inject import inject_fault
from ..faults.model import StructuralFault
from ..link.params import LinkParams
from ..synchronizer.loop import SynchronizerLoop
from .duts import build_receiver_dut, build_vcdl_dut
from .golden import GoldenSignatures
from .registry import register_tier

#: pump current acceptance window relative to nominal
CURRENT_LO = 0.3
CURRENT_HI = 3.0
#: worst-case startup phase used for the lock test
LOCK_TEST_PHASE = 5
#: cycles simulated by the lock test (> the 5000-cycle budget)
LOCK_TEST_CYCLES = 7000
#: the paper's lock-time budget [s]
LOCK_BUDGET = 2e-6


@register_tier("bist")
@dataclass
class BISTTest:
    """BIST tier detector with cached golden signatures.

    *pattern* selects the at-speed stimulus (any
    :data:`repro.patterns.sources.PATTERN_NAMES` entry); the registry
    builds parameterised instances via ``create_tier("bist@isi")``.
    *measure_cache* memoizes the expensive pattern-independent netlist
    characterisations (window thresholds, VCDL delay pairs) — pass one
    shared dict when sweeping many patterns over the same fault list.
    """

    goldens: GoldenSignatures = field(default_factory=GoldenSignatures)
    pattern: str = "prbs7"
    measure_cache: Dict = field(default_factory=dict, repr=False)
    _golden: Dict = field(default_factory=dict, repr=False)
    _healthy_ota_i: Dict[str, float] = field(default_factory=dict,
                                             repr=False)

    #: OTA devices screened for bias collapse (block speed screen)
    OTA_DEVICES = ("win_hi_MT", "win_hi_MLO", "win_lo_MT", "win_lo_MLO",
                   "cp_amp_MT", "cp_amp_MLO")
    #: bias current below this fraction of healthy = block too slow for
    #: the coarse-loop clock -> lock failure at speed
    SLEW_COLLAPSE = 0.1

    def __post_init__(self):
        from ..patterns.sources import PATTERN_NAMES

        if self.pattern not in PATTERN_NAMES:
            raise KeyError(f"unknown pattern {self.pattern!r}; choices: "
                           f"{', '.join(PATTERN_NAMES)}")
        # the default tier keeps its historical name so records stay
        # byte-identical; parameterised instances carry the registry's
        # "bist@<pattern>" spelling
        self.name = ("bist" if self.pattern == "prbs7"
                     else f"bist@{self.pattern}")
        # shared retention references (receiver quiescent point, VCDL
        # with the clock low) are built through the cache — pre-fork,
        # and reused by every tier of the campaign
        self.goldens.retention_receiver
        self.goldens.retention_vcdl
        self._golden = self._run_receiver_checks(None, calibrate=True)

    @property
    def golden(self) -> Dict[str, object]:
        """Healthy signatures: V_p tracking flags, OTA speed screens,
        and the pump-current windows."""
        return {"receiver_checks": self._golden}

    # ------------------------------------------------------------------
    def applies_to(self, fault: StructuralFault) -> bool:
        return fault.block in ("cp", "window_comp", "vcdl")

    def screen(self) -> bool:
        """Healthy-die screen: does a fault-free die pass the BIST tier?

        Runs the receiver checks and the VCDL aliveness probe without a
        fault, comparing against the nominal calibration captured at
        construction (never re-calibrating — the tester's reference is
        the nominal design, not the die under test).
        """
        if self._run_receiver_checks(None) != self._golden:
            return False
        return self._vcdl_alive(None)

    def detect(self, fault: StructuralFault) -> bool:
        if self.static_detect(fault):
            return True
        return self.at_speed_detect(fault)

    def static_detect(self, fault: StructuralFault) -> bool:
        """The tier's pattern-independent stages only (receiver checks,
        VCDL aliveness).  The pattern campaign runs these once and
        sweeps :meth:`at_speed_detect` per stimulus."""
        if fault.block in ("window_comp", "cp"):
            return self._run_receiver_checks(fault) != self._golden
        if fault.block == "vcdl":
            return not self._vcdl_alive(fault)
        return False

    def at_speed_detect(self, fault: StructuralFault) -> bool:
        """The stimulus-dependent at-speed stages only."""
        if fault.block == "window_comp":
            return self._window_lock_test(fault)
        if fault.block == "vcdl":
            return self._vcdl_lock_test(fault)
        return self._lock_test(fault)

    # ------------------------------------------------------------------
    def detect_collapsed(self, faults, collapser, memo=None):
        """One-representative-per-class :meth:`detect`; see
        DCTest.detect_collapsed for the memo/provenance contract.

        Receiver checks key on the perturbation digest alone (shared by
        cp and window-comparator classes, and across stimulus patterns);
        the follow-on lock run keys on the stimulus pattern plus the
        behavioural knob set for cp faults (the only inputs
        :meth:`_lock_test` consumes) or the digest for the
        window-threshold bisection.
        """
        from .collapsed import (consume, expand, group_by_signature,
                                stage_exec)

        memo = {} if memo is None else memo
        resolved: Dict = {}
        provenance: Dict = {}
        # the collapser's equivalence knowledge is per base tier; the
        # pattern only enters the lock-stage memo keys below
        groups = group_by_signature(faults, collapser, "bist")
        rx_groups = {s: m for s, m in groups.items() if s[0] == "R"}
        vc_groups = {s: m for s, m in groups.items() if s[0] == "V"}

        fresh = stage_exec(
            memo,
            {("bist_checks", s[1]): m[0] for s, m in rx_groups.items()},
            self._run_receiver_checks)
        lock_need, lock_groups = {}, []
        for sig, members in rx_groups.items():
            key = ("bist_checks", sig[1])
            entry = memo[key]
            if isinstance(entry, Exception):
                continue
            consume(fresh, key, len(members))
            if entry != self._golden:
                expand(resolved, provenance, members, True)
                continue
            if members[0].block == "cp":
                lkey = ("cp_lock", self.pattern, sig[2])
            else:
                lkey = ("win_lock", self.pattern, sig[1])
            lock_need.setdefault(lkey, members[0])
            lock_groups.append((lkey, members))

        fresh = stage_exec(memo, lock_need, self.at_speed_detect)
        for lkey, members in lock_groups:
            entry = memo[lkey]
            if isinstance(entry, Exception):
                continue
            consume(fresh, lkey, len(members))
            expand(resolved, provenance, members, entry)

        fresh = stage_exec(
            memo,
            {("vcdl_alive", s[1]): m[0] for s, m in vc_groups.items()},
            self._vcdl_alive)
        char_need, char_groups = {}, []
        for sig, members in vc_groups.items():
            key = ("vcdl_alive", sig[1])
            entry = memo[key]
            if isinstance(entry, Exception):
                continue
            consume(fresh, key, len(members))
            if not entry:
                expand(resolved, provenance, members, True)
            else:
                ckey = ("vcdl_char", sig[3])
                char_need.setdefault(ckey, members[0])
                char_groups.append((ckey, members))

        fresh = stage_exec(memo, char_need, self._measure_vcdl_delays)
        for ckey, members in char_groups:
            entry = memo[ckey]
            if isinstance(entry, Exception):
                continue
            consume(fresh, ckey, len(members))
            expand(resolved, provenance, members,
                   self._vcdl_lock_verdict(*entry))

        return resolved, provenance

    def _measure_vcdl_delays(self, fault: StructuralFault):
        """Faulted VCDL delays ``(d_lo, d_hi)`` at the window bounds.

        A line dead at the low bound (``d_lo`` NaN) alone decides
        :meth:`_vcdl_lock_verdict`, so the high bound is then left
        unmeasured (NaN).
        """
        p0 = LinkParams()
        d_lo = self._measure_faulted_vcdl(fault, p0.v_window_lo)
        if math.isnan(d_lo):
            return d_lo, float("nan")
        return d_lo, self._measure_faulted_vcdl(fault, p0.v_window_hi)

    # ------------------------------------------------------------------
    def _run_receiver_checks(self, fault: Optional[StructuralFault],
                             calibrate: bool = False) -> Dict:
        """V_p tracking + pump-current windows on the receiver bench.

        ``calibrate=True`` (construction only) records the healthy OTA
        bias currents as the speed-screen reference; every later call —
        faulted or the healthy-die screen — compares against that stored
        nominal, and returns at the first group that differs from the
        golden (the hold point's V_p and slew flags, then each
        pump-current window in order): the checks already differ there,
        whatever the later groups would read.  Calibration runs every
        group.
        """
        dut = build_receiver_dut()
        if fault is not None:
            dut.circuit = inject_fault(
                dut.circuit, fault,
                retention=self.goldens.retention_receiver)
        out: Dict[str, object] = {}

        def decided(keys) -> bool:
            return not calibrate and any(
                out[k] != self._golden.get(k) for k in keys)

        # V_p tracking at the locked operating point
        dut.set_condition(hold=True)
        op = dut.solve()
        if not op.converged:
            return {"converged": False}
        obs = dut.observe(op)
        out["vp_flag"] = (obs["bist_hi"], obs["bist_lo"])

        # speed screen: an OTA whose bias current collapsed cannot meet
        # the divided-clock timing -- the loop fails to lock at speed
        # even though the slow DC observables still look legal
        currents = self._ota_currents(dut, op)
        if calibrate:
            self._healthy_ota_i = currents
            for name in self.OTA_DEVICES:
                out[f"slew_{name}_ok"] = True
        else:
            for name in self.OTA_DEVICES:
                ref = self._healthy_ota_i.get(name, 0.0)
                out[f"slew_{name}_ok"] = bool(
                    ref == 0.0 or currents[name] >= self.SLEW_COLLAPSE * ref)
        if decided(out):
            return out

        # pump currents (digitised into in-window / out-of-window).
        # The strong pump is included: during scan its source is a
        # switch too, so a D-S short there is equally masked -- but at
        # speed it shows as a grossly excessive coarse-correction slew.
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
            key = f"i_{name}_ok"
            out[key] = bool(CURRENT_LO * ref <= i <= CURRENT_HI * ref)
            if decided((key,)):
                return out
        out["converged"] = True
        return out

    def _ota_currents(self, dut, op) -> Dict[str, float]:
        """Drain-current magnitudes of the screened OTA devices."""
        out: Dict[str, float] = {}
        for name in self.OTA_DEVICES:
            m = dut.circuit[name]
            i, *_ = m.ids(op.v(m.terminals["g"]), op.v(m.terminals["d"]),
                          op.v(m.terminals["s"]), op.v(m.terminals["b"]))
            out[name] = abs(i)
        return out

    def _vcdl_alive(self, fault: Optional[StructuralFault]) -> bool:
        """Static aliveness: the line output must follow the input."""
        dut = build_vcdl_dut()
        if fault is not None:
            dut.circuit = inject_fault(dut.circuit, fault,
                                       retention=self.goldens.retention_vcdl)
        dut.set_input(0)
        lo = dut.observe()
        dut.set_input(1)
        hi = dut.observe()
        return lo == 0 and hi == 1

    #: step instant of the VCDL characterisation stimulus [s]
    VCDL_CHAR_T_STEP = 0.3e-9

    def _vcdl_char_circuit(self, fault: StructuralFault, vctl: float):
        """Faulted ad-hoc characterisation netlist for one *vctl*."""

        from ..analog import step_waveform
        from ..circuits.vcdl import build_vcdl
        from ..analog import Circuit
        from ..variation.context import tune_active

        c = Circuit("vcdl_char")
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_vsource("vctl", "0", vctl, name="VCTL")
        vin = c.add_vsource("clk_in", "0", 0.0, name="VCLK")
        vin.waveform = step_waveform(0.0, 1.2, self.VCDL_CHAR_T_STEP,
                                     t_rise=20e-12)
        build_vcdl(c, "vcdl", "clk_in", "clk_out", "vctl")
        # ad-hoc characterisation netlist: bypasses the wrapped
        # builders, so apply the active die's mismatch explicitly
        tune_active(c)
        return inject_fault(c, fault,
                            retention=self.goldens.retention_vcdl)

    def _vcdl_delay_from(self, tr) -> float:
        """Propagation delay from a characterisation transient."""
        v_out = tr.v("clk_out")
        after = tr.time > self.VCDL_CHAR_T_STEP
        crossed = (after & (v_out > 0.6)).nonzero()[0]
        if len(crossed) == 0:
            return float("nan")
        return float(tr.time[crossed[0]] - self.VCDL_CHAR_T_STEP)

    def _measure_faulted_vcdl(self, fault: StructuralFault,
                              vctl: float) -> float:
        """Propagation delay of the faulted VCDL at *vctl* (transient).

        The transient ends at the first 0.6 V output crossing after the
        input step, the sample the delay is read from.
        """

        from ..analog import transient

        faulted = self._vcdl_char_circuit(fault, vctl)
        t_step = self.VCDL_CHAR_T_STEP
        tr = transient(faulted, 1.6e-9, 2e-12, probes=["clk_out"],
                       stop=lambda t, v: t > t_step and v[0] > 0.6)
        return self._vcdl_delay_from(tr)

    def _vcdl_lock_test(self, fault: StructuralFault) -> bool:
        """Lock test with the *measured* faulted VCDL tuning curve.

        The faulted delay is characterised at the window bounds on the
        transistor netlist; the behavioural loop then runs with that
        curve.  A dead line, a curve whose span no longer reaches the
        eye, or a lost tuning gain all surface as lock failure / lock-
        detector overflow; a mild parametric shift locks fine and
        escapes (the Table I open-fault escapes).
        """
        ckey = ("vcdl_delays", fault.key())
        if ckey not in self.measure_cache:
            self.measure_cache[ckey] = self._measure_vcdl_delays(fault)
        return self._vcdl_lock_verdict(*self.measure_cache[ckey])

    def _vcdl_lock_verdict(self, d_lo: float, d_hi: float) -> bool:
        """Behavioural lock run on a measured (d_lo, d_hi) delay pair."""
        if math.isnan(d_lo) or math.isnan(d_hi):
            return True     # clock does not propagate at speed
        p0 = LinkParams()
        lo_v, hi_v = p0.v_window_lo, p0.v_window_hi

        def faulted_curve(vc: float, _lo=d_lo, _hi=d_hi) -> float:
            if vc <= lo_v:
                return _lo
            if vc >= hi_v:
                return _hi
            f = (vc - lo_v) / (hi_v - lo_v)
            return _lo + f * (_hi - _lo)

        params = LinkParams(initial_phase_index=LOCK_TEST_PHASE,
                            vcdl_delay=faulted_curve)
        return not self._loop_passes(params)

    def _build_loop(self, params: LinkParams):
        """A loop wired for this tier's stimulus, plus its budget scale.

        The default PRBS7 pattern keeps the legacy construction (no
        source argument at all), so the default tier's runs stay
        bit-identical to every pre-pattern-engine campaign record.
        """
        if self.pattern == "prbs7":
            return SynchronizerLoop(params=params), 1.0
        from ..patterns.sources import build_stimulus

        source, aggressor = build_stimulus(self.pattern)
        scale = float(getattr(source, "lock_budget_scale", 1.0))
        return SynchronizerLoop(params=params, source=source,
                                aggressor=aggressor), scale

    def _pattern_verdict(self, result, params: LinkParams,
                         scale: float) -> bool:
        """Strict at-speed pass for a non-default stimulus.

        The legacy ``bist_pass`` criteria (lock inside the — here
        stretched — budget, corrections within the lock-detector
        bound), plus zero post-lock sampling errors: a stimulus whose
        whole point is stressing the sampled data (crosstalk aggressor,
        ISI lone bits) detects through the data path, not just the
        lock path.
        """
        return (result.locked
                and result.lock_time is not None
                and result.lock_time <= LOCK_BUDGET * scale
                and result.coarse_corrections <= params.n_phases // 2
                and result.errors_after_lock == 0)

    def _loop_passes(self, params: LinkParams) -> bool:
        """One at-speed run under this tier's stimulus."""
        loop, scale = self._build_loop(params)
        if self.pattern == "prbs7":
            result = loop.run(max_cycles=LOCK_TEST_CYCLES,
                              stop_on_lock=True)
            return result.bist_pass
        # non-default stimuli run past lock so post-lock errors can
        # accumulate (stop_on_lock exits the very cycle lock is
        # declared), with the cycle count stretched alongside the
        # budget for transition-starved patterns
        result = loop.run(max_cycles=int(LOCK_TEST_CYCLES * scale),
                          stop_on_lock=False)
        return self._pattern_verdict(result, params, scale)

    def _run_loop(self, params: LinkParams) -> bool:
        """True when the loop passes the BIST verdict from both walk
        directions (startup phases 5 and 6 exercise the high- and
        low-side coarse corrections respectively -- 'from any initial
        condition', Section III)."""
        from dataclasses import replace

        for phase in (LOCK_TEST_PHASE, LOCK_TEST_PHASE + 1):
            p = replace(params, initial_phase_index=phase)
            if not self._loop_passes(p):
                return False
        return True

    def _lock_test(self, fault: StructuralFault) -> bool:
        """At-speed lock test via the fault -> behaviour mapping.

        Returns True (detected) when the mapped loop fails the BIST
        verdict; faults with no loop-level consequence return False.
        """
        knobs = map_fault_to_knobs(fault)
        if not knobs:
            return False
        params = LinkParams().with_faults(**knobs)
        return not self._run_loop(params)

    def _measure_window_thresholds(self,
                                   fault: Optional[StructuralFault]):
        """Trip points of the (optionally faulted) window comparator.

        Sweeps the pinned V_c through the hold source and bisects the
        win_hi / win_lo trip voltages on the netlist.  Returns
        ``(th_lo, th_hi)`` with ``None`` for a side that never fires
        inside the rails.  Note the sweep drives V_c through the hold
        switch, so faults that load V_c resistively (e.g. a shorted
        loop capacitor) legitimately shift the measured thresholds —
        and are detected through them.
        """
        dut = build_receiver_dut()
        if fault is not None:
            dut.circuit = inject_fault(
                dut.circuit, fault,
                retention=self.goldens.retention_receiver)
        hold = dut.circuit["VHOLD"]

        def win_bits(vc):
            hold.voltage = vc
            dut.set_condition(hold=True)
            op = dut.solve()
            if not op.converged:
                return None
            return (1 if op.v("win_hi") > 0.6 else 0,
                    1 if op.v("win_lo") > 0.6 else 0)

        def bisect(side, lo, hi):
            """First vc (within [lo, hi]) where the side asserts."""
            b_lo, b_hi = win_bits(lo), win_bits(hi)
            if b_lo is None or b_hi is None:
                return "nonconv"
            # win_bits returns (hi, lo)
            i = 1 if side == "lo" else 0
            if b_lo[i] == b_hi[i]:
                return None          # never trips inside the rails
            for _ in range(9):
                mid = 0.5 * (lo + hi)
                bm = win_bits(mid)
                if bm is None:
                    return "nonconv"
                if bm[i] == b_lo[i]:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        th_lo = bisect("lo", 0.02, 0.6)
        th_hi = bisect("hi", 0.6, 1.18)
        return th_lo, th_hi

    def _window_lock_test(self, fault: StructuralFault) -> bool:
        """Lock test with the *measured* faulted window thresholds.

        The scan conditions exercise the comparator at +-0.6 V inputs; a
        degraded comparator (e.g. a mirror open turning it into a
        pseudo-NMOS stage) may still resolve those large swings while
        its thresholds are wildly shifted.  In mission the coarse loop
        then fails to fire (or fires constantly), which the lock
        detector observes.
        """
        ckey = ("win_thresholds", fault.key())
        if ckey not in self.measure_cache:
            self.measure_cache[ckey] = \
                self._measure_window_thresholds(fault)
        th = self.measure_cache[ckey]
        if th == "nonconv" or "nonconv" in th:
            return True
        th_lo, th_hi = th
        knobs = {}
        if th_lo is None:
            knobs["window_lo_stuck"] = 0
        else:
            knobs["v_window_lo"] = th_lo
        if th_hi is None:
            knobs["window_hi_stuck"] = 0
        else:
            knobs["v_window_hi"] = th_hi
        params = LinkParams().with_faults(**knobs)
        return not self._run_loop(params)
