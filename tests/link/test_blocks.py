"""Tests for the behavioural link blocks."""

import pytest

from repro.link import (
    AlexanderPD,
    ChargePumpBeh,
    ClockDomainCrossing,
    DLL,
    Divider,
    LinkParams,
    LockDetector,
    RingCounterBeh,
    SwitchMatrix,
    VCDLBeh,
    WindowComparatorBeh,
    scan_frequency_verdict,
    wrap_phase,
)
from repro.synchronizer.loop import LockVerdict


@pytest.fixture
def p():
    return LinkParams()


class TestWrapPhase:
    def test_identity_in_range(self):
        assert wrap_phase(0.1e-9, 0.4e-9) == pytest.approx(0.1e-9)

    def test_wraps_above_half(self):
        assert wrap_phase(0.3e-9, 0.4e-9) == pytest.approx(-0.1e-9)

    def test_wraps_below_minus_half(self):
        assert wrap_phase(-0.3e-9, 0.4e-9) == pytest.approx(0.1e-9)

    def test_half_maps_to_plus_half(self):
        assert wrap_phase(0.2e-9, 0.4e-9) == pytest.approx(0.2e-9)


class TestAlexanderPD:
    def test_no_transition_no_verdict(self, p):
        pd = AlexanderPD(p)
        assert pd.decide(1, p.eye_center) == (0, 0)   # first bit
        assert pd.decide(1, p.eye_center) == (0, 0)   # no transition

    def test_late_sampling_asserts_up(self, p):
        pd = AlexanderPD(p)
        pd.decide(0, p.eye_center + 0.05e-9)
        assert pd.decide(1, p.eye_center + 0.05e-9) == (1, 0)

    def test_early_sampling_asserts_dn(self, p):
        pd = AlexanderPD(p)
        pd.decide(1, p.eye_center - 0.05e-9)
        assert pd.decide(0, p.eye_center - 0.05e-9) == (0, 1)

    def test_stuck_knobs(self, p):
        for stuck, expect in (("up", (1, 0)), ("dn", (0, 1)),
                              ("quiet", (0, 0))):
            pd = AlexanderPD(p.with_faults(pd_stuck=stuck))
            assert pd.decide(1, p.eye_center) == expect

    def test_scan_frequency_verdicts(self):
        """Section II-A: UP normally, DN with the half-cycle delay."""
        assert scan_frequency_verdict(False) == (1, 0)
        assert scan_frequency_verdict(True) == (0, 1)

    def test_jitter_can_flip_marginal_decision(self, p):
        pj = p.with_faults(sampling_jitter_rms=50e-12)
        pd = AlexanderPD(pj)
        verdicts = set()
        for _ in range(50):
            pd.reset()
            pd.decide(0, p.eye_center + 1e-12)
            verdicts.add(pd.decide(1, p.eye_center + 1e-12))
        assert len(verdicts) > 1  # jitter dithers the verdict


class TestChargePump:
    def test_up_raises_vc(self, p):
        cp = ChargePumpBeh(p)
        v0 = cp.vc
        cp.step(1, 0, 1e-9)
        assert cp.vc > v0

    def test_dn_lowers_vc(self, p):
        cp = ChargePumpBeh(p)
        v0 = cp.vc
        cp.step(0, 1, 1e-9)
        assert cp.vc < v0

    def test_slew_rate_matches_i_over_c(self, p):
        cp = ChargePumpBeh(p)
        v0 = cp.vc
        cp.step(1, 0, 1e-9)
        assert cp.vc - v0 == pytest.approx(p.i_up * 1e-9 / p.c_loop)

    def test_clamps_at_rails(self, p):
        cp = ChargePumpBeh(p)
        for _ in range(10000):
            cp.step(1, 0, 1e-9)
        assert cp.vc == pytest.approx(p.vdd)

    def test_strong_step_faster(self, p):
        cp1, cp2 = ChargePumpBeh(p), ChargePumpBeh(p)
        cp1.step(1, 0, 1e-9)
        cp2.strong_step(+1, 1e-9)
        assert (cp2.vc - p.vc_init) > 4 * (cp1.vc - p.vc_init)

    def test_dead_strong_pump_is_noop(self, p):
        cp = ChargePumpBeh(p.with_faults(strong_up_dead=True))
        cp.strong_step(+1, 1e-9)
        assert cp.vc == pytest.approx(p.vc_init)

    def test_vp_reflects_drift_knob(self, p):
        cp = ChargePumpBeh(p.with_faults(vp_drift=0.3))
        assert cp.vp == pytest.approx(cp.vc + 0.3)

    def test_leak_discharges(self, p):
        cp = ChargePumpBeh(p.with_faults(leak_current=1e-6))
        cp.step(0, 0, 1e-9)
        assert cp.vc < p.vc_init


class TestVCDLBeh:
    def test_delay_monotone(self, p):
        v = VCDLBeh(p)
        assert v.delay(0.45) > v.delay(0.75)

    def test_dead_returns_none(self, p):
        v = VCDLBeh(p.with_faults(vcdl_dead=True))
        assert v.delay(0.6) is None

    def test_offset_knob(self, p):
        v0 = VCDLBeh(p).delay(0.6)
        v1 = VCDLBeh(p.with_faults(vcdl_delay_offset=50e-12)).delay(0.6)
        assert v1 == pytest.approx(v0 + 50e-12)

    def test_design_rule(self, p):
        assert VCDLBeh(p).exceeds_phase_step()


class TestDLLAndSwitch:
    def test_phases_equally_spaced(self, p):
        dll = DLL(p)
        ph = dll.all_phases()
        steps = [b - a for a, b in zip(ph, ph[1:])]
        assert all(s == pytest.approx(p.phase_step) for s in steps)

    def test_nearest_tap(self, p):
        dll = DLL(p)
        assert dll.nearest_tap(0.0) == 0
        assert dll.nearest_tap(p.phase_step * 3) == 3
        assert dll.nearest_tap(p.bit_time - 1e-15) == 0  # wraps

    def test_switch_selects_one_hot(self, p):
        sw = SwitchMatrix(p)
        oh = [0] * 10
        oh[4] = 1
        assert sw.select(oh) == 4

    def test_switch_all_zero_gives_none(self, p):
        """The paper's all-zero preload: no phase -> no chain-A clock."""
        sw = SwitchMatrix(p)
        assert sw.select([0] * 10) is None
        assert not sw.clock_present([0] * 10)

    def test_dead_phase(self, p):
        sw = SwitchMatrix(p.with_faults(switch_matrix_dead_phase=2))
        oh = [0] * 10
        oh[2] = 1
        assert sw.select(oh) is None

    def test_stuck_phase(self, p):
        sw = SwitchMatrix(p)
        sw.stuck_phase = 7
        assert sw.select([0] * 10) == 7


class TestRingCounter:
    def test_shift_up_down(self, p):
        rc = RingCounterBeh(p)
        rc.shift(+1)
        assert rc.position == 1
        rc.shift(-1)
        rc.shift(-1)
        assert rc.position == 9  # wraps

    def test_one_hot_encoding(self, p):
        rc = RingCounterBeh(p)
        rc.reset(3)
        oh = rc.one_hot()
        assert oh[3] == 1 and sum(oh) == 1

    def test_stuck_knob(self, p):
        rc = RingCounterBeh(p.with_faults(ring_counter_stuck=True))
        rc.shift(+1)
        assert rc.position == 0


class TestDividerLockDetectorCDC:
    def test_divider_fires_every_n(self):
        d = Divider(ratio=4)
        fires = [d.tick() for _ in range(12)]
        assert fires == [False, False, False, True] * 3

    def test_divider_dead(self):
        d = Divider(ratio=4, dead=True)
        assert not any(d.tick() for _ in range(20))

    def test_divider_validates_ratio(self):
        with pytest.raises(ValueError):
            Divider(ratio=0)

    def test_lock_detector_saturates(self, p):
        ld = LockDetector(p)
        for _ in range(20):
            ld.log_coarse_request()
        assert ld.count == 7  # 3-bit saturating

    def test_lock_detector_bound_is_half_phases(self, p):
        assert LockVerdict.lock_test(p).bound == 5

    def test_lock_detector_verdict(self, p):
        """The lock test's pass rule on the detector's count: locked,
        and within the bound."""
        verdict = LockVerdict.lock_test(p)
        ld = LockDetector(p)
        for _ in range(3):
            ld.log_coarse_request()
        assert verdict.passes(100, ld.count, 0)
        for _ in range(5):
            ld.log_coarse_request()
        assert not verdict.passes(100, ld.count, 0)
        assert not verdict.passes(None, LockDetector(p).count, 0)

    def test_cdc_half_cycle_selection(self, p):
        cdc = ClockDomainCrossing(p)
        assert cdc.use_half_cycle(0)        # phase 0 < half cycle
        assert not cdc.use_half_cycle(7)    # 280 ps > 200 ps

    def test_cdc_latency(self, p):
        cdc = ClockDomainCrossing(p)
        assert cdc.crossing_latency(0) == pytest.approx(p.bit_time / 2)
        assert cdc.crossing_latency(7) == pytest.approx(p.bit_time)

    def test_cdc_scan_chain_extension(self, p):
        """Section II-A: full-cycle flop adds one bit to Scan chain A."""
        cdc = ClockDomainCrossing(p)
        assert cdc.scan_chain_a_extra_bits(0) == 0
        assert cdc.scan_chain_a_extra_bits(7) == 1


class TestWindowComparatorBeh:
    def test_in_window(self, p):
        w = WindowComparatorBeh(p)
        assert w.evaluate(0.6) == (0, 0)
        assert w.in_window(0.6)

    def test_above(self, p):
        assert WindowComparatorBeh(p).evaluate(0.8) == (1, 0)

    def test_below(self, p):
        assert WindowComparatorBeh(p).evaluate(0.4) == (0, 1)

    def test_stuck_knobs(self, p):
        w = WindowComparatorBeh(p.with_faults(window_hi_stuck=1))
        assert w.evaluate(0.6) == (1, 0)
        assert not w.in_window(0.6)
