"""Tests for the transmitter, termination, and full-link DC netlists."""

import pytest

from repro.analog import Circuit, dc_operating_point
from repro.circuits import (
    build_full_link,
    build_termination,
    build_transmitter,
)
from repro.dft.duts import run_link_static


@pytest.fixture(scope="module")
def link():
    return build_full_link()


@pytest.fixture(scope="module")
def golden(link):
    res = run_link_static(link)[0]
    link.apply_data(1)  # restore a known state
    return res


class TestHealthyLink:
    def test_converges_both_patterns(self, golden):
        assert golden[1]["converged"]
        assert golden[0]["converged"]

    def test_data1_signature(self, golden):
        """Arm P above bias, arm N below: cmp_pos=1, cmp_neg=0."""
        assert golden[1]["cmp_pos"] == 1
        assert golden[1]["cmp_neg"] == 0

    def test_data0_signature_is_mirrored(self, golden):
        assert golden[0]["cmp_pos"] == 0
        assert golden[0]["cmp_neg"] == 1

    def test_bias_window_quiet(self, golden):
        for bit in (0, 1):
            assert golden[bit]["win_hi"] == 0
            assert golden[bit]["win_lo"] == 0

    def test_static_swing_near_design_point(self, link):
        """Per-arm deviation ~30 mV (paper's comparator input)."""
        link.apply_data(1)
        op = dc_operating_point(link.circuit)
        vcm = op.v(link.term.vcm)
        dev_p = op.v("rx_p") - vcm
        dev_n = op.v("rx_n") - vcm
        assert 20e-3 < dev_p < 50e-3
        assert -50e-3 < dev_n < -20e-3

    def test_differential_swing_near_60mv(self, link):
        link.apply_data(1)
        op1 = dc_operating_point(link.circuit)
        link.apply_data(0)
        op0 = dc_operating_point(link.circuit)
        d1 = op1.v("rx_p") - op1.v("rx_n")
        d0 = op0.v("rx_p") - op0.v("rx_n")
        assert d1 == pytest.approx(-d0, abs=10e-3)  # symmetric
        assert 40e-3 < d1 < 100e-3

    def test_bias_error_inside_window(self, link):
        link.apply_data(1)
        op = dc_operating_point(link.circuit)
        err = op.v(link.term.vcm) - op.v(link.term.vcm_ref)
        assert abs(err) < 10e-3

    def test_mission_inventory(self, link):
        """12 transmitter FETs + 4 termination TG FETs; 4 series caps."""
        assert len(link.tx.mission_devices) == 12
        assert len(link.term.mission_devices) == 4
        assert len(link.mission_caps) == 4

    def test_device_roles_assigned(self, link):
        roles = {d.role for d in link.mission_devices}
        assert {"tx_strong", "tx_tap", "tx_weak", "termination_tg"} <= roles


class TestFaultResponses:
    """Representative structural faults and their paper-predicted outcome."""

    def _run_with(self, mutate):
        link = build_full_link()
        mutate(link.circuit)
        return run_link_static(link)[0]

    def test_weak_driver_short_detected(self, golden):
        def f(c):
            m = c["tx_p_weak_MP"]
            c.add_resistor(m.terminals["d"], m.terminals["s"], 10.0,
                           name="F_SHORT")
        assert self._run_with(f) != golden

    def test_series_cap_short_detected(self, golden):
        def f(c):
            cap = c["tx_p_C1"]
            c.add_resistor(cap.terminals["p"], cap.terminals["n"], 10.0,
                           name="F_SHORT")
        assert self._run_with(f) != golden

    def test_weak_driver_open_detected(self, golden):
        def f(c):
            m = c["tx_n_weak_MN"]
            m.terminals["s"] = "f_open"
            c.add_resistor("f_open", "0", 1e9, name="F_OPEN")
        assert self._run_with(f) != golden

    def test_tg_pmos_drain_open_not_dc_detectable(self, golden):
        """Paper: a drain open in one transmission-gate device leaves
        the statics legal (dynamic mismatch) — missed by the DC test.
        In this sizing the NMOS carries most of the termination current,
        so the PMOS opens are the DC-invisible ones."""
        def f(c):
            m = c["term_tgn_MP"]
            old = m.terminals["d"]
            m.terminals["d"] = "f_open"
            c.add_resistor("f_open", old, 1e14, name="F_OPEN")
        assert self._run_with(f) == golden

    def test_strong_driver_output_fault_not_dc_detectable(self, golden):
        """A strong-driver drain open floats the driver output, which
        couples only through the (DC-open) series cap — invisible to the
        line comparators; the probe flip-flops catch it during scan."""
        def f(c):
            m = c["tx_p_main_MN"]
            old = m.terminals["d"]
            m.terminals["d"] = "f_open"
            c.add_resistor("f_open", old, 1e14, name="F_OPEN")
        assert self._run_with(f) == golden

    def test_strong_driver_gate_short_loads_input_net(self, golden):
        """A gate-source short on the strong driver collapses the shared
        data net through the driver's finite output impedance, which the
        DC test sees (the weak driver shares that net)."""
        def f(c):
            m = c["tx_p_main_MN"]
            c.add_resistor(m.terminals["g"], m.terminals["s"], 10.0,
                           name="F_SHORT")
        assert self._run_with(f) != golden


class TestSubblockBuilders:
    def test_transmitter_standalone(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_vsource("d", "0", 1.2, name="VD")
        c.add_vsource("db", "0", 0.0, name="VDB")
        tx = build_transmitter(c, "tx", "d", "db", "outp", "outn")
        assert len(tx.mission_devices) == 12
        assert len(tx.mission_caps) == 4

    def test_termination_standalone(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_vsource("rp", "0", 0.63, name="VP")
        c.add_vsource("rn", "0", 0.57, name="VN")
        t = build_termination(c, "t", "rp", "rn")
        op = dc_operating_point(c)
        assert op.converged
        # data=1-like inputs: cmp_pos trips, cmp_neg does not
        assert op.v(t.cmp_pos_out) > 0.6
        assert op.v(t.cmp_neg_out) < 0.6

    def test_termination_without_test_circuits(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_vsource("rp", "0", 0.6, name="VP")
        c.add_vsource("rn", "0", 0.6, name="VN")
        t = build_termination(c, "t", "rp", "rn", with_test_circuits=False)
        assert t.dft_devices == []
        assert len(t.mission_devices) == 4
