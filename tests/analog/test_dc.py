"""Unit tests for the DC operating-point solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog import Circuit, dc_operating_point, dc_sweep
from repro.analog import dc as dc_module
from repro.analog.solver import DEFAULT_GMIN, SolverError, build_index


class TestLinearCircuits:
    def test_voltage_divider(self):
        c = Circuit()
        c.add_vsource("in", "0", 1.2, name="V1")
        c.add_resistor("in", "mid", 2e3)
        c.add_resistor("mid", "0", 1e3)
        op = dc_operating_point(c)
        assert op.converged
        assert op.v("mid") == pytest.approx(0.4, rel=1e-6)

    @given(
        r1=st.floats(min_value=10.0, max_value=1e6),
        r2=st.floats(min_value=10.0, max_value=1e6),
        vin=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=40)
    def test_divider_property(self, r1, r2, vin):
        c = Circuit()
        c.add_vsource("in", "0", vin, name="V1")
        c.add_resistor("in", "mid", r1)
        c.add_resistor("mid", "0", r2)
        op = dc_operating_point(c)
        assert op.converged
        assert op.v("mid") == pytest.approx(vin * r2 / (r1 + r2),
                                            rel=1e-6, abs=1e-9)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add_isource("0", "out", 1e-3)  # 1 mA into node out
        c.add_resistor("out", "0", 1e3)
        op = dc_operating_point(c)
        assert op.converged
        assert op.v("out") == pytest.approx(1.0, rel=1e-6)

    def test_two_sources_superposition(self):
        c = Circuit()
        c.add_vsource("a", "0", 1.0, name="VA")
        c.add_vsource("b", "0", 2.0, name="VB")
        c.add_resistor("a", "m", 1e3)
        c.add_resistor("b", "m", 1e3)
        c.add_resistor("m", "0", 1e3)
        op = dc_operating_point(c)
        assert op.v("m") == pytest.approx(1.0, rel=1e-6)

    def test_vcvs_gain(self):
        c = Circuit()
        c.add_vsource("in", "0", 0.1, name="V1")
        c.add_vcvs("out", "0", "in", "0", gain=10.0)
        c.add_resistor("out", "0", 1e3)
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(1.0, rel=1e-6)

    def test_floating_node_with_capacitor_is_solvable(self):
        """gmin keeps a node attached only to a capacitor solvable."""
        c = Circuit()
        c.add_vsource("in", "0", 1.0, name="V1")
        c.add_capacitor("in", "float", 1e-12)
        op = dc_operating_point(c)
        assert op.converged

    def test_vdiff(self):
        c = Circuit()
        c.add_vsource("a", "0", 1.0, name="VA")
        c.add_resistor("a", "b", 1e3)
        c.add_resistor("b", "0", 1e3)
        op = dc_operating_point(c)
        assert op.vdiff("a", "b") == pytest.approx(0.5, rel=1e-6)


class TestNonlinearCircuits:
    def test_diode_drop(self):
        c = Circuit()
        c.add_vsource("in", "0", 1.2, name="V1")
        c.add_resistor("in", "a", 1e3)
        c.add_diode("a", "0")
        op = dc_operating_point(c)
        assert op.converged
        assert 0.4 < op.v("a") < 0.8

    def test_inverter_rails(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        vin = c.add_vsource("in", "0", 0.0, name="VIN")
        c.add_pmos("out", "in", "vdd")
        c.add_nmos("out", "in", "0")
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(1.2, abs=0.01)
        vin.voltage = 1.2
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(0.0, abs=0.01)

    def test_inverter_transfer_monotone_decreasing(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_vsource("in", "0", 0.0, name="VIN")
        c.add_pmos("out", "in", "vdd")
        c.add_nmos("out", "in", "0")
        sweep = dc_sweep(c, "VIN", np.linspace(0.0, 1.2, 13))
        vouts = [sweep[v].v("out") for v in sorted(sweep)]
        assert all(a >= b - 1e-6 for a, b in zip(vouts, vouts[1:]))

    def test_diode_connected_nmos_sets_gate_voltage(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_resistor("vdd", "d", 50e3)
        c.add_nmos("d", "d", "0")
        op = dc_operating_point(c)
        assert op.converged
        # node settles somewhat above V_T
        assert 0.3 < op.v("d") < 0.8

    def test_nmos_source_follower(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_vsource("g", "0", 1.0, name="VG")
        c.add_nmos("vdd", "g", "out")
        c.add_resistor("out", "0", 20e3)
        op = dc_operating_point(c)
        assert op.converged
        # follower output sits roughly V_GS below the gate (the EKV slope
        # factor acts like body effect, so the drop exceeds V_T0)
        assert 0.15 < op.v("out") < 0.9

    def test_current_mirror_copies_current(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        # reference branch: 20 uA forced into diode-connected device
        c.add_isource("vdd", "ref", 20e-6)
        c.add_nmos("ref", "ref", "0", w=2e-6)
        # mirror branch into a resistor load
        c.add_nmos("out", "ref", "0", w=2e-6)
        c.add_resistor("vdd", "out", 10e3)
        op = dc_operating_point(c)
        assert op.converged
        i_out = (1.2 - op.v("out")) / 10e3
        assert i_out == pytest.approx(20e-6, rel=0.25)

    def test_switch_open_and_closed(self):
        c = Circuit()
        c.add_vsource("in", "0", 1.0, name="V1")
        ctl = c.add_vsource("ctl", "0", 0.0, name="VC")
        c.add_switch("in", "out", "ctl", r_on=10.0, r_off=1e9)
        c.add_resistor("out", "0", 10e3)
        op = dc_operating_point(c)
        assert op.v("out") < 0.01  # switch open
        ctl.voltage = 1.2
        op = dc_operating_point(c)
        assert op.v("out") == pytest.approx(1.0, rel=0.01)  # closed


class TestSweepAndRobustness:
    def test_dc_sweep_returns_all_points(self):
        c = Circuit()
        c.add_vsource("in", "0", 0.0, name="V1")
        c.add_resistor("in", "out", 1e3)
        c.add_resistor("out", "0", 1e3)
        res = dc_sweep(c, "V1", [0.0, 0.5, 1.0])
        assert set(res) == {0.0, 0.5, 1.0}
        assert res[1.0].v("out") == pytest.approx(0.5, rel=1e-6)

    def test_dc_sweep_restores_source_value(self):
        c = Circuit()
        src = c.add_vsource("in", "0", 0.7, name="V1")
        c.add_resistor("in", "0", 1e3)
        dc_sweep(c, "V1", [0.0, 1.0])
        assert src.voltage == pytest.approx(0.7)

    def test_dc_sweep_rejects_non_source(self):
        c = Circuit()
        c.add_resistor("a", "0", 1e3, name="R1")
        c.add_vsource("a", "0", 1.0, name="V1")
        with pytest.raises(SolverError):
            dc_sweep(c, "R1", [0.0])

    def test_stacked_inverters_converge(self):
        """A 4-stage inverter chain exercises the homotopy fallbacks."""
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        c.add_vsource("n0", "0", 0.0, name="VIN")
        for i in range(4):
            a, b = f"n{i}", f"n{i + 1}"
            c.add_pmos(b, a, "vdd", name=f"MP{i}")
            c.add_nmos(b, a, "0", name=f"MN{i}")
        op = dc_operating_point(c)
        assert op.converged
        # even number of inversions: output equals the (low) input
        assert op.v("n4") == pytest.approx(0.0, abs=0.02)

    def test_operating_point_getitem(self):
        c = Circuit()
        c.add_vsource("a", "0", 1.0, name="V1")
        c.add_resistor("a", "0", 1e3)
        op = dc_operating_point(c)
        assert op["a"] == pytest.approx(1.0)
        assert op.v("0") == 0.0


class TestSourceStepping:
    """The source-stepping homotopy scales every independent source,
    waveform-driven ones included, and restores each afterwards."""

    def _scaled(self, c, node, scale):
        node_index, _, n_total = build_index(c)
        x, ok, _, _ = dc_module._newton(c, node_index, n_total,
                                        np.zeros(n_total), DEFAULT_GMIN,
                                        source_scale=scale)
        assert ok
        return x[node_index[node]]

    @pytest.mark.parametrize("waveform", [None, lambda t: 1.0],
                             ids=["level", "waveform"])
    def test_voltage_divider_at_a_tenth(self, waveform):
        c = Circuit()
        src = c.add_vsource("a", "0", 1.0, name="V1")
        src.waveform = waveform
        c.add_resistor("a", "b", 1e3)
        c.add_resistor("b", "0", 1e3)
        assert self._scaled(c, "b", 0.1) == pytest.approx(0.05, rel=1e-6)
        assert src.voltage == 1.0 and src.waveform is waveform
        assert dc_operating_point(c).v("b") == pytest.approx(0.5, rel=1e-6)

    def test_current_source_waveform_at_a_quarter(self):
        c = Circuit()
        src = c.add_isource("0", "a", 1e-3, name="I1")
        wf = src.waveform = lambda t: 1e-3
        c.add_resistor("a", "0", 1e3)
        assert self._scaled(c, "a", 0.25) == pytest.approx(0.25, rel=1e-6)
        assert src.current == 1e-3 and src.waveform is wf
