"""Equivalence and caching tests for the compiled MNA fast path.

The compiled assembly (:mod:`repro.analog.assembly`) must reproduce the
reference per-element stamp loop (:func:`repro.analog.solver.assemble`)
to floating-point noise in every analysis mode, and its plans must be
cached per circuit — these tests pin both properties so future engine
work cannot silently drift from the reference physics.
"""

import numpy as np
import pytest

from repro.analog import (
    Circuit,
    ac_analysis,
    clock_waveform,
    dc_operating_point,
    get_compiled,
)
from repro.analog.devices import Capacitor
from repro.analog.solver import assemble, build_index
from repro.core.profiling import COUNTERS


def receiver_circuit():
    """The charge-pump + window-comparator bench (MOSFETs, switches,
    caps, VCVS — every stamp family the fast path compiles)."""
    from repro.dft.duts import build_receiver_dut

    dut = build_receiver_dut()
    dut.set_condition()
    return dut.circuit


def random_x(n_total, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.2, n_total)


def inverter_circuit():
    ckt = Circuit("inv")
    ckt.add_vsource("vdd", "0", 1.2, name="VDD")
    vin = ckt.add_vsource("in", "0", 0.0, name="VIN")
    ckt.add_pmos("out", "in", "vdd", name="MP")
    ckt.add_nmos("out", "in", "0", name="MN")
    ckt.add_capacitor("out", "0", 10e-15)
    vin.waveform = clock_waveform(2e-9)
    return ckt


class TestAssemblyEquivalence:
    def test_dc_matches_reference_loop(self):
        circuit = receiver_circuit()
        node_index, _, n_total = build_index(circuit)
        compiled = get_compiled(circuit, "dc", node_index=node_index,
                                n_total=n_total)
        for seed in range(3):
            x = random_x(n_total, seed)
            a_ref, b_ref = assemble(circuit, node_index, n_total, x, "dc")
            a, b = compiled.assemble(x)
            np.testing.assert_allclose(a, a_ref, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(b, b_ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_transient_matches_reference_loop(self, method):
        circuit = receiver_circuit()
        node_index, _, n_total = build_index(circuit)
        dt = 0.1e-9
        for cap in circuit.elements_of_type(Capacitor):
            cap.begin_transient()
        compiled = get_compiled(circuit, "tran", node_index=node_index,
                                n_total=n_total, dt=dt, method=method)
        x = random_x(n_total, 11)
        xprev = random_x(n_total, 12)
        a_ref, b_ref = assemble(circuit, node_index, n_total, x, "tran",
                                dt=dt, xprev=xprev, method=method)
        a, b = compiled.assemble(x, xprev=xprev)
        np.testing.assert_allclose(a, a_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, rtol=1e-9, atol=1e-12)

    def test_ac_decomposition_matches_reference_loop(self):
        """The swept A(w) = A0 + jw*C decomposition must equal a direct
        reference assembly at every frequency."""
        circuit = receiver_circuit()
        op = dc_operating_point(circuit)
        assert op.converged
        node_index, _, n_total = build_index(circuit)
        xz = np.zeros(n_total, dtype=complex)
        a0, b0 = assemble(circuit, node_index, n_total, xz, "ac",
                          xop=op.x, omega=0.0, dtype=complex)
        a1, _ = assemble(circuit, node_index, n_total, xz, "ac",
                         xop=op.x, omega=1.0, dtype=complex)
        cmat = (a1 - a0).imag
        for f in (1e6, 1e8, 2.5e9):
            omega = 2.0 * np.pi * f
            a_ref, b_ref = assemble(circuit, node_index, n_total, xz, "ac",
                                    xop=op.x, omega=omega, dtype=complex)
            np.testing.assert_allclose(a0 + (1j * omega) * cmat, a_ref,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(b0, b_ref, rtol=0, atol=1e-12)

    def test_ac_sweep_matches_analytic_rc(self):
        ckt = Circuit("rc")
        ckt.add_vsource("in", "0", 0.0, name="VS")
        ckt.add_resistor("in", "out", 1e3)
        ckt.add_capacitor("out", "0", 1e-12)
        freqs = np.logspace(6, 10, 25)
        res = ac_analysis(ckt, "VS", freqs)
        expected = 1.0 / (1.0 + 1j * 2 * np.pi * freqs * 1e-9)
        np.testing.assert_allclose(res.v("out"), expected, rtol=1e-6)

    def test_unknown_element_falls_back_to_reference(self):
        """A Diode has no compiled stamp; the fast path must route it
        through the legacy StampContext and still match exactly."""
        ckt = Circuit("diode_rc")
        ckt.add_vsource("in", "0", 1.0, name="VS")
        ckt.add_resistor("in", "a", 1e3)
        ckt.add_diode("a", "0")
        node_index, _, n_total = build_index(ckt)
        compiled = get_compiled(ckt, "dc", node_index=node_index,
                                n_total=n_total)
        x = random_x(n_total, 7) * 0.5
        a_ref, b_ref = assemble(ckt, node_index, n_total, x, "dc")
        a, b = compiled.assemble(x)
        np.testing.assert_allclose(a, a_ref, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(b, b_ref, rtol=1e-9, atol=1e-15)


class TestCompiledPlanCache:
    def test_plan_reused_across_analyses(self):
        circuit = inverter_circuit()
        node_index, _, n_total = build_index(circuit)
        COUNTERS.reset()
        first = get_compiled(circuit, "dc", node_index=node_index,
                             n_total=n_total)
        again = get_compiled(circuit, "dc", node_index=node_index,
                             n_total=n_total)
        assert again is first
        assert COUNTERS.compiled_cache_hits == 1
        assert COUNTERS.compile_count == 1

    def test_structural_edit_invalidates_plan(self):
        circuit = inverter_circuit()
        node_index, _, n_total = build_index(circuit)
        first = get_compiled(circuit, "dc", node_index=node_index,
                             n_total=n_total)
        circuit.add_resistor("out", "0", 1e6)
        node_index, _, n_total = build_index(circuit)
        assert get_compiled(circuit, "dc", node_index=node_index,
                            n_total=n_total) is not first

    def test_touch_invalidates_plan(self):
        circuit = inverter_circuit()
        node_index, _, n_total = build_index(circuit)
        first = get_compiled(circuit, "dc", node_index=node_index,
                             n_total=n_total)
        circuit["MN"].w *= 2.0          # in-place device edit...
        circuit.touch()                 # ...must be declared
        assert get_compiled(circuit, "dc", node_index=node_index,
                            n_total=n_total) is not first

    def test_clone_starts_with_empty_plan_cache(self):
        circuit = inverter_circuit()
        node_index, _, n_total = build_index(circuit)
        get_compiled(circuit, "dc", node_index=node_index, n_total=n_total)
        assert circuit._compiled_cache
        assert circuit.clone()._compiled_cache == {}
