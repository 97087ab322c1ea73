"""Compiled-plan re-parameterisation (``Circuit.retune``).

The Monte-Carlo die sweep relies on editing device parameters *without*
recompiling the assembly plan: ``retune()`` bumps the parameter
revision, and ``get_compiled`` refreshes the cached plan's device
arrays in place.  The refreshed plan must solve identically to a
freshly compiled circuit carrying the same parameters.
"""

import pytest

from repro.core.profiling import COUNTERS
from repro.analog import Circuit, dc_operating_point
from repro.analog.mosfet import MOSFET


def _inverter(vin=0.6):
    c = Circuit()
    c.add_vsource("vdd", "0", 1.2, name="VDD")
    c.add_vsource("in", "0", vin, name="VIN")
    c.add_pmos("out", "in", "vdd", name="MP")
    c.add_nmos("out", "in", "0", name="MN")
    c.add_resistor("out", "0", 1e6, name="RL")
    return c


def _shift(circuit, dvt, kp_scale):
    for dev in circuit.elements_of_type(MOSFET):
        dev.params = dev.params.corner(dvt=dvt, kp_scale=kp_scale)


class TestRetune:
    def test_retuned_solution_matches_fresh_compile(self):
        c = _inverter()
        dc_operating_point(c)               # compile + cache the plan
        _shift(c, dvt=0.03, kp_scale=0.9)
        c.retune()
        v_retuned = dc_operating_point(c).v("out")

        fresh = _inverter()
        _shift(fresh, dvt=0.03, kp_scale=0.9)
        v_fresh = dc_operating_point(fresh).v("out")
        assert v_retuned == pytest.approx(v_fresh, abs=1e-12)

    def test_retune_actually_changes_the_answer(self):
        c = _inverter()
        v0 = dc_operating_point(c).v("out")
        _shift(c, dvt=0.08, kp_scale=0.8)
        c.retune()
        v1 = dc_operating_point(c).v("out")
        assert v1 != pytest.approx(v0, abs=1e-6)

    def test_retune_reuses_the_compiled_plan(self):
        c = _inverter()
        dc_operating_point(c)
        compiles_before = COUNTERS.compile_count
        retunes_before = COUNTERS.plan_retunes
        _shift(c, dvt=0.02, kp_scale=0.95)
        c.retune()
        dc_operating_point(c)
        assert COUNTERS.compile_count == compiles_before
        assert COUNTERS.plan_retunes == retunes_before + 1

    def test_stale_plan_is_not_reused_silently(self):
        """Without retune(), an in-place parameter edit keeps solving
        with the stale arrays — the documented contract that retune()
        (or touch()) is required after mutation."""
        c = _inverter()
        v0 = dc_operating_point(c).v("out")
        _shift(c, dvt=0.08, kp_scale=0.8)
        v_stale = dc_operating_point(c).v("out")
        assert v_stale == pytest.approx(v0, abs=1e-9)

    def test_repeated_retunes_converge_to_latest_params(self):
        c = _inverter()
        dc_operating_point(c)
        for dvt in (0.01, -0.02, 0.05):
            _shift(c, dvt=dvt, kp_scale=1.0)
            c.retune()
            dc_operating_point(c)
        fresh = _inverter()
        _shift(fresh, dvt=0.01 - 0.02 + 0.05, kp_scale=1.0)
        assert (dc_operating_point(c).v("out")
                == pytest.approx(dc_operating_point(fresh).v("out"),
                                 abs=1e-12))
