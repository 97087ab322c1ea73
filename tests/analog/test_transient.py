"""Unit tests for the transient integrator and stimulus helpers."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog import (
    Circuit,
    bit_waveform,
    clock_waveform,
    step_waveform,
    transient,
)

# the package re-exports the function under the module's own name
transient_module = importlib.import_module("repro.analog.transient")


def rc_circuit(r=1e3, c=1e-12):
    ckt = Circuit("rc")
    vs = ckt.add_vsource("in", "0", 0.0, name="VS")
    ckt.add_resistor("in", "out", r)
    ckt.add_capacitor("out", "0", c)
    return ckt, vs


class TestRCStep:
    def test_exponential_charging(self):
        ckt, vs = rc_circuit()
        vs.waveform = step_waveform(0.0, 1.0, 0.0, t_rise=1e-15)
        tr = transient(ckt, 5e-9, 10e-12, probes=["out"])
        tau = 1e-9
        for t_probe in (0.5e-9, 1e-9, 2e-9, 3e-9):
            expected = 1.0 - math.exp(-t_probe / tau)
            assert tr.at("out", t_probe) == pytest.approx(expected, abs=0.02)

    def test_final_value_reaches_input(self):
        ckt, vs = rc_circuit()
        vs.waveform = step_waveform(0.0, 1.0, 0.0, t_rise=1e-15)
        tr = transient(ckt, 10e-9, 20e-12, probes=["out"])
        assert tr.final("out") == pytest.approx(1.0, abs=1e-3)

    def test_starts_from_dc_operating_point(self):
        ckt, vs = rc_circuit()
        vs.voltage = 0.8  # constant source: output should stay at 0.8
        tr = transient(ckt, 2e-9, 20e-12, probes=["out"])
        assert tr.v("out")[0] == pytest.approx(0.8, abs=1e-3)
        assert tr.final("out") == pytest.approx(0.8, abs=1e-3)

    def test_trapezoidal_method_runs(self):
        ckt, vs = rc_circuit()
        vs.waveform = step_waveform(0.0, 1.0, 0.0, t_rise=1e-15)
        tr = transient(ckt, 3e-9, 10e-12, probes=["out"], method="trap")
        assert tr.converged
        assert tr.final("out") == pytest.approx(1.0 - math.exp(-3.0), abs=0.05)

    @given(r=st.floats(min_value=100, max_value=10e3),
           c=st.floats(min_value=0.1e-12, max_value=5e-12))
    @settings(max_examples=15, deadline=None)
    def test_one_tau_is_63_percent(self, r, c):
        ckt, vs = rc_circuit(r, c)
        vs.waveform = step_waveform(0.0, 1.0, 0.0, t_rise=1e-15)
        tau = r * c
        tr = transient(ckt, 2 * tau, tau / 100, probes=["out"])
        assert tr.at("out", tau) == pytest.approx(1 - math.exp(-1), abs=0.03)


class TestInverterSwitching:
    def test_inverter_responds_to_step(self):
        c = Circuit()
        c.add_vsource("vdd", "0", 1.2, name="VDD")
        vin = c.add_vsource("in", "0", 0.0, name="VIN")
        vin.waveform = step_waveform(0.0, 1.2, 1e-9, t_rise=20e-12)
        c.add_pmos("out", "in", "vdd")
        c.add_nmos("out", "in", "0")
        c.add_capacitor("out", "0", 10e-15)
        tr = transient(c, 3e-9, 10e-12, probes=["in", "out"])
        assert tr.at("out", 0.5e-9) > 1.1   # before the step
        assert tr.at("out", 2.5e-9) < 0.1   # after the step


class TestResultAccessors:
    def test_ground_wave_is_zero(self):
        ckt, _ = rc_circuit()
        tr = transient(ckt, 1e-9, 100e-12, probes=["out"])
        assert np.all(tr.v("0") == 0.0)

    def test_vdiff(self):
        ckt, vs = rc_circuit()
        vs.voltage = 1.0
        tr = transient(ckt, 1e-9, 100e-12, probes=["in", "out"])
        d = tr.vdiff("in", "out")
        assert d.shape == tr.time.shape


class TestStop:
    """``stop`` ends a run at a decided answer; the samples it returns
    are exactly the unstopped run's up to the deciding step."""

    def _run(self, stop=None):
        ckt, vs = rc_circuit()
        vs.waveform = step_waveform(0.0, 1.0, 0.1e-9, t_rise=10e-12)
        return transient(ckt, 3e-9, 20e-12, probes=["in", "out"],
                         stop=stop)

    def test_stopped_run_is_a_bitwise_prefix(self):
        full = self._run()
        seen = []

        def stop(t, v):
            seen.append((t, tuple(v)))
            return v[1] > 0.5

        tr = self._run(stop)
        n = len(tr.time)
        assert 1 < n < len(full.time)
        assert np.array_equal(tr.time, full.time[:n])
        for node in ("in", "out"):
            assert np.array_equal(tr.v(node), full.v(node)[:n])
        # called on every accepted step, probe voltages in probe order,
        # and the run ended at the first step that answered true
        assert seen == [(full.time[k], (full.v("in")[k], full.v("out")[k]))
                        for k in range(1, n)]
        assert tr.v("out")[-1] > 0.5
        assert (tr.v("out")[:-1] <= 0.5).all()

    def test_predicate_that_never_fires_changes_nothing(self):
        full = self._run()
        tr = self._run(lambda t, v: False)
        assert np.array_equal(tr.time, full.time)
        assert np.array_equal(tr.v("out"), full.v("out"))


def _rc_recurrence(method, times, substeps, r=1e3, c=1e-12,
                   wf=step_waveform(0.0, 1.0, 0.1e-9, t_rise=10e-12)):
    """The RC output integrated by hand: BE or trapezoidal companion
    recurrence over *times*, the interval ending at ``times[k]`` split
    into ``substeps.get(k, 1)`` equal sub-steps."""
    v, i = 0.0, 0.0
    out = [v]
    for k in range(1, len(times)):
        n = substeps.get(k, 1)
        h = (times[k] - times[k - 1]) / n
        for j in range(1, n + 1):
            vin = wf(times[k - 1] + j * h)
            if method == "trap":
                g = 2.0 * c / h
                v_new = (vin / r + g * v + i) / (1.0 / r + g)
                i = g * (v_new - v) - i
            else:
                g = c / h
                v_new = (vin / r + g * v) / (1.0 / r + g)
            v = v_new
        out.append(v)
    return np.array(out)


class TestStepHalving:
    """A step whose Newton iteration stalls is retried at dt/2, dt/4,
    dt/8; each sub-step integrates from the one before it."""

    DT = 0.2e-9
    #: the interval the tests force to halve ends at 4 * DT = 0.8 ns
    K = 4

    def _stall(self, monkeypatch, attempts):
        """Reject each listed ``(end time, step size)`` attempt once."""
        real = transient_module.newton
        pending = list(attempts)

        def newton(plan, x0, **kwargs):
            for n, (t_end, h) in enumerate(pending):
                if (math.isclose(kwargs["time"], t_end)
                        and math.isclose(plan.dt, h)):
                    del pending[n]
                    return x0.copy(), False, 1, None
            return real(plan, x0, **kwargs)

        monkeypatch.setattr(transient_module, "newton", newton)
        return pending

    def _run(self, method):
        ckt, vs = rc_circuit()
        vs.waveform = step_waveform(0.0, 1.0, 0.1e-9, t_rise=10e-12)
        return transient(ckt, 2e-9, self.DT, probes=["out"], method=method)

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_unforced_run_follows_the_recurrence(self, method):
        tr = self._run(method)
        want = _rc_recurrence(method, tr.time, {})
        assert np.abs(tr.v("out") - want).max() < 1e-8

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_halved_interval_follows_two_half_steps(self, monkeypatch,
                                                    method):
        t_end = self.K * self.DT
        pending = self._stall(monkeypatch, [(t_end, self.DT)])
        tr = self._run(method)
        assert pending == []
        assert tr.converged
        want = _rc_recurrence(method, tr.time, {self.K: 2})
        assert np.abs(tr.v("out") - want).max() < 1e-8

    def test_level_failing_midway_restarts_from_interval_history(
            self, monkeypatch):
        """The dt/2 level stalls on its second sub-step, after its first
        was accepted; the dt/4 level must start from the interval's own
        trapezoidal history, not the abandoned half step's."""
        t_end = self.K * self.DT
        pending = self._stall(monkeypatch, [(t_end, self.DT),
                                            (t_end, self.DT / 2)])
        tr = self._run("trap")
        assert pending == []
        assert tr.converged
        want = _rc_recurrence("trap", tr.time, {self.K: 4})
        assert np.abs(tr.v("out") - want).max() < 1e-8


class TestWaveforms:
    def test_step_before_and_after(self):
        wf = step_waveform(0.2, 1.0, 5e-9, t_rise=1e-9)
        assert wf(0.0) == 0.2
        assert wf(4.9e-9) == 0.2
        assert wf(6.1e-9) == 1.0
        assert 0.2 < wf(5.5e-9) < 1.0

    def test_clock_levels_and_period(self):
        wf = clock_waveform(1e-9, v_low=0.0, v_high=1.2, t_rise=10e-12)
        assert wf(0.3e-9) == pytest.approx(1.2)
        assert wf(0.8e-9) == pytest.approx(0.0)
        assert wf(1.3e-9) == pytest.approx(1.2)  # periodic

    def test_clock_duty_cycle(self):
        wf = clock_waveform(1e-9, duty=0.25, t_rise=1e-12)
        assert wf(0.1e-9) == pytest.approx(1.2)
        assert wf(0.5e-9) == pytest.approx(0.0)

    def test_bit_waveform_sequence(self):
        wf = bit_waveform([1, 0, 1, 1], 1e-9, t_rise=1e-12)
        assert wf(0.5e-9) == pytest.approx(1.2)
        assert wf(1.5e-9) == pytest.approx(0.0)
        assert wf(2.5e-9) == pytest.approx(1.2)
        assert wf(3.5e-9) == pytest.approx(1.2)

    def test_bit_waveform_holds_last_bit(self):
        wf = bit_waveform([0, 1], 1e-9)
        assert wf(10e-9) == pytest.approx(1.2)

    def test_bit_waveform_transition_ramp(self):
        wf = bit_waveform([0, 1], 1e-9, t_rise=100e-12)
        mid = wf(1e-9 + 50e-12)
        assert 0.0 < mid < 1.2
