"""LU accounting of the Newton solves: one factorization per iteration.

No solve reuses a factorization: each Newton iteration counts one
``lu_factor`` and factors its matrix once in rung 0
(``resilience.direct_solve``), keeping only that factorization (for the
ladder's refinement and the converged iterate's condition estimate),
and ``lu_reuse`` never counts.  On a linear circuit, whose matrix never
changes, every Newton iteration still factors once, and the condition
estimate adds no ``getrf``.
"""

import numpy as np

from repro.analog import (Circuit, dc_operating_point, get_policy,
                          step_waveform, transient)
from repro.analog import resilience
from repro.analog.resilience import condition_estimate_1norm, direct_solve
from repro.analog.solver import factor, solve_factored
from repro.core.profiling import COUNTERS


def _divider():
    c = Circuit("divider")
    c.add_vsource("a", "0", 1.0, name="V1")
    c.add_resistor("a", "b", 1e3)
    c.add_resistor("b", "0", 1e3)
    return c


def _rc_ladder(sections=8):
    c = Circuit("rcline")
    vs = c.add_vsource("n0", "0", 0.0, name="VS")
    for i in range(sections):
        c.add_resistor(f"n{i}", f"n{i + 1}", 500.0)
        c.add_capacitor(f"n{i + 1}", "0", 0.2e-12)
    vs.waveform = step_waveform(0.0, 1.0, 0.1e-9)
    return c


class TestLuReuseAccounting:
    def test_linear_rc_transient_factors_every_iteration(self, monkeypatch):
        """A linear RC line's matrix never changes, yet every Newton
        iteration factors once, and the condition estimates of the DC
        point and the last step reuse their iteration's factorization:
        LAPACK ``getrf`` runs exactly once per Newton iteration."""
        getrf_calls = []

        def counted_factor(A):
            getrf_calls.append(A.shape)
            return factor(A)

        monkeypatch.setattr(resilience, "factor", counted_factor)
        COUNTERS.reset()
        tr = transient(_rc_ladder(), 5e-9, 10e-12, probes=["n8"],
                       method="trap")
        assert tr.converged
        assert np.isfinite(tr.diagnostics.condition)
        assert COUNTERS.newton_iterations > 500
        assert COUNTERS.lu_factor == COUNTERS.newton_iterations
        assert len(getrf_calls) == COUNTERS.lu_factor
        assert COUNTERS.lu_reuse == 0

    def test_single_slot_hit_counts(self, monkeypatch):
        """Rung 0's factorization serves the condition estimate: one
        asked of a solve, and one estimated later on the factorization
        ``direct_solve`` returned, run no ``getrf`` of their own."""
        getrf_calls = []

        def counted_factor(A):
            getrf_calls.append(A.shape)
            return factor(A)

        monkeypatch.setattr(resilience, "factor", counted_factor)
        A = np.array([[5.0, 1.0], [1.0, 4.0]])
        b = np.array([1.0, 0.0])
        _, diag = resilience.resilient_solve(A.copy(), b,
                                             want_condition=True)
        assert len(getrf_calls) == 1
        _, res, lu_piv = direct_solve(A.copy(), b, get_policy())
        assert res is not None and len(getrf_calls) == 2
        cond = condition_estimate_1norm(A, lu_piv)
        assert cond == diag.condition and np.isfinite(cond)
        assert len(getrf_calls) == 2

    def test_single_slot_alternation_refactors(self):
        """Rung 0 factors every solve it is handed: A-A-B-A-B-B gives,
        each time, bitwise the answer and factorization a fresh
        ``getrf`` of that matrix gives."""
        A = np.array([[3.0, 1.0], [1.0, 3.0]])
        B = np.array([[7.0, 2.0], [2.0, 9.0]])
        b = np.array([1.0, 1.0])
        for M in (A, A, B, A, B, B):
            x, res, lu_piv = direct_solve(M.copy(), b, get_policy())
            assert res is not None
            assert x.tobytes() == solve_factored(factor(M), b).tobytes()
            assert lu_piv[0].tobytes() == factor(M)[0].tobytes()

    def test_reuse_is_bit_identical(self):
        """Replaying rung 0's factorization, as the refinement rung and
        the condition estimate do, is bitwise the solve that made it and
        a fresh factorization of the same matrix."""
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        b = rng.normal(size=6)
        fresh, _, lu_piv = direct_solve(A.copy(), b.copy(), get_policy())
        replay = solve_factored(lu_piv, b.copy())
        assert fresh.tobytes() == replay.tobytes()
        assert (condition_estimate_1norm(A, lu_piv)
                == condition_estimate_1norm(A))

    def test_reuse_disabled_never_counts(self):
        """No solve reuses a factorization: over repeated DC solves of
        one linear circuit ``lu_factor`` counts every Newton iteration
        and ``lu_reuse`` stays 0."""
        c = _divider()
        COUNTERS.reset()
        dc_operating_point(c)
        dc_operating_point(c)
        assert COUNTERS.lu_factor == COUNTERS.newton_iterations >= 2
        assert COUNTERS.lu_reuse == 0
