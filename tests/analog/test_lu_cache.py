"""LU accounting of the Newton solves: one factorization per iteration.

No solve reuses a factorization: ``CompiledAssembly.solve_diag`` counts
one ``lu_factor`` and factors its matrix, keeping only that
factorization (one slot, for the ladder's refinement and the converged
iterate's condition estimate), and ``lu_reuse`` never counts.  On a
linear circuit, whose matrix never changes, every Newton iteration
still factors once, and the condition estimate adds no ``getrf``.
"""

import numpy as np

from repro.analog import (Circuit, get_compiled, step_waveform,
                          transient)
from repro.analog import resilience
from repro.analog.resilience import condition_estimate_1norm
from repro.analog.solver import build_index, factor, solve_factored
from repro.core.profiling import COUNTERS


def _plan():
    """A DC plan to hand matrices to (solve_diag does not read its own
    circuit)."""
    c = Circuit("divider")
    c.add_vsource("a", "0", 1.0, name="V1")
    c.add_resistor("a", "0", 1e3)
    node_index, _, n_total = build_index(c)
    return get_compiled(c, "dc", node_index=node_index, n_total=n_total)


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
        """A hit on the plan's one slot is not a factorization: the
        condition estimate asked of a solve, and one estimated later on
        the kept factorization, run no ``getrf`` of their own, so
        ``lu_factor`` counts the one solve and ``lu_reuse`` stays 0."""
        getrf_calls = []

        def counted_factor(A):
            getrf_calls.append(A.shape)
            return factor(A)

        monkeypatch.setattr(resilience, "factor", counted_factor)
        A = np.array([[5.0, 1.0], [1.0, 4.0]])
        plan = _plan()
        COUNTERS.reset()
        _, diag = plan.solve_diag(A.copy(), np.array([1.0, 0.0]),
                                  want_condition=True)
        assert COUNTERS.lu_factor == 1 and len(getrf_calls) == 1
        cond = condition_estimate_1norm(A, plan.factorization)
        assert cond == diag.condition and np.isfinite(cond)
        assert COUNTERS.lu_factor == 1 and len(getrf_calls) == 1
        assert COUNTERS.lu_reuse == 0

    def test_single_slot_alternation_refactors(self):
        """The plan keeps only the newest factorization: A-A-B-A-B-B
        factors every solve, each answer is bitwise the one a fresh
        factorization gives, and a repeated matrix gives the same bits
        again."""
        A = np.array([[3.0, 1.0], [1.0, 3.0]])
        B = np.array([[7.0, 2.0], [2.0, 9.0]])
        b = np.array([1.0, 1.0])
        plan = _plan()
        COUNTERS.reset()
        for M in (A, A, B, A, B, B):
            x, _ = plan.solve_diag(M.copy(), b)
            assert x.tobytes() == solve_factored(factor(M), b).tobytes()
            assert (plan.factorization[0].tobytes()
                    == factor(M)[0].tobytes())
        assert COUNTERS.lu_factor == 6

    def test_reuse_is_bit_identical(self):
        """Replaying the kept factorization, as the refinement rung and
        the condition estimate do, is bitwise the solve that made it and
        a fresh factorization of the same matrix."""
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        b = rng.normal(size=6)
        plan = _plan()
        fresh, _ = plan.solve_diag(A.copy(), b.copy())
        replay = solve_factored(plan.factorization, b.copy())
        assert fresh.tobytes() == replay.tobytes()
        assert (condition_estimate_1norm(A, plan.factorization)
                == condition_estimate_1norm(A))

    def test_reuse_disabled_never_counts(self):
        """No solve reuses a factorization: the counter stays 0 over
        repeated solves of one matrix."""
        A = np.array([[2.0, 0.0], [0.0, 2.0]])
        b = np.array([1.0, 1.0])
        plan = _plan()
        COUNTERS.reset()
        plan.solve_diag(A.copy(), b)
        plan.solve_diag(A.copy(), b)
        assert COUNTERS.lu_factor == 2
        assert COUNTERS.lu_reuse == 0
