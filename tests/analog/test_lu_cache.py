"""LU-reuse accounting of the single-slot :class:`LinearSolverCache`.

The cache must actually report its factorization reuse: the
``lu_reuse`` counter must tick for a single-slot hit, and only the
newest factorization is kept (an earlier bench artifact recorded
``lu_reuse=0`` over a session that demonstrably replayed
factorizations — the accounting, not the cache, was broken).
"""

import numpy as np

from repro._profiling import COUNTERS
from repro.analog.assembly import LinearSolverCache
from repro.analog.solver import factor, solve_factored


class TestLuReuseAccounting:
    """Regression: the cache must *count* the reuse it performs."""

    def test_single_slot_hit_counts(self):
        A = np.array([[5.0, 1.0], [1.0, 4.0]])
        cache = LinearSolverCache()
        COUNTERS.reset()
        x1 = cache.solve(A.copy(), np.array([1.0, 0.0]))
        assert COUNTERS.lu_factor == 1 and COUNTERS.lu_reuse == 0
        x2 = cache.solve(A.copy(), np.array([0.0, 1.0]))
        assert COUNTERS.lu_factor == 1
        assert COUNTERS.lu_reuse == 1
        # the replay is the same factorization: solving the first rhs
        # again is bitwise what the fresh factorization produced
        assert cache.solve(A.copy(),
                           np.array([1.0, 0.0])).tobytes() == x1.tobytes()
        assert np.isfinite(x2).all()

    def test_single_slot_alternation_refactors(self):
        """The cache keeps only the newest factorization: A-B-A-B
        alternation factors every solve, and each answer is bitwise the
        one a fresh factorization gives."""
        A = np.array([[3.0, 1.0], [1.0, 3.0]])
        B = np.array([[7.0, 2.0], [2.0, 9.0]])
        b = np.array([1.0, 1.0])
        cache = LinearSolverCache()
        COUNTERS.reset()
        for _ in range(3):
            for M in (A, B):
                x = cache.solve(M.copy(), b)
                assert x.tobytes() == solve_factored(factor(M), b).tobytes()
        assert COUNTERS.lu_factor == 6
        assert COUNTERS.lu_reuse == 0

    def test_reuse_is_bit_identical(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        b = rng.normal(size=6)
        cache = LinearSolverCache()
        fresh = cache.solve(A.copy(), b.copy())
        replay = cache.solve(A.copy(), b.copy())
        assert fresh.tobytes() == replay.tobytes()

    def test_reuse_disabled_never_counts(self):
        A = np.array([[2.0, 0.0], [0.0, 2.0]])
        b = np.array([1.0, 1.0])
        cache = LinearSolverCache()
        COUNTERS.reset()
        cache.solve(A.copy(), b)
        cache.solve(A.copy(), b, reuse=False)
        assert COUNTERS.lu_factor == 2
        assert COUNTERS.lu_reuse == 0
