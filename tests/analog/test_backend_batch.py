"""Backend registry, stacked-solve equivalence, and LU-reuse accounting.

The batched campaign path rests on three facts this module pins down:

* the :mod:`repro.analog.backend` registry resolves names / instances /
  ``None`` the way the CLI and campaigns rely on;
* ``BatchedBackend.solve_stack`` (one broadcast LAPACK call) agrees
  with ``SerialBackend.solve_stack`` (LAPACK per item) to solver
  precision on well-conditioned stacks, flags singular items instead of
  poisoning their neighbours, and is *bit-identical* to per-item
  ``numpy.linalg.solve`` — the property the lockstep Newton loop's
  peel-to-serial logic depends on;
* :class:`LinearSolverCache` actually reports its factorization reuse:
  the ``lu_reuse`` counter must tick for a single-slot hit, and only
  the newest factorization is kept (an earlier bench artifact recorded
  ``lu_reuse=0`` over a session that demonstrably replayed
  factorizations — the accounting, not the cache, was broken).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._profiling import COUNTERS
from repro.analog.assembly import LinearSolverCache
from repro.analog.backend import (
    BACKENDS,
    BatchedBackend,
    SerialBackend,
    factor,
    get_backend,
    resolve_backend,
    solve_factored,
    use_backend,
)


def _stack(seed: int, k: int, n: int):
    """A well-conditioned random stack: diagonally dominant systems."""
    rng = np.random.default_rng(seed)
    As = rng.normal(size=(k, n, n))
    As += n * np.eye(n)
    Bs = rng.normal(size=(k, n))
    return As, Bs


class TestRegistry:
    def test_names(self):
        assert set(BACKENDS) == {"serial", "batched"}
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("batched").name == "batched"

    def test_instance_passthrough(self):
        be = BatchedBackend()
        assert resolve_backend(be) is be

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown linear backend"):
            resolve_backend("gpu")

    def test_none_means_current(self):
        assert resolve_backend(None) is get_backend()
        with use_backend("batched") as be:
            assert be.name == "batched"
            assert resolve_backend(None) is be
        assert get_backend().name == "serial"

    def test_batched_single_system_is_serial(self):
        """Cached-LU replays keep their historical scipy bits."""
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        xs = SerialBackend().solve_one(A.copy(), b)
        xb = BatchedBackend().solve_one(A.copy(), b)
        assert xs.tobytes() == xb.tobytes()


class TestSolveStack:
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 12),
           n=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_batched_matches_serial(self, seed, k, n):
        As, Bs = _stack(seed, k, n)
        Xs_s, ok_s = SerialBackend().solve_stack(As.copy(), Bs.copy())
        Xs_b, ok_b = BatchedBackend().solve_stack(As.copy(), Bs.copy())
        assert ok_s.all() and ok_b.all()
        np.testing.assert_allclose(Xs_b, Xs_s, rtol=1e-9, atol=1e-12)

    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(2, 10),
           n=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_singular_item_is_flagged_not_contagious(self, seed, k, n):
        """An ill item must not cost its stack-mates their answers."""
        As, Bs = _stack(seed, k, n)
        bad = seed % k
        As[bad] = 0.0                    # exactly singular
        for be in (SerialBackend(), BatchedBackend()):
            Xs, ok = be.solve_stack(As.copy(), Bs.copy())
            assert not ok[bad]
            good = np.ones(k, dtype=bool)
            good[bad] = False
            assert ok[good].all()
            res = np.einsum("kij,kj->ki", As[good], Xs[good]) - Bs[good]
            assert np.abs(res).max() < 1e-8

    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 12),
           n=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_broadcast_bit_identical_to_per_item_numpy(self, seed, k, n):
        """The lockstep loop peels items to the serial ladder assuming a
        (k,n,n) broadcast solve returns the same bits as solving each
        item alone — i.e. batch *membership* never changes an answer."""
        As, Bs = _stack(seed, k, n)
        Xs, ok = BatchedBackend().solve_stack(As, Bs)
        assert ok.all()
        for j in range(k):
            one = np.linalg.solve(As[j], Bs[j])
            assert one.tobytes() == Xs[j].tobytes()

    def test_ill_conditioned_stack_still_agrees(self):
        """Hilbert-like systems (cond ~ 1e12) stay within ladder
        tolerance between the two implementations."""
        n, k = 8, 4
        i, j = np.indices((n, n))
        H = 1.0 / (i + j + 1.0)
        As = np.stack([H * (m + 1) for m in range(k)])
        Bs = np.ones((k, n))
        Xs_s, ok_s = SerialBackend().solve_stack(As.copy(), Bs.copy())
        Xs_b, ok_b = BatchedBackend().solve_stack(As.copy(), Bs.copy())
        assert ok_s.all() and ok_b.all()
        np.testing.assert_allclose(Xs_b, Xs_s, rtol=1e-4)

    def test_counters(self):
        As, Bs = _stack(7, 5, 4)
        COUNTERS.reset()
        BatchedBackend().solve_stack(As, Bs)
        assert COUNTERS.batched_solves == 1
        assert COUNTERS.batch_fill == 5


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
