"""Pluggable dense linear-solve backends for the MNA engine.

Every linear solve in the repo ultimately funnels through one of three
call shapes:

* ``factor(A)`` / ``solve_factored((lu, piv), b)`` — the cached-LU path
  used by :class:`repro.analog.assembly.LinearSolverCache` and replayed
  by the resilience ladder's refinement rung;
* ``solve_one(A, b)`` — a one-shot factor-and-solve;
* ``solve_stack(As, Bs)`` — *k* independent systems with a shared shape,
  stacked as ``(k, n, n)`` / ``(k, n)``.

A :class:`LinearBackend` supplies all three.  The module-level
:func:`factor` / :func:`solve_factored` pair is the one LU primitive
every single-system solve in the engine goes through: it calls LAPACK
``getrf`` / ``getrs`` directly (resolved once per dtype), which are the
routines scipy's ``lu_factor`` / ``lu_solve`` call with the same
arguments, so the bits are scipy's without the per-call wrapper cost.
The default :class:`SerialBackend` is that pair.  :class:`BatchedBackend`
overrides only ``solve_stack``: the whole stack is dispatched through a
single broadcast ``numpy.linalg.solve`` (one LAPACK ``gesv`` call over a
3-D operand), which is where the batched campaign path gets its speedup.

Backend choice is orthogonal to correctness: ``solve_stack`` returns a
per-item ``ok`` mask, and every caller is required to route not-ok items
(singular, non-finite) back through the serial resilience ladder — no
item may silently lose its ladder (see DESIGN.md §13).

Determinism note: on this BLAS, broadcast ``numpy.linalg.solve`` over a
``(k, n, n)`` stack is bit-identical to per-item ``numpy.linalg.solve``
(the property tests assert it), but *not* to the ``getrf``+``getrs``
pair.  Record-level equivalence between backends is therefore enforced
by the campaign byte-identity gate rather than assumed from solver
bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Tuple, Type, Union

import numpy as np
from scipy.linalg import get_lapack_funcs

from .._profiling import COUNTERS
from .solver import SolverError

Factorization = Tuple[np.ndarray, np.ndarray]


#: ``getrf`` per matrix dtype, ``getrs`` per (factor, rhs) dtype pair
_GETRF: Dict[np.dtype, Callable] = {}
_GETRS: Dict[Tuple[np.dtype, np.dtype], Callable] = {}


def factor(A: np.ndarray) -> Factorization:
    """LU-factor *A* with LAPACK ``getrf``.

    Exactly-singular matrices (an exact zero pivot, LAPACK ``info > 0``)
    raise :class:`SolverError`; near-singular systems return whatever
    LAPACK produces (faulted circuits rely on observing the resulting
    non-convergence rather than an exception).
    """
    getrf = _GETRF.get(A.dtype)
    if getrf is None:
        getrf = _GETRF[A.dtype] = get_lapack_funcs(("getrf",), (A,))[0]
    lu, piv, info = getrf(A)
    if info < 0:
        raise SolverError(
            f"MNA factorization failed: illegal value in {-info}th "
            f"argument of internal getrf (lu_factor)")
    if info > 0:
        raise SolverError("singular MNA matrix: exact zero pivot")
    return lu, piv


def solve_factored(factorization: Factorization,
                   b: np.ndarray) -> np.ndarray:
    """Solve ``A @ x = b`` (*b* a vector or a matrix of columns) with
    LAPACK ``getrs`` on a :func:`factor` result."""
    lu, piv = factorization
    key = (lu.dtype, b.dtype)
    getrs = _GETRS.get(key)
    if getrs is None:
        getrs = _GETRS[key] = get_lapack_funcs(("getrs",), (lu, b))[0]
    x, info = getrs(lu, piv, b)
    if info:
        raise ValueError(
            f"illegal value in {-info}th argument of internal getrs")
    return x


class LinearBackend:
    """Interface every backend implements; see module docstring."""

    name = "abstract"

    # -- single systems -------------------------------------------------
    def factor(self, A: np.ndarray) -> Factorization:
        raise NotImplementedError

    def solve_factored(self, factorization: Factorization,
                       b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def solve_one(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.solve_factored(self.factor(A), b)

    # -- stacked systems ------------------------------------------------
    def solve_stack(self, As: np.ndarray, Bs: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Solve ``As[j] @ Xs[j] = Bs[j]`` for every *j*.

        Returns ``(Xs, ok)`` where ``ok[j]`` is False for items whose
        solve failed (singular matrix) or produced non-finite values;
        such rows of ``Xs`` are undefined and the caller must re-route
        them through the serial resilience ladder.
        """
        raise NotImplementedError


class SerialBackend(LinearBackend):
    """LAPACK ``getrf``/``getrs`` per system — the bit-exact path."""

    name = "serial"
    factor = staticmethod(factor)
    solve_factored = staticmethod(solve_factored)

    def solve_stack(self, As: np.ndarray, Bs: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        k = As.shape[0]
        Xs = np.empty_like(Bs, dtype=float)
        ok = np.ones(k, dtype=bool)
        for j in range(k):
            try:
                Xs[j] = solve_factored(factor(As[j]), Bs[j])
            except SolverError:
                Xs[j] = np.nan
                ok[j] = False
        ok &= np.isfinite(Xs).all(axis=1)
        return Xs, ok


class BatchedBackend(SerialBackend):
    """Broadcast ``numpy.linalg.solve`` over the whole stack at once.

    Single-system calls inherit the LAPACK pair (so cached-LU replays and
    the refinement rung keep their historical bits); only ``solve_stack``
    differs.  A singular item makes the broadcast call raise, in which
    case the stack is retried per item with the same ``numpy`` solver —
    bit-identical for the healthy items on this BLAS — and the singular
    ones are flagged instead.
    """

    name = "batched"

    def solve_stack(self, As: np.ndarray, Bs: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        k = As.shape[0]
        COUNTERS.batched_solves += 1
        COUNTERS.batch_fill += k
        try:
            Xs = np.linalg.solve(As, Bs[:, :, np.newaxis])[:, :, 0]
            ok = np.isfinite(Xs).all(axis=1)
            return Xs, ok
        except np.linalg.LinAlgError:
            pass
        Xs = np.empty_like(Bs, dtype=float)
        ok = np.ones(k, dtype=bool)
        for j in range(k):
            try:
                Xs[j] = np.linalg.solve(As[j], Bs[j])
            except np.linalg.LinAlgError:
                Xs[j] = np.nan
                ok[j] = False
        ok &= np.isfinite(Xs).all(axis=1)
        return Xs, ok


#: backend registry the CLI / campaigns resolve ``--backend`` through
BACKENDS: "dict[str, Type[LinearBackend]]" = {
    SerialBackend.name: SerialBackend,
    BatchedBackend.name: BatchedBackend,
}

BackendSpec = Union[None, str, LinearBackend]

#: the serial backend every single-system solve defaults to
SERIAL = SerialBackend()
_current: LinearBackend = SERIAL


def resolve_backend(spec: BackendSpec) -> LinearBackend:
    """Turn ``None`` / a name / an instance into a :class:`LinearBackend`.

    ``None`` means "whatever is currently installed" (the serial LAPACK
    backend unless :func:`set_backend`/:func:`use_backend` changed it).
    """
    if spec is None:
        return _current
    if isinstance(spec, LinearBackend):
        return spec
    try:
        return BACKENDS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown linear backend {spec!r}; "
            f"choices: {sorted(BACKENDS)}") from None


def get_backend() -> LinearBackend:
    """The process-current backend (serial LAPACK by default)."""
    return _current


def set_backend(spec: BackendSpec) -> LinearBackend:
    """Install *spec* as the process-current backend and return it."""
    global _current
    _current = resolve_backend(spec)
    return _current


@contextmanager
def use_backend(spec: BackendSpec) -> Iterator[LinearBackend]:
    """Temporarily install *spec* as the process-current backend."""
    global _current
    prev = _current
    _current = resolve_backend(spec)
    try:
        yield _current
    finally:
        _current = prev
