"""Shared MNA assembly used by the DC, transient, and AC analyses."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..core.profiling import COUNTERS
from .devices import StampContext
from .netlist import Circuit

#: an LU factorization as LAPACK ``getrf`` returns it: ``(lu, piv)``
Factorization = Tuple[np.ndarray, np.ndarray]


class SolverError(Exception):
    """Raised when an analysis fails to converge or is ill-posed."""


#: ``getrf`` per matrix dtype, ``getrs`` per (factor, rhs) dtype pair
_GETRF: Dict[np.dtype, Callable] = {}
_GETRS: Dict[Tuple[np.dtype, np.dtype], Callable] = {}


def factor(A: np.ndarray) -> Factorization:
    """LU-factor *A* with LAPACK ``getrf``.

    This pair (:func:`factor` / :func:`solve_factored`) is the engine's
    one LU primitive: rung 0 of every linear solve, the resilience
    ladder's other LU rungs and its condition estimate all go through
    it.  It calls LAPACK directly (resolved once per dtype):
    ``getrf`` / ``getrs`` are the routines scipy's ``lu_factor`` /
    ``lu_solve`` call with the same arguments, so the bits are scipy's
    without the per-call wrapper cost.

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


#: shunt conductance stamped from every node to ground by default
DEFAULT_GMIN = 1e-12


def build_index(circuit: Circuit) -> Tuple[Dict[str, int], int, int]:
    """Assign matrix indices to nodes and auxiliary branch currents.

    Returns ``(node_index, n_nodes, n_total)``; element ``aux_base``
    attributes are set as a side effect.  The result is kept on the
    circuit (``Circuit.index``) until its next structural edit, so
    repeated solves of one netlist sort its node set once.
    """
    if circuit.index is not None:
        return circuit.index
    nodes = circuit.nodes()
    node_index = {name: i for i, name in enumerate(nodes)}
    n_nodes = len(nodes)
    aux = n_nodes
    for elem in circuit:
        if elem.num_aux:
            elem.aux_base = aux
            aux += elem.num_aux
    circuit.index = (node_index, n_nodes, aux)
    return circuit.index


def assemble(circuit: Circuit, node_index: Dict[str, int], n_total: int,
             x: np.ndarray, mode: str, *, dt: float = 0.0, xprev=None,
             xop=None, omega: float = 0.0, method: str = "be",
             time: float = 0.0, gmin: float = DEFAULT_GMIN,
             dtype=float) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble the MNA system ``A @ x_new = b`` linearised at *x*.

    This is the reference per-element stamp loop.  The hot analyses go
    through :class:`repro.analog.assembly.CompiledAssembly` instead and
    fall back here only for element types the fast path doesn't know.
    """
    COUNTERS.assemblies_legacy += 1
    A = np.zeros((n_total, n_total), dtype=dtype)
    b = np.zeros(n_total, dtype=dtype)
    ctx = StampContext(A, b, x, node_index, mode, dt=dt, xprev=xprev,
                       xop=xop, omega=omega, method=method, time=time)
    for elem in circuit:
        elem.stamp(ctx)
    # gmin from every node to ground keeps floating subnets solvable
    n_nodes = len(node_index)
    for i in range(n_nodes):
        A[i, i] += gmin
    return A, b


def node_voltages(circuit: Circuit, node_index: Dict[str, int],
                  x: np.ndarray) -> Dict[str, float]:
    """Extract a node-name -> voltage mapping from solution vector *x*."""
    out = {"0": 0.0}
    for name, i in node_index.items():
        out[name] = float(np.real(x[i]))
    return out
