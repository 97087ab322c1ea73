"""Slow oracle for one Newton iteration of the compiled MNA engine.

The product's ``CompiledAssembly.assemble`` stamps the EKV MOSFETs on
stacked ``(3, m)`` / ``(2, m)`` arrays, and ``solve_diag`` factors with
LAPACK ``getrf``/``getrs`` directly, keeps one LU slot and returns right
after a verified rung 0.  This module keeps the code those replaced:
the per-terminal MOSFET stamp, the scipy ``lu_factor``/``lu_solve``
solver cache with its sticky store of repeated matrices, and the
resilience ladder that always walks to its verdict.
``test_newton_kernel.py`` holds product and oracle to bitwise-equal
``A``, ``b``, ``x`` and ``SolveDiagnostics``.

The oracle counts into its own :data:`COUNTERS`, so running it beside
the product leaves the product's counters alone.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve
from scipy.special import expit

from repro.core.profiling import Counters
from repro.analog.assembly import CompiledAssembly
from repro.analog.mosfet import PHI_T
from repro.analog.resilience import (RUNG_DIRECT, RUNG_EQUILIBRATED,
                                     RUNG_LSTSQ, RUNG_REFINED,
                                     RUNG_UNSOLVABLE, NumericsPolicy,
                                     SolveDiagnostics, UnsolvableError,
                                     get_policy)
from repro.analog.solver import SolverError

#: the oracle's own tally (lu_factor, lu_reuse, rescue_*, ...)
COUNTERS = Counters()

_STICKY_MAX = 12
_SEEN_MAX = 4096


# ----------------------------------------------------------------------
# the MOSFET stamp
# ----------------------------------------------------------------------
_PARAMS: Dict[Tuple[int, int], tuple] = {}


def _mosfet_arrays(plan):
    """The per-device arrays the original ``_compile_mosfets`` and
    ``refresh_parameters`` kept, read from the plan's devices once per
    parameter revision."""
    key = (id(plan), plan.param_revision)
    hit = _PARAMS.get(key)
    if hit is not None and hit[0] is plan:
        return hit[1]
    mosfets = plan._mosfets
    m = len(mosfets)
    sign, vt0, slope, beta, lam = (np.empty(m) for _ in range(5))
    for j, e in enumerate(mosfets):
        sign[j], vt0[j], slope[j], beta[j], lam[j] = e.ekv_params()
    term = {k: np.array([plan._idx(e.terminals[k]) for e in mosfets],
                        dtype=np.intp)
            for k in ("d", "g", "s", "b")}
    arrays = (sign, vt0, slope, beta, lam,
              term["d"], term["g"], term["s"], term["b"])
    _PARAMS[key] = (plan, arrays)
    return arrays


def reference_stamp_mosfets(plan, A: np.ndarray, b: np.ndarray,
                            xpad: np.ndarray) -> None:
    """The original ``CompiledAssembly._stamp_mosfets`` body."""
    (sign, vt0, slope, beta, lam,
     d_idx, g_idx, s_idx, b_idx) = _mosfet_arrays(plan)
    vd = xpad[d_idx]
    vg = xpad[g_idx]
    vs = xpad[s_idx]
    vb = xpad[b_idx]
    vgb = sign * (vg - vb)
    vdb = sign * (vd - vb)
    vsb = sign * (vs - vb)

    vp = (vgb - vt0) / slope
    af = (vp - vsb) / (2.0 * PHI_T)
    ar = (vp - vdb) / (2.0 * PHI_T)
    lf = np.logaddexp(0.0, af)
    lr = np.logaddexp(0.0, ar)

    vds = vdb - vsb
    clm = 1.0 + lam * np.abs(vds)
    i_core = beta * (lf * lf - lr * lr)
    i_d = i_core * clm

    dlf = 2.0 * lf * expit(af) / (2.0 * PHI_T)
    dlr = 2.0 * lr * expit(ar) / (2.0 * PHI_T)
    dclm = np.where(vds >= 0.0, lam, -lam)

    gm = beta * (dlf - dlr) * (1.0 / slope) * clm
    gds = beta * dlr * clm + i_core * dclm
    gms = -beta * dlf * clm - i_core * dclm
    gds = np.where(np.abs(gds) > 1e-12, gds, 1e-12)

    m = len(plan._mosfets)
    vals = np.empty(3 * m)
    vals[:m] = gm
    vals[m:2 * m] = gds
    vals[2 * m:] = gms
    flat, asign, asrc = plan._mos_A
    np.add.at(A.reshape(-1), flat, asign * vals[asrc])

    i_lin = gm * (vg - vb) + gds * (vd - vb) + gms * (vs - vb)
    i_res = sign * i_d - i_lin
    np.add.at(b, plan._mos_brow, plan._mos_bsign * i_res[plan._mos_bsrc])


def reference_assemble(plan, x: np.ndarray, *, time: float = 0.0,
                       xprev: Optional[np.ndarray] = None,
                       assemble: Callable = CompiledAssembly.assemble):
    """*assemble* (the product's, by default) with the original MOSFET
    stamp in place of the stacked one; every other stamp is shared."""
    plan._stamp_mosfets = (
        lambda A, b, xpad: reference_stamp_mosfets(plan, A, b, xpad))
    try:
        return assemble(plan, x, time=time, xprev=xprev)
    finally:
        del plan._stamp_mosfets


# ----------------------------------------------------------------------
# the solver cache
# ----------------------------------------------------------------------
class ReferenceLinearSolverCache:
    """The original ``LinearSolverCache``: scipy ``lu_factor``/
    ``lu_solve``, the most recent factorization, and a sticky store of
    matrices admitted at their second sighting."""

    def __init__(self) -> None:
        self._last = None     # (A, lu, piv) of the newest factorization
        self._seen = {}       # digest -> sightings (doorkeeper, counts only)
        self._sticky = {}     # digest -> [A, lu, piv, last_hit_tick]
        self._tick = 0

    def invalidate(self) -> None:
        self._last = None
        self._seen.clear()
        self._sticky.clear()

    def _lookup(self, A: np.ndarray):
        last = self._last
        if last is not None and (last[0] is A or np.array_equal(last[0], A)):
            return last[1], last[2]
        if self._sticky:
            entry = self._sticky.get(hash(A.tobytes()))
            if entry is not None and np.array_equal(entry[0], A):
                self._tick += 1
                entry[3] = self._tick
                return entry[1], entry[2]
        return None

    def _remember(self, A: np.ndarray, lu, piv) -> None:
        self._last = (A, lu, piv)
        if len(self._seen) >= _SEEN_MAX:
            self._seen.clear()
        digest = hash(A.tobytes())
        count = self._seen.get(digest, 0) + 1
        self._seen[digest] = count
        if count >= 2 and digest not in self._sticky:
            if len(self._sticky) >= _STICKY_MAX:
                stalest = min(self._sticky, key=lambda d: self._sticky[d][3])
                del self._sticky[stalest]
            self._tick += 1
            self._sticky[digest] = [A, lu, piv, self._tick]

    def solve(self, A: np.ndarray, b: np.ndarray, *, reuse: bool = True,
              assume_same: bool = False) -> np.ndarray:
        if A.shape[0] == 0:
            return np.zeros(0, dtype=A.dtype)
        if reuse:
            if assume_same and self._last is not None:
                lu_piv = (self._last[1], self._last[2])
            else:
                lu_piv = self._lookup(A)
            if lu_piv is not None:
                COUNTERS.lu_reuse += 1
                return lu_solve(lu_piv, b, check_finite=False)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                try:
                    lu, piv = lu_factor(A, check_finite=False)
                except (ValueError, np.linalg.LinAlgError) as exc:
                    raise SolverError(
                        f"MNA factorization failed: {exc}") from exc
            if np.any(np.diagonal(lu) == 0.0):
                raise SolverError("singular MNA matrix: exact zero pivot")
        except SolverError:
            self.invalidate()
            raise
        self._remember(A, lu, piv)
        COUNTERS.lu_factor += 1
        return lu_solve((lu, piv), b, check_finite=False)

    def last_factorization(self, A: np.ndarray):
        return self._lookup(A)


def reference_solve_diag(plan, cache: ReferenceLinearSolverCache,
                         A: np.ndarray, b: np.ndarray, *,
                         reuse: bool = True, want_condition: bool = False):
    """The original ``CompiledAssembly.solve_diag`` over *cache*."""

    def direct(A_, b_):
        return cache.solve(A_, b_, reuse=reuse, assume_same=plan.is_linear)

    lu_piv = None

    def refine(r):
        nonlocal lu_piv
        if lu_piv is None:
            lu_piv = cache.last_factorization(A)
        if lu_piv is None:
            raise SolverError("no factorization available to refine")
        return lu_solve(lu_piv, r, check_finite=False)

    return reference_resilient_solve(A, b, direct=direct, refine=refine,
                                     want_condition=want_condition)


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------
def relative_residual(A: np.ndarray, b: np.ndarray,
                      x: np.ndarray) -> float:
    if b.shape[0] == 0:
        return 0.0
    r = A @ x - b
    rnorm = float(np.max(np.abs(r)))
    bnorm = float(np.max(np.abs(b)))
    return rnorm / bnorm if bnorm > 0.0 else rnorm


def condition_estimate_1norm(A: np.ndarray,
                             lu_piv: Optional[Tuple[np.ndarray, np.ndarray]]
                             = None) -> float:
    n = A.shape[0]
    if n == 0:
        return 1.0
    anorm = float(np.linalg.norm(A, 1))
    if anorm == 0.0:
        return math.inf
    if lu_piv is None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                lu_piv = lu_factor(A, check_finite=False)
        except (ValueError, np.linalg.LinAlgError):
            return math.inf
    lu = lu_piv[0]
    if np.any(np.diagonal(lu) == 0.0):
        return math.inf
    gecon, = get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or rcond <= 0.0:
        return math.inf
    return float(1.0 / rcond)


def _finite(x: Optional[np.ndarray]) -> bool:
    return x is not None and bool(np.all(np.isfinite(x)))


def _plain_lu(A: np.ndarray, b: np.ndarray
              ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        try:
            lu_piv = lu_factor(A, check_finite=False)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SolverError(f"MNA factorization failed: {exc}") from exc
    if np.any(np.diagonal(lu_piv[0]) == 0.0):
        raise SolverError("singular MNA matrix: exact zero pivot")
    return lu_solve(lu_piv, b, check_finite=False), lu_piv


def reference_resilient_solve(A: np.ndarray, b: np.ndarray, *,
                              direct=None, refine=None,
                              want_condition: bool = False,
                              policy: Optional[NumericsPolicy] = None,
                              ) -> Tuple[np.ndarray, SolveDiagnostics]:
    """The original ``resilient_solve`` (scipy LU for rung 0 when no
    ``direct`` is given)."""
    policy = policy or get_policy()
    good = policy.residual_good
    n = A.shape[0]
    if n == 0:
        return (np.zeros(0, dtype=A.dtype),
                SolveDiagnostics(residual=0.0, condition=1.0,
                                 threshold=good))

    non_finite_seen = False
    lu_hint: Optional[Tuple[np.ndarray, np.ndarray]] = None
    best: Optional[Tuple[np.ndarray, float, str, int]] = None

    def consider(x, rung, refinements=0):
        nonlocal best, non_finite_seen
        if not _finite(x):
            non_finite_seen = True
            return None
        res = relative_residual(A, b, x)
        if not math.isfinite(res):
            non_finite_seen = True
            return None
        if best is None or res < best[1]:
            best = (x, res, rung, refinements)
        return res

    # -- rung 0: the caller's direct solver ----------------------------
    try:
        if direct is not None:
            x0 = direct(A, b)
        else:
            x0, lu_hint = _plain_lu(A, b)
    except SolverError:
        x0 = None
        lu_hint = None
    res = consider(x0, RUNG_DIRECT) if x0 is not None else None

    # -- rung 1: iterative refinement on a large residual --------------
    if best is not None and res is not None and res > good:
        COUNTERS.rescue_refined += 1
        if refine is None and lu_hint is None:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", LinAlgWarning)
                    lu_hint = lu_factor(A, check_finite=False)
            except (ValueError, np.linalg.LinAlgError):
                lu_hint = None
            if lu_hint is not None and np.any(
                    np.diagonal(lu_hint[0]) == 0.0):
                lu_hint = None
        solver = (refine if refine is not None else
                  (lambda r: lu_solve(lu_hint, r, check_finite=False))
                  if lu_hint is not None else None)
        if solver is not None:
            x = best[0]
            prev = res
            for it in range(1, policy.max_refinements + 1):
                try:
                    dx = solver(b - A @ x)
                except SolverError:
                    break
                if not _finite(dx):
                    break
                x = x + dx
                res_it = consider(x, RUNG_REFINED, refinements=it)
                if res_it is None or res_it <= good:
                    break
                if res_it > 0.5 * prev:  # stalled
                    break
                prev = res_it

    # -- rung 2: equilibrated re-factorization -------------------------
    if best is None or best[1] > good:
        COUNTERS.rescue_equilibrated += 1
        x = _equilibrated_solve(A, b, policy)
        if x is not None:
            consider(x, RUNG_EQUILIBRATED)

    # -- rung 3: SVD least-squares rescue ------------------------------
    if best is None or best[1] > good:
        COUNTERS.rescue_lstsq += 1
        try:
            x, *_ = np.linalg.lstsq(A, b, rcond=None)
        except np.linalg.LinAlgError:
            x = None
        if x is not None:
            consider(x, RUNG_LSTSQ)

    # -- verdict -------------------------------------------------------
    if best is None:
        COUNTERS.unsolvable_systems += 1
        diag = SolveDiagnostics(rung=RUNG_UNSOLVABLE,
                                non_finite=non_finite_seen,
                                threshold=good)
        raise UnsolvableError(
            "every ladder rung failed (singular system producing "
            "non-finite solutions)", diagnostics=diag)

    x, res, rung, refinements = best
    diag = SolveDiagnostics(residual=res, rung=rung,
                            non_finite=non_finite_seen,
                            refinements=refinements, threshold=good)
    if want_condition:
        diag.condition = condition_estimate_1norm(A, lu_hint)
    if res > policy.residual_unsolvable:
        COUNTERS.unsolvable_systems += 1
        diag.rung = RUNG_UNSOLVABLE
        raise UnsolvableError(
            f"best residual {res:.2e} after rung {rung!r} exceeds the "
            f"unsolvable threshold {policy.residual_unsolvable:g} "
            f"(inconsistent or numerically singular system)",
            diagnostics=diag)
    if diag.degraded:
        COUNTERS.degraded_solves += 1
        if policy.strict:
            COUNTERS.unsolvable_systems += 1
            diag.rung = RUNG_UNSOLVABLE
            raise UnsolvableError(
                f"strict numerics: best solve (rung {rung!r}, residual "
                f"{res:.2e}) is degraded, not verified good "
                f"(threshold {good:g})", diagnostics=diag)
    return x, diag


def _equilibrated_solve(A: np.ndarray, b: np.ndarray,
                        policy: NumericsPolicy) -> Optional[np.ndarray]:
    row = np.max(np.abs(A), axis=1)
    row[row == 0.0] = 1.0
    rs = 1.0 / row
    As = A * rs[:, None]
    col = np.max(np.abs(As), axis=0)
    col[col == 0.0] = 1.0
    cs = 1.0 / col
    As = As * cs[None, :]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu_piv = lu_factor(As, check_finite=False)
    except (ValueError, np.linalg.LinAlgError):
        return None
    if np.any(np.diagonal(lu_piv[0]) == 0.0):
        return None
    x = cs * lu_solve(lu_piv, rs * b, check_finite=False)
    if not _finite(x):
        return None
    for _ in range(policy.max_refinements):
        r = b - A @ x
        if relative_residual(A, b, x) <= policy.residual_good:
            break
        dx = cs * lu_solve(lu_piv, rs * r, check_finite=False)
        if not _finite(dx):
            break
        x = x + dx
    return x if _finite(x) else None
