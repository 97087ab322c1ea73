"""Numerical resilience layer: solve diagnostics and the fallback ladder.

The paper's faulted circuits are *designed* to be pathological — opens
leave nodes floating behind 100 TOhm, shorts collapse stages — and those
are exactly the netlists that hand the MNA engine singular or
near-singular matrices.  A production campaign cannot afford either
silent garbage (a solve that "succeeded" with a huge residual) or a
swallowed exception: every linear solve must end *verified good* or
*explicitly degraded*.  This module supplies that discipline to every
analysis:

* :class:`SolveDiagnostics` — the measurement-quality record attached to
  a solve: relative residual ``||Ax - b|| / ||b||`` (infinity norms),
  a 1-norm condition estimate, NaN/Inf detection, and which
  :data:`ladder <RUNG_SEVERITY>` rung produced the answer;
* :func:`direct_solve` and :func:`climb_ladder` — the engine's one
  linear solve, and the fallback ladder.  Rung ``direct`` is one LAPACK
  ``getrf``/``getrs`` pair, verified inline; on a miss the ladder
  climbs through ``refined`` (iterative refinement replaying that
  factorization), ``equilibrated`` (row/column scaling before a fresh
  factorization), and ``lstsq`` (an SVD least-squares rescue that
  survives exact rank deficiency).  A system no rung can solve raises
  :class:`UnsolvableError` — NaN/Inf is never returned silently.  The
  Newton loop (:func:`repro.analog.dc.newton`) calls the two itself and
  keeps rung 0's factorization; :func:`resilient_solve` is the same
  pair for every other solve;
* :class:`NumericsPolicy` / :func:`numerics_policy` — the thresholds,
  including ``strict`` mode (the ``--strict-numerics`` CLI flag) where
  any solve that is not verified good escalates to
  :class:`UnsolvableError` so the campaigns can settle the item as a
  first-class ``unsolvable`` outcome.

Every rung engagement is counted in :mod:`repro.core.profiling`
(``rescue_refined`` / ``rescue_equilibrated`` / ``rescue_lstsq`` /
``degraded_solves`` / ``unsolvable_systems``), so ``repro bench`` and
the ``BENCH_PR*.json`` artifacts expose how often the engine needed
help.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..core.profiling import COUNTERS
from .solver import Factorization, SolverError, factor, solve_factored

__all__ = [
    "RUNG_DIRECT", "RUNG_REFINED", "RUNG_EQUILIBRATED", "RUNG_LSTSQ",
    "RUNG_UNSOLVABLE", "RUNG_SEVERITY",
    "NumericsPolicy", "SolveDiagnostics", "UnsolvableError",
    "climb_ladder", "condition_estimate_1norm", "direct_solve",
    "get_policy", "numerics_policy", "relative_residual",
    "resilient_solve",
]

#: ladder rungs, in escalation order
RUNG_DIRECT = "direct"
RUNG_REFINED = "refined"
RUNG_EQUILIBRATED = "equilibrated"
RUNG_LSTSQ = "lstsq"
#: pseudo-rung reported by diagnostics when *no* rung produced an answer
RUNG_UNSOLVABLE = "unsolvable"

#: severity order used when aggregating diagnostics across many solves
RUNG_SEVERITY: Dict[str, int] = {
    RUNG_DIRECT: 0, RUNG_REFINED: 1, RUNG_EQUILIBRATED: 2,
    RUNG_LSTSQ: 3, RUNG_UNSOLVABLE: 4,
}


class UnsolvableError(SolverError):
    """The fallback ladder exhausted every rung without an acceptable
    solution (or, under a strict policy, without a *verified* one).

    Campaigns catch this (as :class:`SolverError`) and settle the item
    as a first-class ``unsolvable`` outcome instead of recording silent
    garbage.  ``diagnostics`` carries the best measurement the ladder
    achieved before giving up.
    """

    def __init__(self, message: str,
                 diagnostics: Optional["SolveDiagnostics"] = None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class NumericsPolicy:
    """Solve-quality thresholds for the fallback ladder.

    ``residual_good``
        Relative residual at or below which a solution counts as
        *verified good* (the ladder stops climbing).
    ``residual_unsolvable``
        Relative residual above which even the best rescued solution is
        rejected as unsolvable — beyond this the "solution" carries no
        circuit information (an inconsistent singular system lands
        here).
    ``max_refinements``
        Iterative-refinement steps attempted per ladder climb.
    ``strict``
        Escalate any accepted-but-degraded solve to
        :class:`UnsolvableError` (the ``--strict-numerics`` semantics).
    """

    residual_good: float = 1e-8
    residual_unsolvable: float = 1e-3
    max_refinements: int = 3
    strict: bool = False


#: process-global policy; fork-based campaign workers inherit it
_POLICY = NumericsPolicy()


def get_policy() -> NumericsPolicy:
    """The active :class:`NumericsPolicy`."""
    return _POLICY


@contextmanager
def numerics_policy(**overrides) -> Iterator[NumericsPolicy]:
    """Temporarily override fields of the active policy.

    >>> with numerics_policy(strict=True):
    ...     dc_operating_point(circuit)  # degraded solves now raise
    """
    global _POLICY
    previous = _POLICY
    _POLICY = replace(previous, **overrides)
    try:
        yield _POLICY
    finally:
        _POLICY = previous


@dataclass
class SolveDiagnostics:
    """Measurement quality of one linear solve (or the worst of many).

    ``residual`` is the relative residual ``||Ax - b||_inf / ||b||_inf``
    (absolute when ``b`` is exactly zero).  ``condition`` is a LAPACK
    ``gecon`` 1-norm condition estimate — ``nan`` when not requested
    (it costs an extra O(n^2) pass, so the analyses estimate it once on
    the accepted solution rather than every Newton iteration).
    ``rung`` names the ladder rung that produced the answer;
    ``refinements`` counts iterative-refinement steps spent on it.
    ``threshold`` records the ``residual_good`` the ladder judged
    against, so ``verified`` stays meaningful after the policy changes.
    """

    residual: float = math.inf
    condition: float = math.nan
    rung: str = RUNG_DIRECT
    non_finite: bool = False
    refinements: int = 0
    threshold: float = 1e-8

    @property
    def verified(self) -> bool:
        """Finite solution whose residual meets the good threshold."""
        return (not self.non_finite and math.isfinite(self.residual)
                and self.residual <= self.threshold)

    @property
    def degraded(self) -> bool:
        return not self.verified

    def worst(self, other: Optional["SolveDiagnostics"]
              ) -> "SolveDiagnostics":
        """Pointwise pessimum of two diagnostics (for aggregating the
        many solves of a transient or an AC sweep)."""
        if other is None:
            return self
        rung = max(self.rung, other.rung,
                   key=lambda r: RUNG_SEVERITY.get(r, 0))
        cond = self.condition
        if math.isnan(cond) or (not math.isnan(other.condition)
                                and other.condition > cond):
            cond = other.condition
        return SolveDiagnostics(
            residual=max(self.residual, other.residual),
            condition=cond,
            rung=rung,
            non_finite=self.non_finite or other.non_finite,
            refinements=max(self.refinements, other.refinements),
            threshold=min(self.threshold, other.threshold))

    def absorb(self, newer: "SolveDiagnostics") -> None:
        """Become ``newer.worst(self)`` in place: the running aggregate
        of a Newton loop, without a new record per solve.  Each field
        takes the value :meth:`worst` picks, ties included."""
        if not self.residual > newer.residual:
            self.residual = newer.residual
        cond = newer.condition
        if not (math.isnan(cond) or (not math.isnan(self.condition)
                                     and self.condition > cond)):
            self.condition = cond
        if not (RUNG_SEVERITY.get(self.rung, 0)
                > RUNG_SEVERITY.get(newer.rung, 0)):
            self.rung = newer.rung
        self.non_finite = newer.non_finite or self.non_finite
        if not self.refinements > newer.refinements:
            self.refinements = newer.refinements
        if not self.threshold < newer.threshold:
            self.threshold = newer.threshold

    def absorb_residual(self, residual: float) -> None:
        """:meth:`absorb` of a verified rung-0 solve of the same policy,
        given only its *residual*: that record's other fields (no
        condition, rung ``direct``, finite, no refinements, this
        threshold) never win a field, so only the residual can move."""
        if not self.residual > residual:
            self.residual = residual

    def to_dict(self) -> Dict[str, object]:
        return {"residual": self.residual, "condition": self.condition,
                "rung": self.rung, "non_finite": self.non_finite,
                "refinements": self.refinements,
                "verified": self.verified}

    def summary(self) -> str:
        cond = ("n/a" if math.isnan(self.condition)
                else f"{self.condition:.2e}")
        state = "verified" if self.verified else "DEGRADED"
        return (f"rung={self.rung} residual={self.residual:.2e} "
                f"cond~{cond} [{state}]")


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------
def relative_residual(A: np.ndarray, b: np.ndarray,
                      x: np.ndarray) -> float:
    """``||Ax - b||_inf / ||b||_inf`` (absolute residual for b == 0)."""
    if b.shape[0] == 0:
        return 0.0
    rnorm = float(np.maximum.reduce(np.abs(A @ x - b), axis=None))
    bnorm = float(np.maximum.reduce(np.abs(b), axis=None))
    return rnorm / bnorm if bnorm > 0.0 else rnorm


def condition_estimate_1norm(A: np.ndarray,
                             lu_piv: Optional[Tuple[np.ndarray, np.ndarray]]
                             = None) -> float:
    """LAPACK ``gecon`` 1-norm condition estimate of *A*.

    Reuses a :func:`~repro.analog.solver.factor` result when the
    caller has one (O(n^2)); factors once otherwise.  Returns ``inf``
    for a singular matrix.
    """
    n = A.shape[0]
    if n == 0:
        return 1.0
    anorm = float(np.linalg.norm(A, 1))
    if anorm == 0.0:
        return math.inf
    if lu_piv is None:
        try:
            lu_piv = factor(A)
        except SolverError:
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
    """*x* is an array whose every element is finite (a finite sum
    says so at once; only a non-finite one needs the full scan)."""
    if x is None:
        return False
    total = np.add.reduce(x, axis=None)
    return ((math.isfinite(total.real) and math.isfinite(total.imag))
            or bool(np.isfinite(x).all()))


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------
def resilient_solve(A: np.ndarray, b: np.ndarray, *,
                    want_condition: bool = False,
                    policy: Optional[NumericsPolicy] = None,
                    ) -> Tuple[np.ndarray, SolveDiagnostics]:
    """Solve ``A @ x = b``: rung 0 (:func:`direct_solve`), then the
    ladder (:func:`climb_ladder`) when it misses.

    Returns the accepted solution and its :class:`SolveDiagnostics`;
    the condition estimate, when asked for, reuses rung 0's
    factorization.  Raises :class:`UnsolvableError` instead of ever
    returning NaN/Inf or a residual above
    ``policy.residual_unsolvable`` (or, under ``policy.strict``,
    anything short of verified good).
    """
    policy = policy or _POLICY
    x, res, lu_piv = direct_solve(A, b, policy)
    if res is None:
        return climb_ladder(A, b, x, lu_piv, policy,
                            want_condition=want_condition)
    diag = SolveDiagnostics(residual=res, threshold=policy.residual_good)
    if want_condition:
        diag.condition = condition_estimate_1norm(A, lu_piv)
    return x, diag


def direct_solve(A: np.ndarray, b: np.ndarray, policy: NumericsPolicy
                 ) -> Tuple[Optional[np.ndarray], Optional[float],
                            Optional[Factorization]]:
    """Rung 0 of every linear solve: one LAPACK ``getrf`` / ``getrs``
    pair (:func:`~repro.analog.solver.factor` /
    :func:`~repro.analog.solver.solve_factored`), verified inline.

    Returns ``(x, residual, factorization)``.  ``residual`` is the
    relative residual of a finite *x* that meets both thresholds of
    *policy* (the solve is verified good and ends here), None
    otherwise: the caller then hands *x* and the factorization to
    :func:`climb_ladder` (both None when ``getrf`` raised, or for a
    system of no unknowns, which LAPACK refuses and the ladder answers).
    """
    if not len(b):
        return None, None, None
    try:
        lu_piv = factor(A)
        x = solve_factored(lu_piv, b)
    except SolverError:
        return None, None, None
    if _finite(x):
        res = relative_residual(A, b, x)
        if res <= policy.residual_good and res <= policy.residual_unsolvable:
            return x, res, lu_piv
    return x, None, lu_piv


def climb_ladder(A: np.ndarray, b: np.ndarray, x0: Optional[np.ndarray],
                 lu_piv: Optional[Factorization], policy: NumericsPolicy,
                 *, want_condition: bool = False
                 ) -> Tuple[np.ndarray, SolveDiagnostics]:
    """The ladder after rung 0 (:func:`direct_solve`) missed: its
    answer *x0* and factorization *lu_piv* (None when ``getrf``
    raised) climb through ``refined`` (iterative refinement replaying
    that factorization), ``equilibrated`` (row/column scaling before a
    fresh factorization) and ``lstsq`` (an SVD least-squares rescue
    that survives exact rank deficiency).

    Returns the best answer and its :class:`SolveDiagnostics`; raises
    :class:`UnsolvableError` as :func:`resilient_solve` documents.
    """
    good = policy.residual_good
    if A.shape[0] == 0:
        return (np.zeros(0, dtype=A.dtype),
                SolveDiagnostics(residual=0.0, condition=1.0,
                                 threshold=good))
    non_finite_seen = False
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

    res = consider(x0, RUNG_DIRECT) if x0 is not None else None

    # -- rung 1: iterative refinement on a large residual --------------
    if best is not None and res is not None and res > good:
        COUNTERS.rescue_refined += 1
        x = best[0]
        prev = res
        for it in range(1, policy.max_refinements + 1):
            dx = solve_factored(lu_piv, b - A @ x)
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
        diag.condition = condition_estimate_1norm(A, lu_piv)
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
            # mark the rung so every consumer that classifies by
            # RUNG_UNSOLVABLE (dc homotopy, transient halving, the
            # campaigns) treats the escalation as a real unsolvable
            diag.rung = RUNG_UNSOLVABLE
            raise UnsolvableError(
                f"strict numerics: best solve (rung {rung!r}, residual "
                f"{res:.2e}) is degraded, not verified good "
                f"(threshold {good:g})", diagnostics=diag)
    return x, diag


def _equilibrated_solve(A: np.ndarray, b: np.ndarray,
                        policy: NumericsPolicy) -> Optional[np.ndarray]:
    """Row/column-scale *A*, factor the scaled system, refine against
    the *original* system; None when the scaled factorization fails."""
    row = np.max(np.abs(A), axis=1)
    row[row == 0.0] = 1.0
    rs = 1.0 / row
    As = A * rs[:, None]
    col = np.max(np.abs(As), axis=0)
    col[col == 0.0] = 1.0
    cs = 1.0 / col
    As = As * cs[None, :]
    try:
        lu_piv = factor(As)
    except SolverError:
        return None
    x = cs * solve_factored(lu_piv, rs * b)
    if not _finite(x):
        return None
    # refinement in the scaled basis, residual taken on the original
    for _ in range(policy.max_refinements):
        r = b - A @ x
        if relative_residual(A, b, x) <= policy.residual_good:
            break
        dx = cs * solve_factored(lu_piv, rs * r)
        if not _finite(dx):
            break
        x = x + dx
    return x if _finite(x) else None
