"""Slow oracle for the Newton iterations of the compiled MNA engine.

The product's ``CompiledAssembly.assemble`` stamps the EKV MOSFETs on a
restacked ``(3, m)`` block with in-place numpy calls, reads its switch
values from precompiled arrays, takes the source values and capacitor
companion currents once per Newton solve and builds ``b`` with one
``np.bincount``; one damped-Newton loop (``dc.newton``) serves every DC
solve and every transient step, runs one LAPACK ``getrf``/``getrs``
pair as rung 0 of the resilience ladder and verifies it itself
(``resilience.direct_solve``), climbs the ladder
(``resilience.climb_ladder``) only when rung 0 misses, and folds each
solve's diagnostics into one running record.  This module keeps the
code all of that replaced: the per-terminal MOSFET stamp, the switch,
capacitor and source stamps accumulated into ``b`` one after another,
the scipy ``lu_factor``/``lu_solve`` solver that factors every solve,
the resilience ladder that always walks to its verdict (the original
``CompiledAssembly.solve_diag``), and the two Newton loops (DC and
transient step) that build a new ``SolveDiagnostics.worst`` record per
solve.  The oracle reads every per-device value (EKV coefficients,
switch thresholds and conductances, capacitor companions, source
levels) from the elements themselves; it borrows only what a plan
compiles once: the static template, the scatter index plans and the
element classification.

:class:`Shadow` runs the oracle beside every product ``assemble``, every
linear solve of a Newton loop (the rung-0 ``direct_solve`` that
verifies, or the ``climb_ladder`` that follows a miss), every
``resilient_solve`` and every ``newton`` call, and requires
bitwise-equal ``A``, ``b``, ``x``, equal ``SolveDiagnostics`` fields
and, for a raised ``SolverError``, the same type, message and
diagnostics.  The Newton loop is checked by replay: the oracle loop of
the plan's mode runs over the product's recorded assemblies and
solves, and must ask for the same iterates and return the same ``x``,
verdict, iteration count (DC) and aggregated diagnostics.

The oracle counts into its own :data:`COUNTERS`, so running it beside
the product leaves the product's counters alone.
"""

from __future__ import annotations

import importlib
import math
import warnings
import weakref
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve
from scipy.special import expit

from repro.core.profiling import COUNTERS as PRODUCT_COUNTERS
from repro.core.profiling import Counters
from repro.analog.assembly import CompiledAssembly
from repro.analog.dc import MAX_STEP, VOLTAGE_TOL
from repro.analog.devices import (Capacitor, CurrentSource, Resistor,
                                  StampContext, Switch,
                                  VoltageControlledVoltageSource,
                                  VoltageSource, is_ground)
from repro.analog.mosfet import MOSFET, PHI_T
from repro.analog.resilience import (RUNG_DIRECT, RUNG_EQUILIBRATED,
                                     RUNG_LSTSQ, RUNG_REFINED,
                                     RUNG_SEVERITY, RUNG_UNSOLVABLE,
                                     NumericsPolicy, SolveDiagnostics,
                                     UnsolvableError, get_policy)
from repro.analog.solver import SolverError

#: the oracle's own tally (lu_factor, rescue_*, ...)
COUNTERS = Counters()

#: transient Newton iterations per time step
TRAN_MAX_NEWTON_ITER = 80

_ac = importlib.import_module("repro.analog.ac")
_dc = importlib.import_module("repro.analog.dc")
_transient = importlib.import_module("repro.analog.transient")
_resilience = importlib.import_module("repro.analog.resilience")


# ----------------------------------------------------------------------
# per-device values, read from the elements
# ----------------------------------------------------------------------
class _Devices:
    """What the original ``_compile`` and ``refresh_parameters`` kept
    per device, read from the plan's circuit once per parameter
    revision."""

    def __init__(self, plan):
        def idx(node: str) -> int:
            return -1 if is_ground(node) else plan.node_index[node]

        self.mosfets, self.switches, self.caps = [], [], []
        self.vsources, self.isources, self.fallback = [], [], []
        for elem in plan.circuit:
            if isinstance(elem, MOSFET):
                self.mosfets.append(elem)
            elif isinstance(elem, Switch):
                self.switches.append(elem)
            elif isinstance(elem, Capacitor):
                self.caps.append(elem)
            elif isinstance(elem, VoltageSource):
                self.vsources.append((elem, elem.aux_base))
            elif isinstance(elem, CurrentSource):
                self.isources.append((elem, idx(elem.terminals["p"]),
                                      idx(elem.terminals["n"])))
            elif not isinstance(elem, (Resistor,
                                       VoltageControlledVoltageSource)):
                self.fallback.append(elem)

        m = len(self.mosfets)
        self.sign, self.vt0, self.slope, self.beta, self.lam = (
            np.empty(m) for _ in range(5))
        for j, e in enumerate(self.mosfets):
            (self.sign[j], self.vt0[j], self.slope[j], self.beta[j],
             self.lam[j]) = e.ekv_params()
        self.term = {k: np.array([idx(e.terminals[k]) for e in self.mosfets],
                                 dtype=np.intp)
                     for k in ("d", "g", "s", "b")}

        sw = self.switches
        self.sw_ctrl = np.array([idx(e.terminals["ctrl"]) for e in sw],
                                dtype=np.intp)
        self.sw_thr = np.array([e.threshold for e in sw])
        self.sw_gon = np.array([1.0 / e.r_on for e in sw])
        self.sw_goff = np.array([1.0 / e.r_off for e in sw])

        if plan.mode != "tran":
            self.caps = []
        factor = 2.0 if plan.method == "trap" else 1.0
        self.cap_p = np.array([idx(c.terminals["p"]) for c in self.caps],
                              dtype=np.intp)
        self.cap_n = np.array([idx(c.terminals["n"]) for c in self.caps],
                              dtype=np.intp)
        self.cap_geq = np.array([factor * c.capacitance / plan.dt
                                 for c in self.caps])


_DEVICES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _devices(plan) -> _Devices:
    hit = _DEVICES.get(plan)
    if hit is None or hit[0] != plan.param_revision:
        hit = _DEVICES[plan] = (plan.param_revision, _Devices(plan))
    return hit[1]


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def reference_stamp_mosfets(plan, dev: _Devices, A: np.ndarray,
                            b: np.ndarray, xpad: np.ndarray) -> None:
    """The per-terminal MOSFET stamp."""
    sign, vt0, slope, beta, lam = (dev.sign, dev.vt0, dev.slope, dev.beta,
                                   dev.lam)
    vd = xpad[dev.term["d"]]
    vg = xpad[dev.term["g"]]
    vs = xpad[dev.term["s"]]
    vb = xpad[dev.term["b"]]
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

    m = len(dev.mosfets)
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
                       xprev: Optional[np.ndarray] = None):
    """The original ``CompiledAssembly.assemble``: returns ``(A, b,
    companions)``, *companions* being the ``(geq, ieq)`` pairs a
    trapezoidal step hands each capacitor's ``record_companion`` (the
    oracle records nothing on the elements itself)."""
    dev = _devices(plan)
    n_total = plan.n_total
    A = plan._A_static.copy()
    b = np.zeros(n_total)
    xpad = np.zeros(n_total + 1)
    xpad[:n_total] = x

    if dev.mosfets:
        reference_stamp_mosfets(plan, dev, A, b, xpad)
    if dev.switches:
        flat, sign, src = plan._sw_A
        v_ctrl = xpad[dev.sw_ctrl]
        arg = np.clip((v_ctrl - dev.sw_thr) / 0.025, -60.0, 60.0)
        g = dev.sw_goff + (dev.sw_gon - dev.sw_goff) * expit(arg)
        np.add.at(A.reshape(-1), flat, sign * g[src])
    companions = []
    if dev.caps:
        xpp = np.zeros(n_total + 1)
        xpp[:n_total] = xprev
        v_prev = xpp[dev.cap_p] - xpp[dev.cap_n]
        ieq = dev.cap_geq * v_prev
        if plan.method == "trap":
            caps = dev.caps
            ieq = ieq + np.fromiter(
                (c.history_current for c in caps), float, len(caps))
            companions = list(zip(dev.cap_geq, ieq))
        np.add.at(b, plan._cap_brow, plan._cap_bsign * ieq[plan._cap_bsrc])

    for elem, k in dev.vsources:
        b[k] += elem.value_at(time)
    for elem, p, n in dev.isources:
        i = elem.value_at(time)
        if p >= 0:
            b[p] -= i
        if n >= 0:
            b[n] += i

    if dev.fallback:
        ctx = StampContext(A, b, x, plan.node_index, plan.mode,
                           dt=plan.dt, xprev=xprev, method=plan.method,
                           time=time)
        for elem in dev.fallback:
            elem.stamp(ctx)
    return A, b, companions


# ----------------------------------------------------------------------
# the solver cache
# ----------------------------------------------------------------------
class ReferenceLinearSolver:
    """The original solver: scipy ``lu_factor``/``lu_solve``, a fresh
    factorization for every solve, and the most recent one kept for
    refinement and the condition estimate."""

    def __init__(self) -> None:
        self._last = None     # (A, lu, piv) of the newest factorization

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        if A.shape[0] == 0:
            return np.zeros(0, dtype=A.dtype)
        COUNTERS.lu_factor += 1
        self._last = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            try:
                lu, piv = lu_factor(A, check_finite=False)
            except (ValueError, np.linalg.LinAlgError) as exc:
                raise SolverError(
                    f"MNA factorization failed: {exc}") from exc
        if np.any(np.diagonal(lu) == 0.0):
            raise SolverError("singular MNA matrix: exact zero pivot")
        self._last = (A, lu, piv)
        return lu_solve((lu, piv), b, check_finite=False)

    def last_factorization(self, A: np.ndarray):
        last = self._last
        if last is not None and (last[0] is A or np.array_equal(last[0], A)):
            return last[1], last[2]
        return None


def reference_solve_diag(solver: ReferenceLinearSolver,
                         A: np.ndarray, b: np.ndarray, *,
                         want_condition: bool = False):
    """The original ``CompiledAssembly.solve_diag`` over *solver*."""
    lu_piv = None

    def refine(r):
        nonlocal lu_piv
        if lu_piv is None:
            lu_piv = solver.last_factorization(A)
        if lu_piv is None:
            raise SolverError("no factorization available to refine")
        return lu_solve(lu_piv, r, check_finite=False)

    return reference_resilient_solve(A, b, direct=solver.solve,
                                     refine=refine,
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


def plain_lu(A: np.ndarray, b: np.ndarray
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
            x0, lu_hint = plain_lu(A, b)
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


# ----------------------------------------------------------------------
# the Newton loops
# ----------------------------------------------------------------------
def reference_worst(new: SolveDiagnostics,
                    other: Optional[SolveDiagnostics]) -> SolveDiagnostics:
    """The original ``SolveDiagnostics.worst``: a new record per call."""
    if other is None:
        return new
    rung = max(new.rung, other.rung, key=lambda r: RUNG_SEVERITY.get(r, 0))
    cond = new.condition
    if math.isnan(cond) or (not math.isnan(other.condition)
                            and other.condition > cond):
        cond = other.condition
    return SolveDiagnostics(
        residual=max(new.residual, other.residual),
        condition=cond,
        rung=rung,
        non_finite=new.non_finite or other.non_finite,
        refinements=max(new.refinements, other.refinements),
        threshold=min(new.threshold, other.threshold))


def reference_newton(tape: "Tape", x0: np.ndarray, n_nodes: int,
                     max_iter: int):
    """The original ``dc._newton`` loop over *tape*'s recorded
    assemblies and solves: ``(x, converged, iterations, diagnostics)``."""
    x = x0.copy()
    agg: Optional[SolveDiagnostics] = None
    for it in range(1, max_iter + 1):
        A, b = tape.assemble(x)
        try:
            x_new, diag = tape.solve_diag(A, b)
        except UnsolvableError as exc:
            return x, False, it, exc.diagnostics
        except SolverError:
            return x, False, it, agg
        agg = reference_worst(diag, agg)
        dx = x_new - x
        dv = dx[:n_nodes]
        step = float(np.abs(dv).max()) if n_nodes else 0.0
        if step > MAX_STEP:
            x = x + dx * (MAX_STEP / step)
        else:
            x = x_new
        if step < VOLTAGE_TOL:
            agg.condition = tape.condition_estimate(A)
            return x, True, it, agg
    return x, False, max_iter, agg


def reference_newton_step(tape: "Tape", n_nodes: int, x_guess: np.ndarray,
                          xprev: np.ndarray, t: float,
                          want_condition: bool = False):
    """The original ``transient._newton_step`` over *tape*:
    ``(x, ok, diagnostics)``."""
    x = x_guess.copy()
    agg: Optional[SolveDiagnostics] = None
    for _ in range(TRAN_MAX_NEWTON_ITER):
        A, b = tape.assemble(x, time=t, xprev=xprev)
        try:
            x_new, diag = tape.solve_diag(A, b)
        except UnsolvableError as exc:
            return x, False, exc.diagnostics
        except SolverError:
            return x, False, agg
        agg = reference_worst(diag, agg)
        dx = x_new - x
        step = float(np.abs(dx[:n_nodes]).max()) if n_nodes else 0.0
        if step > MAX_STEP:
            x = x + dx * (MAX_STEP / step)
        else:
            x = x_new
        if step < VOLTAGE_TOL * 100:
            if want_condition:
                agg.condition = tape.condition_estimate(A)
            return x, True, agg
    return x, False, agg


# ----------------------------------------------------------------------
# the shadow
# ----------------------------------------------------------------------
def diag_fields(diag: Optional[SolveDiagnostics]):
    if diag is None:
        return None
    return (diag.residual, diag.condition, diag.rung, diag.non_finite,
            diag.refinements, diag.threshold)


def diag_key(diag: Optional[SolveDiagnostics]) -> Optional[str]:
    # repr round-trips floats exactly and tells -0.0 from 0.0
    fields = diag_fields(diag)
    return None if fields is None else repr(fields)


def _rebuilt(fields) -> Optional[SolveDiagnostics]:
    if fields is None:
        return None
    residual, condition, rung, non_finite, refinements, threshold = fields
    return SolveDiagnostics(residual=residual, condition=condition,
                            rung=rung, non_finite=non_finite,
                            refinements=refinements, threshold=threshold)


def _outcome(call):
    """``(comparable key, result or exception)`` of one solve."""
    try:
        x, diag = call()
    except SolverError as exc:
        key = ("raise", type(exc), str(exc),
               diag_key(getattr(exc, "diagnostics", None)))
        return key, exc
    return ("ok", x.dtype, x.shape, x.tobytes(), diag_key(diag)), (x, diag)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class Tape:
    """The product's assemblies and solves inside one Newton loop,
    replayed to the oracle loop in order."""

    def __init__(self, shadow: "Shadow", where: str):
        self.shadow = shadow
        self.where = where
        self.events: List[tuple] = []
        self.plan = None
        self._pos = 0

    def _next(self, kind: str) -> tuple:
        if self._pos >= len(self.events):
            self.shadow.fail(f"{self.where}: the oracle loop asks for a "
                             f"{kind} the product never made")
        event = self.events[self._pos]
        self._pos += 1
        if event[0] != kind:
            self.shadow.fail(f"{self.where}: the oracle loop asks for a "
                             f"{kind}, the product made a {event[0]}")
        return event

    def assemble(self, x, *, time=0.0, xprev=None):
        _, x_got, time_got, xprev_got, A, b = self._next("assemble")
        if not (_same(x, x_got) and time == time_got and (
                (xprev is None and xprev_got is None)
                or (xprev is not None and xprev_got is not None
                    and _same(xprev, xprev_got)))):
            self.shadow.fail(f"{self.where}: the product assembled at "
                             f"another iterate than the oracle loop")
        return A.copy(), b.copy()

    def solve_diag(self, A, b):
        _, outcome = self._next("solve")
        if outcome[0] == "raise":
            _, exc_type, message, fields = outcome
            if exc_type is UnsolvableError:
                raise UnsolvableError(message, diagnostics=_rebuilt(fields))
            raise exc_type(message)
        _, x, fields = outcome
        return x.copy(), _rebuilt(fields)

    def condition_estimate(self, A):
        solver = self.shadow.solver_for(self.plan)
        return condition_estimate_1norm(A, solver.last_factorization(A))

    def finish(self) -> None:
        if self._pos != len(self.events):
            self.shadow.fail(f"{self.where}: the product made "
                             f"{len(self.events) - self._pos} assemblies or "
                             f"solves after the oracle loop ended")


class Shadow:
    """Runs the oracle beside every product assemble, solve and Newton
    loop.

    *patch* is a ``pytest.MonkeyPatch`` (the ``monkeypatch`` fixture,
    or one the caller undoes).  A mismatch is appended to
    :attr:`mismatches` and raised as ``AssertionError``; a campaign
    that catches tier exceptions still leaves it in the list.
    """

    def __init__(self, patch):
        self.assemblies = self.solves = self.raised = self.loops = 0
        self.mismatches: List[str] = []
        self._solvers = weakref.WeakKeyDictionary()
        self._tape: Optional[Tape] = None
        assemble = CompiledAssembly.assemble
        direct_solve = _resilience.direct_solve
        climb_ladder = _resilience.climb_ladder
        resilient_solve = _resilience.resilient_solve
        newton = _dc.newton
        shadow = self

        def checked_assemble(plan, x, *, time=0.0, xprev=None,
                             invariants=None):
            A, b = assemble(plan, x, time=time, xprev=xprev,
                            invariants=invariants)
            A_ref, b_ref, companions = reference_assemble(
                plan, x, time=time, xprev=xprev)
            where = f"assemble of {plan.circuit.name!r}"
            if A.tobytes() != A_ref.tobytes():
                shadow.fail(f"{where}: A differs")
            if b.tobytes() != b_ref.tobytes():
                shadow.fail(f"{where}: b differs")
            for cap, (g_used, i_used) in zip(_devices(plan).caps,
                                              companions):
                if repr((float(cap._geq_used), float(cap._ieq_used))) != \
                        repr((float(g_used), float(i_used))):
                    shadow.fail(f"{where}: {cap.name} recorded another "
                                f"trapezoidal companion")
            shadow.assemblies += 1
            tape = shadow._tape
            if tape is not None:
                tape.plan = plan
                tape.events.append((
                    "assemble", x.copy(), time,
                    None if xprev is None else xprev.copy(),
                    A.copy(), b.copy()))
            return A, b

        def loop_solve(where, product, A, b, want_condition=False):
            """One Newton iteration's whole solve, product vs oracle,
            recorded on the open tape."""
            tape = shadow._tape
            if tape is None or tape.plan is None:
                shadow.fail(f"{where} outside a Newton loop")
            solver = shadow.solver_for(tape.plan)
            outcome = shadow.compare(
                f"{where} on {tape.plan.circuit.name!r}", product,
                lambda: reference_solve_diag(solver, A, b,
                                             want_condition=want_condition),
                record=True)
            tape.events.append(("solve", outcome[0]))
            return outcome[1]

        def checked_direct_solve(A, b, policy):
            got = direct_solve(A, b, policy)
            x, res, _ = got
            if res is not None:
                # verified: the iteration's solve ends at rung 0
                loop_solve("rung 0", lambda: (x, SolveDiagnostics(
                    residual=res, threshold=policy.residual_good)), A, b)
            return got

        def checked_climb_ladder(A, b, x0, lu_piv, policy, *,
                                 want_condition=False):
            result = loop_solve(
                "ladder", lambda: climb_ladder(
                    A, b, x0, lu_piv, policy,
                    want_condition=want_condition),
                A, b, want_condition)
            if isinstance(result, BaseException):
                raise result
            return result

        def checked_resilient_solve(A, b, **kwargs):
            outcome = shadow.compare(
                "resilient_solve",
                lambda: resilient_solve(A, b, **kwargs),
                lambda: reference_resilient_solve(A, b, **kwargs))
            if isinstance(outcome[1], BaseException):
                raise outcome[1]
            return outcome[1]

        def checked_newton(plan, x0, *, tol, max_iter, time=0.0,
                           xprev=None, want_condition=True):
            name = plan.circuit.name
            where = (f"dc Newton loop on {name!r}" if plan.mode == "dc"
                     else f"transient Newton step at t={time!r} on "
                          f"{name!r}")
            x_start = x0.copy()
            xprev_start = None if xprev is None else xprev.copy()
            tape = shadow.open_tape(where)
            try:
                got = newton(plan, x0, tol=tol, max_iter=max_iter,
                             time=time, xprev=xprev,
                             want_condition=want_condition)
            finally:
                shadow._tape = None
            if plan.mode == "dc":
                want = reference_newton(tape, x_start, plan.n_nodes,
                                        max_iter)
                tape.finish()
                shadow.check_loop(where, got, want)
            else:
                want = reference_newton_step(tape, plan.n_nodes, x_start,
                                             xprev_start, time,
                                             want_condition)
                tape.finish()
                x, ok, _, diag = got
                shadow.check_loop(where, (x, ok, diag), want)
            return got

        patch.setattr(CompiledAssembly, "assemble", checked_assemble)
        # the Newton loop's rung 0 and ladder, at the names it calls
        patch.setattr(_dc, "direct_solve", checked_direct_solve)
        patch.setattr(_dc, "climb_ladder", checked_climb_ladder)
        # dc's pseudo-transient rescue and the AC sweep
        for module in (_ac, _dc, _resilience):
            patch.setattr(module, "resilient_solve",
                          checked_resilient_solve)
        # the one Newton loop, at both of its names
        for module in (_dc, _transient):
            patch.setattr(module, "newton", checked_newton)
        PRODUCT_COUNTERS.reset()
        COUNTERS.reset()

    # ------------------------------------------------------------------
    def fail(self, message: str) -> None:
        self.mismatches.append(message)
        raise AssertionError(message)

    def open_tape(self, where: str) -> Tape:
        if self._tape is not None:
            self.fail(f"{where}: nested inside {self._tape.where}")
        self._tape = Tape(self, where)
        return self._tape

    def solver_for(self, plan) -> ReferenceLinearSolver:
        """The oracle's solver twin of *plan* (a retune drops it)."""
        hit = self._solvers.get(plan)
        if hit is None or hit[0] != plan.param_revision:
            hit = self._solvers[plan] = (plan.param_revision,
                                         ReferenceLinearSolver())
        return hit[1]

    def compare(self, where: str, product, oracle, record: bool = False):
        """Run both solves; returns ``(tape outcome or None, result or
        exception)`` of the product's."""
        want, _ = _outcome(oracle)
        got, result = _outcome(product)
        if got != want:
            self.fail(f"{where}: product {got[0]} differs from the oracle's "
                      f"{want[0]} ({got[-1]} vs {want[-1]})")
        self.solves += 1
        tape_outcome = None
        if got[0] == "raise":
            self.raised += 1
            if record:
                tape_outcome = ("raise", type(result), str(result),
                                diag_fields(getattr(result, "diagnostics",
                                                    None)))
        elif record:
            tape_outcome = ("ok", result[0].copy(), diag_fields(result[1]))
        return tape_outcome, result

    def check_loop(self, where: str, got, want) -> None:
        self.loops += 1
        x_got, *rest_got = got
        x_want, *rest_want = want
        if not _same(x_got, x_want):
            self.fail(f"{where}: returned x differs")
        if repr(rest_got[:-1]) != repr(rest_want[:-1]):
            self.fail(f"{where}: returned {rest_got[:-1]} vs the "
                      f"oracle's {rest_want[:-1]}")
        if diag_key(rest_got[-1]) != diag_key(rest_want[-1]):
            self.fail(f"{where}: aggregated diagnostics "
                      f"{diag_key(rest_got[-1])} vs the oracle's "
                      f"{diag_key(rest_want[-1])}")

    def check_tallies(self) -> None:
        """Product and oracle agree on rescue rungs, degraded and
        unsolvable solves, and the number of Newton-solve LU
        factorizations.  A shadow that saw no solve checked nothing,
        and fails too."""
        if not self.solves:
            self.fail("no solve was shadowed")
        for name in ("rescue_refined", "rescue_equilibrated", "rescue_lstsq",
                     "degraded_solves", "unsolvable_systems", "lu_factor",
                     "lu_reuse"):
            if getattr(PRODUCT_COUNTERS, name) != getattr(COUNTERS, name):
                self.fail(f"counter {name}: product "
                          f"{getattr(PRODUCT_COUNTERS, name)}, oracle "
                          f"{getattr(COUNTERS, name)}")
