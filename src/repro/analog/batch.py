"""Lockstep batched DC and transient analyses over many circuits.

The fault campaign and the Monte-Carlo screens re-solve hundreds of
netlists that are small per-system but numerous: every faulted clone of
the link shares the golden circuit's node ordering (fault injection only
*appends* nodes and elements), so the assembled MNA matrices of a fault
population stack naturally into ``(batch, n, n)`` arrays.  This module
runs Newton **in lockstep** across such a stack:

* circuits are grouped by ``(n_total, sparsity-pattern hash)`` — only
  same-shape systems stack, and same-pattern systems are exactly the
  ones a shared golden LU factorization can serve via low-rank
  (Woodbury) updates;
* each lockstep iteration assembles every active item (the same
  vectorised per-item fast path as the serial engine) and dispatches
  the whole stack through one
  :meth:`~repro.analog.backend.LinearBackend.solve_stack` call — a
  single broadcast ``numpy.linalg.solve`` under the batched backend;
* on the first iteration (all items starting from the same guess) the
  group's first matrix is LU-factored once as a **golden**
  factorization; items whose matrix differs from it in zero rows replay
  the factorization outright (counted as ``lu_reuse``) and items
  differing in at most :data:`WOODBURY_MAX_ROWS` rows are solved by an
  exact Woodbury update (``woodbury_hits``), accepted only when the
  *true* residual against the item's own system is verified good;
* every per-item anomaly — singular stack entry, non-finite solution,
  residual above ``NumericsPolicy.residual_good``, Newton stall —
  **peels the item out of the stack and back to the full serial
  analysis** (``dc_operating_point`` with its complete homotopy
  cascade, or ``transient`` with its step-halving ladder), counted in
  ``batch_fallbacks``.  No item ever loses its resilience ladder; the
  batched path is a fast lane for the easy majority, not a second
  numerical regime.

Exceptions raised by a serial fallback (e.g. ``UnsolvableError`` under
a strict policy) are captured and returned as that item's result, so
callers can reproduce the serial error handling fault-by-fault.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._profiling import COUNTERS
from .assembly import CompiledAssembly, get_compiled
from .backend import (BatchedBackend, LinearBackend, factor, resolve_backend,
                      solve_factored)
from .dc import (GMIN_STEPS, MAX_NEWTON_ITER, MAX_STEP, PTC_ALPHAS,
                 PTC_STEPS_PER_ALPHA, SOURCE_STEPS, VOLTAGE_TOL,
                 OperatingPoint, _restore_sources, _scale_sources,
                 dc_operating_point)
from .devices import Capacitor
from .incremental import delta_for_circuit, rows_hint
from .netlist import is_ground
from .resilience import SolveDiagnostics, get_policy
from .solver import DEFAULT_GMIN, SolverError, build_index, node_voltages
from .transient import MAX_NEWTON_ITER as TRAN_MAX_NEWTON_ITER
from .transient import HALVING_LEVELS, TransientResult, transient
from .transient import _newton_step as _tran_newton_step

__all__ = ["WOODBURY_MAX_ROWS", "batch_dc_operating_points",
           "batch_transients", "pattern_key"]

#: largest number of changed matrix rows served by a Woodbury update
WOODBURY_MAX_ROWS = 8

#: Woodbury solutions must beat this residual (and the policy's
#: ``residual_good``) to be accepted — ill-conditioned systems, where a
#: low-rank update could steer a multistable Newton trajectory into a
#: different basin, fall through to the broadcast solve instead
WOODBURY_RESIDUAL = 1e-11

#: lockstep Newton convergence is only trusted below this iteration
#: count.  An item that converges close to the ``MAX_NEWTON_ITER`` stall
#: limit sits on a knife edge where last-bit solver differences (getrf
#: LU vs broadcast LAPACK vs a Woodbury first step) decide between
#: convergence and divergence — such items are peeled to the serial
#: path so the serial trajectory settles them, keeping campaign records
#: byte-identical.  Healthy solves converge in well under half this.
TRUSTED_NEWTON_ITER = 120


def pattern_key(plan: CompiledAssembly) -> int:
    """Hash of the plan's macro structure (shape + aux-row layout).

    Two plans with equal keys assemble same-shape matrices whose source
    incidence rows line up, which is the precondition both for stacking
    and for low-rank golden-LU sharing.  The key is deliberately coarse:
    a fault's own stamp (a bridge conductance, a lifted terminal) is a
    few-row perturbation of the golden pattern — exactly what the
    Woodbury path absorbs — so it must *not* split the group.  Faults
    that change the shape (opens appending nodes, gate-opens appending a
    retention source's aux row) land in their own same-shape groups.
    """
    parts: List[object] = [plan.n_total, plan.n_nodes, plan.mode,
                           plan.dt, plan.method, plan.source_aux_rows]
    return hash(tuple(parts))


def _group_items(plans: Sequence[CompiledAssembly]) -> Dict[object, List[int]]:
    groups: Dict[object, List[int]] = {}
    for j, plan in enumerate(plans):
        groups.setdefault((plan.n_total, pattern_key(plan)), []).append(j)
    return groups


def _stack_residuals(As: np.ndarray, Bs: np.ndarray,
                     Xs: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.analog.resilience.relative_residual`."""
    r = np.abs(np.matmul(As, Xs[:, :, np.newaxis])[:, :, 0] - Bs)
    rnorm = r.max(axis=1) if r.shape[1] else np.zeros(r.shape[0])
    bnorm = np.abs(Bs).max(axis=1) if Bs.shape[1] else np.zeros(Bs.shape[0])
    out = np.where(bnorm > 0.0, rnorm / np.where(bnorm > 0.0, bnorm, 1.0),
                   rnorm)
    return out


def _woodbury_solve(gold_lu, A_gold: np.ndarray, A: np.ndarray,
                    b: np.ndarray,
                    rows_hint: Optional[np.ndarray] = None
                    ) -> Tuple[Optional[np.ndarray], int]:
    """Solve ``A @ x = b`` through the golden factorization of *A_gold*.

    Returns ``(x, rows_changed)``; ``x`` is ``None`` when the update is
    not applicable (too many changed rows, or a singular capacitance
    matrix).  ``rows_changed == 0`` means the matrices are bitwise equal
    and the factorization was replayed directly.  The caller must still
    verify the true residual before accepting ``x``.

    ``rows_hint`` (from :func:`repro.analog.incremental.rows_hint`)
    bounds the changed-row detection to the rows the fault stamps could
    have touched — ``O(r·n)`` instead of the ``O(n²)`` full-matrix
    scan.  The hint is advisory: a hint that misses a changed row
    yields a solution the caller's true-residual gate rejects, never a
    wrong accepted solve.
    """
    if rows_hint is not None:
        COUNTERS.delta_reassemblies += 1
        if rows_hint.size:
            changed = np.any(A[rows_hint, :] != A_gold[rows_hint, :],
                             axis=1)
            rows = rows_hint[changed]
        else:
            rows = rows_hint
    else:
        rows = np.flatnonzero(np.any(A != A_gold, axis=1))
    r = int(rows.size)
    if r == 0:
        return solve_factored(gold_lu, b), 0
    if r > WOODBURY_MAX_ROWS:
        return None, r
    n = A.shape[0]
    Vt = A[rows, :] - A_gold[rows, :]      # (r, n)
    U = np.zeros((n, r))
    U[rows, np.arange(r)] = 1.0
    Z = solve_factored(gold_lu, U)      # A_gold^-1 U
    x0 = solve_factored(gold_lu, b)
    S = np.eye(r) + Vt @ Z
    try:
        y = np.linalg.solve(S, Vt @ x0)
    except np.linalg.LinAlgError:
        return None, r
    return x0 - Z @ y, r


# ----------------------------------------------------------------------
# batched DC operating points
# ----------------------------------------------------------------------
def batch_dc_operating_points(circuits: Sequence,
                              gmin: float = DEFAULT_GMIN,
                              backend: Optional[LinearBackend] = None
                              ) -> List[object]:
    """DC operating points of *circuits* solved in lockstep.

    Returns one entry per circuit: an
    :class:`~repro.analog.dc.OperatingPoint`, or the exception the
    serial fallback raised for that item (callers that need the serial
    error contract re-raise or re-run those items serially).
    """
    be = BatchedBackend() if backend is None else resolve_backend(backend)
    results: List[object] = [None] * len(circuits)
    if not circuits:
        return results

    plans: List[CompiledAssembly] = []
    indices: List[Dict[str, int]] = []
    for c in circuits:
        node_index, _n_nodes, n_total = build_index(c)
        indices.append(node_index)
        plans.append(get_compiled(c, "dc", node_index=node_index,
                                  n_total=n_total, gmin=gmin))

    policy = get_policy()
    good = policy.residual_good

    for (n_total, _pat), members in _group_items(plans).items():
        if n_total == 0:
            for j in members:
                results[j] = _serial_dc(circuits[j], gmin)
            continue
        _lockstep_dc_group(circuits, plans, indices, members, n_total,
                           gmin, be, good, results)
    return results


def _serial_dc(circuit, gmin: float) -> object:
    COUNTERS.batch_fallbacks += 1
    try:
        return dc_operating_point(circuit, gmin=gmin)
    except Exception as exc:  # captured: callers replay serial semantics
        return exc


def _lockstep_dc_group(circuits, plans, indices, members, n_total, gmin,
                       be, good, results) -> None:
    k = len(members)
    n_nodes_of = [plans[j].n_nodes for j in members]
    xs = np.zeros((k, n_total))
    As = np.empty((k, n_total, n_total))
    Bs = np.empty((k, n_total))
    iters = np.zeros(k, dtype=int)
    worst_res = np.zeros(k)
    active = list(range(k))
    converged = [False] * k
    peeled = [False] * k
    strategies = ["newton"] * k

    def peel(pos: int) -> None:
        peeled[pos] = True
        results[members[pos]] = _serial_dc(circuits[members[pos]], gmin)

    golden = None  # (A_gold, lu_piv) shared across the group's 1st iter

    for it in range(1, MAX_NEWTON_ITER + 1):
        if not active:
            break
        for pos in active:
            j = members[pos]
            COUNTERS.newton_iterations += 1
            A, b = plans[j].assemble(xs[pos])
            As[pos] = A
            Bs[pos] = b
        iters[[*active]] = it

        solved: Dict[int, np.ndarray] = {}
        to_stack: List[int] = []
        if it == 1 and len(active) > 1:
            # golden LU: factor the first item once, serve bitwise-equal
            # matrices by replay and few-row perturbations by Woodbury
            g = active[0]
            try:
                golden = (As[g].copy(), factor(As[g]))
                COUNTERS.lu_factor += 1
            except SolverError:
                golden = None
            if golden is not None:
                A_gold, gold_lu = golden
                x_g = solve_factored(gold_lu, Bs[g])
                res_g = _stack_residuals(As[g:g + 1], Bs[g:g + 1],
                                         x_g[np.newaxis, :])[0]
                if np.isfinite(x_g).all() and res_g <= good:
                    solved[g] = x_g
                    worst_res[g] = max(worst_res[g], res_g)
                else:
                    to_stack.append(g)
                gold_delta = delta_for_circuit(circuits[members[g]])
                for pos in active[1:]:
                    hint = rows_hint(
                        delta_for_circuit(circuits[members[pos]]),
                        gold_delta, indices[members[pos]])
                    x_w, rows = _woodbury_solve(gold_lu, A_gold, As[pos],
                                                Bs[pos], rows_hint=hint)
                    if x_w is not None and np.isfinite(x_w).all():
                        res_w = _stack_residuals(
                            As[pos:pos + 1], Bs[pos:pos + 1],
                            x_w[np.newaxis, :])[0]
                        if res_w <= min(good, WOODBURY_RESIDUAL):
                            solved[pos] = x_w
                            worst_res[pos] = max(worst_res[pos], res_w)
                            if rows == 0:
                                COUNTERS.lu_reuse += 1
                            else:
                                COUNTERS.woodbury_hits += 1
                            continue
                    to_stack.append(pos)
            else:
                to_stack = list(active)
        else:
            to_stack = list(active)

        if to_stack:
            sub = np.asarray(to_stack)
            Xs, ok = be.solve_stack(As[sub], Bs[sub])
            res = _stack_residuals(As[sub], Bs[sub], Xs)
            for i, pos in enumerate(to_stack):
                if ok[i] and res[i] <= good:
                    solved[pos] = Xs[i]
                    worst_res[pos] = max(worst_res[pos], res[i])
                else:
                    peel(pos)

        still = []
        for pos in active:
            if peeled[pos]:
                continue
            x_new = solved[pos]
            dx = x_new - xs[pos]
            nn = n_nodes_of[pos]
            step = float(np.max(np.abs(dx[:nn]))) if nn else 0.0
            if step > MAX_STEP:
                xs[pos] = xs[pos] + dx * (MAX_STEP / step)
            else:
                xs[pos] = x_new
            if step < VOLTAGE_TOL:
                if it > TRUSTED_NEWTON_ITER:
                    peel(pos)   # knife-edge convergence: serial decides
                else:
                    converged[pos] = True
            else:
                still.append(pos)
        active = still

    # stalled items: before surrendering each to a per-item serial
    # homotopy, walk the serial cascade (gmin stepping, source stepping,
    # pseudo-transient continuation) in lockstep — broadcast solves
    # serve the whole sub-group where the serial fallback would refactor
    # every Newton iteration.  Only a solve the residual gate rejects
    # peels; items that merely stall through the whole cascade become
    # ``converged=False`` results on the same schedule the serial
    # cascade would have walked.
    stalled = [pos for pos in range(k)
               if not peeled[pos] and not converged[pos]]
    if stalled:
        def lockstep_newton(positions, plan_of):
            """Damped lockstep Newton; returns (converged, stalled).

            Residual-rejected items are peeled in place and appear in
            neither list.
            """
            iterating = list(positions)
            conv: List[int] = []
            for it in range(1, MAX_NEWTON_ITER + 1):
                if not iterating:
                    break
                for pos in iterating:
                    COUNTERS.newton_iterations += 1
                    iters[pos] += 1
                    A, b = plan_of[pos].assemble(xs[pos])
                    As[pos] = A
                    Bs[pos] = b
                sub = np.asarray(iterating)
                Xs, ok = be.solve_stack(As[sub], Bs[sub])
                res = _stack_residuals(As[sub], Bs[sub], Xs)
                still = []
                for i, pos in enumerate(iterating):
                    if not (ok[i] and res[i] <= good):
                        peel(pos)
                        continue
                    worst_res[pos] = max(worst_res[pos], res[i])
                    dx = Xs[i] - xs[pos]
                    nn = n_nodes_of[pos]
                    stp = float(np.max(np.abs(dx[:nn]))) if nn else 0.0
                    if stp > MAX_STEP:
                        xs[pos] = xs[pos] + dx * (MAX_STEP / stp)
                    else:
                        xs[pos] = Xs[i]
                    if stp < VOLTAGE_TOL:
                        if it > TRUSTED_NEWTON_ITER:
                            peel(pos)
                        else:
                            conv.append(pos)
                    else:
                        still.append(pos)
                iterating = still
            return conv, iterating

        # 2. gmin stepping from quiescence, tightening to the target
        live = list(stalled)
        to_source: List[int] = []
        for pos in live:
            xs[pos] = 0.0
        for g in GMIN_STEPS + (gmin,):
            if not live:
                break
            plan_of = {
                pos: get_compiled(circuits[members[pos]], "dc",
                                  node_index=indices[members[pos]],
                                  n_total=n_total, gmin=g)
                for pos in live
            }
            live, stall = lockstep_newton(live, plan_of)
            to_source.extend(stall)
        for pos in live:
            converged[pos] = True
            strategies[pos] = "gmin"

        # 3. source stepping from a quiescent circuit
        live = [pos for pos in to_source if not peeled[pos]]
        to_ptc: List[int] = []
        if live:
            plan_of = {pos: plans[members[pos]] for pos in live}
            for pos in live:
                xs[pos] = 0.0
            for scale in SOURCE_STEPS:
                if not live:
                    break
                saved = [_scale_sources(circuits[members[pos]], scale)
                         for pos in live]
                try:
                    live, stall = lockstep_newton(live, plan_of)
                finally:
                    for s in saved:
                        _restore_sources(s)
                to_ptc.extend(stall)
            for pos in live:
                converged[pos] = True
                strategies[pos] = "source"

        # 4. pseudo-transient continuation with a final Newton polish
        live = [pos for pos in to_ptc if not peeled[pos]]
        if live:
            for pos in live:
                xs[pos] = 0.0
            for alpha in PTC_ALPHAS:
                settled: set = set()
                for _ in range(PTC_STEPS_PER_ALPHA):
                    stepping = [pos for pos in live
                                if pos not in settled and not peeled[pos]]
                    if not stepping:
                        break
                    for pos in stepping:
                        COUNTERS.dc_ptc_steps += 1
                        iters[pos] += 1
                        j = members[pos]
                        A, b = plans[j].assemble(xs[pos])
                        nn = n_nodes_of[pos]
                        di = np.arange(nn)
                        A[di, di] += alpha
                        b[:nn] += alpha * xs[pos][:nn]
                        As[pos] = A
                        Bs[pos] = b
                    sub = np.asarray(stepping)
                    Xs, ok = be.solve_stack(As[sub], Bs[sub])
                    res = _stack_residuals(As[sub], Bs[sub], Xs)
                    for i, pos in enumerate(stepping):
                        if not (ok[i] and res[i] <= good):
                            peel(pos)
                            continue
                        worst_res[pos] = max(worst_res[pos], res[i])
                        nn = n_nodes_of[pos]
                        stp = (float(np.max(np.abs(
                            Xs[i][:nn] - xs[pos][:nn]))) if nn else 0.0)
                        xs[pos] = Xs[i]
                        if stp < VOLTAGE_TOL:
                            settled.add(pos)
            live = [pos for pos in live if not peeled[pos]]
            plan_of = {pos: plans[members[pos]] for pos in live}
            polished, _stall = lockstep_newton(live, plan_of)
            for pos in polished:
                converged[pos] = True
                strategies[pos] = "ptc"
                COUNTERS.dc_ptc_rescues += 1

    for pos in range(k):
        if peeled[pos]:
            continue
        j = members[pos]
        diag = SolveDiagnostics(residual=float(worst_res[pos]),
                                threshold=good)
        if not converged[pos]:
            # every lockstep homotopy stalled with healthy solves: the
            # serial cascade fails on the same schedule, so report the
            # failed operating point without the serial rerun.  Stages
            # that would read voltages out of a non-converged x (rather
            # than a convergence marker) must treat this item as
            # unresolved — flagged via ``lockstep_failed``.
            op = OperatingPoint(
                voltages=node_voltages(circuits[j], indices[j], xs[pos]),
                converged=False, iterations=int(iters[pos]), x=xs[pos],
                node_index=indices[j], diagnostics=diag,
                strategy="failed")
            op.lockstep_failed = True
            results[j] = op
            continue
        results[j] = OperatingPoint(
            voltages=node_voltages(circuits[j], indices[j], xs[pos]),
            converged=True, iterations=int(iters[pos]), x=xs[pos],
            node_index=indices[j], diagnostics=diag,
            strategy=strategies[pos])


# ----------------------------------------------------------------------
# batched transients
# ----------------------------------------------------------------------
def batch_transients(circuits: Sequence, t_stop: float, dt: float,
                     probes: Sequence[str],
                     method: str = "be",
                     backend: Optional[LinearBackend] = None
                     ) -> List[object]:
    """Fixed-step transients of *circuits* integrated in lockstep.

    All items share ``(t_stop, dt, method, probes)`` — the campaign's
    toggle and characterization runs are common stimuli applied to many
    faulted clones, so the per-timestep Newton solves stack.  Only
    backward Euler is supported in lockstep (the trapezoidal method
    carries per-capacitor history that the serial path owns); items
    needing anything else, and every per-item anomaly, fall back to the
    full serial :func:`~repro.analog.transient.transient` run.

    Returns one entry per circuit: a
    :class:`~repro.analog.transient.TransientResult` or the exception
    the serial fallback raised.
    """
    be = BatchedBackend() if backend is None else resolve_backend(backend)
    results: List[object] = [None] * len(circuits)
    if not circuits:
        return results
    if method != "be":
        for j, c in enumerate(circuits):
            results[j] = _serial_tran(c, t_stop, dt, probes, method)
        return results

    plans: List[CompiledAssembly] = []
    indices: List[Dict[str, int]] = []
    for c in circuits:
        node_index, _n_nodes, n_total = build_index(c)
        indices.append(node_index)
        plans.append(get_compiled(c, "tran", node_index=node_index,
                                  n_total=n_total, dt=dt, method=method))

    # initial condition: the DC operating point, solved in lockstep too
    x0s: List[Optional[np.ndarray]] = [None] * len(circuits)
    ops = batch_dc_operating_points(circuits, backend=be)
    for j, op in enumerate(ops):
        if isinstance(op, Exception) or getattr(op, "lockstep_failed",
                                                False):
            # serial transient() would have hit the same DC failure but
            # integrated from the serial cascade's own failed x; replay
            # the full serial path to reproduce its contract
            results[j] = _serial_tran(circuits[j], t_stop, dt, probes,
                                      method)
        else:
            x = op.x
            n_total = plans[j].n_total
            x0s[j] = (x if x is not None and len(x) == n_total
                      else np.zeros(n_total))

    good = get_policy().residual_good
    todo = [j for j in range(len(circuits)) if results[j] is None]
    groups: Dict[object, List[int]] = {}
    for j in todo:
        groups.setdefault((plans[j].n_total, pattern_key(plans[j])),
                          []).append(j)
    for (n_total, _pat), members in groups.items():
        if n_total == 0:
            for j in members:
                results[j] = _serial_tran(circuits[j], t_stop, dt, probes,
                                          method)
            continue
        _lockstep_tran_group(circuits, plans, indices, members, n_total,
                             t_stop, dt, probes, method, be, good, results,
                             x0s)
    return results


def _serial_tran(circuit, t_stop, dt, probes, method) -> object:
    COUNTERS.batch_fallbacks += 1
    try:
        return transient(circuit, t_stop, dt, probes=probes, method=method)
    except Exception as exc:
        return exc


def _lockstep_tran_group(circuits, plans, indices, members, n_total,
                         t_stop, dt, probes, method, be, good, results,
                         x0s) -> None:
    k = len(members)
    n_steps = max(1, int(round(t_stop / dt)))
    tol = VOLTAGE_TOL * 100  # transient tolerance can be looser

    xs = np.empty((k, n_total))
    for pos, j in enumerate(members):
        xs[pos] = x0s[j]
        for cap in circuits[j].elements_of_type(Capacitor):
            cap.begin_transient()

    idx_of = [
        {p: indices[j][p] for p in probes if not is_ground(p)}
        for j in members
    ]
    times = np.empty(n_steps + 1)
    times[0] = 0.0
    data = [
        {p: np.empty(n_steps + 1) for p in probes}
        for _ in members
    ]
    for pos, j in enumerate(members):
        for p in probes:
            data[pos][p][0] = (0.0 if is_ground(p)
                               else float(xs[pos][idx_of[pos][p]]))

    worst_res = np.zeros(k)
    alive = list(range(k))
    As = np.empty((k, n_total, n_total))
    Bs = np.empty((k, n_total))

    def peel(pos: int) -> None:
        results[members[pos]] = _serial_tran(
            circuits[members[pos]], t_stop, dt, probes, method)

    halved: Dict[int, Dict[int, CompiledAssembly]] = {}

    def halve_step(pos: int, x_start: np.ndarray,
                   t0: float) -> Optional[np.ndarray]:
        """Serial per-item halving ladder for one rejected step.

        Mirrors the serial integrator's dt/2..dt/8 retry (same compiled
        sub-plans, same :func:`transient._newton_step` with its full
        resilience ladder); returns the accepted end-of-step state, or
        ``None`` when no level recovers the step.
        """
        j = members[pos]
        cache = halved.setdefault(pos, {})
        for level in HALVING_LEVELS:
            COUNTERS.tran_step_halvings += 1
            sub_plan = cache.get(level)
            if sub_plan is None:
                sub_plan = cache[level] = get_compiled(
                    circuits[j], "tran", node_index=indices[j],
                    n_total=n_total, dt=dt / level, method=method)
            x_sub = x_start
            sub_ok = True
            for i_sub in range(1, level + 1):
                x_sub, sub_ok, _diag = _tran_newton_step(
                    sub_plan, x_sub, x_sub, t0 + i_sub * dt / level)
                if not sub_ok:
                    break
            if sub_ok:
                return x_sub
        return None

    for step in range(1, n_steps + 1):
        if not alive:
            break
        t_next = step * dt
        xprev = xs.copy()
        iterating = list(alive)
        done: List[int] = []
        for _it in range(TRAN_MAX_NEWTON_ITER):
            if not iterating:
                break
            for pos in iterating:
                j = members[pos]
                COUNTERS.newton_iterations += 1
                A, b = plans[j].assemble(xs[pos], time=t_next,
                                         xprev=xprev[pos])
                As[pos] = A
                Bs[pos] = b
            sub = np.asarray(iterating)
            Xs, ok = be.solve_stack(As[sub], Bs[sub])
            res = _stack_residuals(As[sub], Bs[sub], Xs)
            still = []
            for i, pos in enumerate(iterating):
                if not (ok[i] and res[i] <= good):
                    peel(pos)
                    alive.remove(pos)
                    continue
                worst_res[pos] = max(worst_res[pos], res[i])
                x_new = Xs[i]
                dx = x_new - xs[pos]
                nn = plans[members[pos]].n_nodes
                stp = float(np.max(np.abs(dx[:nn]))) if nn else 0.0
                if stp > MAX_STEP:
                    xs[pos] = xs[pos] + dx * (MAX_STEP / stp)
                else:
                    xs[pos] = x_new
                if stp < tol:
                    done.append(pos)
                else:
                    still.append(pos)
            iterating = still
        for pos in iterating:
            # Newton stalled at full dt: reject the step and retry the
            # per-item halving ladder in place; only an item no level
            # rescues is peeled to the full serial rerun (which owns
            # the UnsolvableError contract for that case)
            COUNTERS.tran_step_rejections += 1
            x_h = halve_step(pos, xprev[pos], t_next - dt)
            if x_h is None:
                peel(pos)
                alive.remove(pos)
            else:
                xs[pos] = x_h
        for pos in alive:
            for p in probes:
                data[pos][p][step] = (0.0 if is_ground(p)
                                      else float(xs[pos][idx_of[pos][p]]))
    if alive:
        times[1:] = dt * np.arange(1, n_steps + 1)
    for pos in alive:
        diag = SolveDiagnostics(residual=float(worst_res[pos]),
                                threshold=good)
        results[members[pos]] = TransientResult(
            time=times.copy(), waves=data[pos], converged=True,
            diagnostics=diag)
