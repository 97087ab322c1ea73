"""Fixed-step transient analysis on top of the MNA engine.

Each time step solves the nonlinear companion-model system by Newton
iteration, warm-started from the previous time point.  Sources may carry a
``waveform`` callable (``t -> value``) for stimulus.  The step size is fixed
(the circuits here are driven by known clocks, so adaptive stepping buys
little) but a step whose Newton iteration stalls is rejected and retried
at dt/2, dt/4, then dt/8 before the interval is given up.  Every linear
solve goes through the :mod:`repro.analog.resilience` ladder; the result
carries the worst :class:`SolveDiagnostics` seen across the run, and a
step whose systems the ladder declares unsolvable raises
:class:`UnsolvableError` when no halving level recovers it.  A caller
whose answer is decided before *t_stop* passes a ``stop`` predicate and
gets the samples up to the deciding step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .._profiling import COUNTERS
from .assembly import get_compiled
from .dc import MAX_STEP, VOLTAGE_TOL, dc_operating_point
from .netlist import Circuit, is_ground
from .resilience import RUNG_UNSOLVABLE, SolveDiagnostics, UnsolvableError
from .solver import SolverError, build_index

MAX_NEWTON_ITER = 80

#: step-halving ladder tried when a step's Newton iteration stalls
HALVING_LEVELS = (2, 4, 8)


@dataclass
class TransientResult:
    """Time-domain waveforms from :func:`transient`.

    ``time`` is the sample vector; ``waves`` maps node name -> voltage
    array aligned with ``time``.
    """

    time: np.ndarray
    waves: Dict[str, np.ndarray]
    converged: bool = True
    #: worst solve quality across every accepted step (None: no solves)
    diagnostics: Optional[SolveDiagnostics] = field(repr=False, default=None)

    def v(self, node: str) -> np.ndarray:
        if is_ground(node):
            return np.zeros_like(self.time)
        return self.waves[node]

    def vdiff(self, p: str, n: str) -> np.ndarray:
        return self.v(p) - self.v(n)

    def at(self, node: str, t: float) -> float:
        """Linearly interpolated voltage of *node* at time *t*."""
        return float(np.interp(t, self.time, self.v(node)))

    def final(self, node: str) -> float:
        return float(self.v(node)[-1])


def _newton_step(compiled, x_guess, xprev, t, lu_reuse: bool = True,
                 want_condition: bool = False):
    """One implicit time step; returns ``(x, ok, diagnostics)``.

    ``diagnostics`` aggregates the worst solve of the step (or carries
    the ladder's failing diagnostics, rung ``unsolvable``, when it
    rejected an iteration's system).
    """
    x = x_guess.copy()
    n_nodes = compiled.n_nodes
    agg: Optional[SolveDiagnostics] = None
    for _ in range(MAX_NEWTON_ITER):
        COUNTERS.newton_iterations += 1
        A, b = compiled.assemble(x, time=t, xprev=xprev)
        try:
            x_new, diag = compiled.solve_diag(A, b, reuse=lu_reuse)
        except UnsolvableError as exc:
            return x, False, exc.diagnostics
        except SolverError:
            return x, False, agg
        agg = diag.worst(agg)
        dx = x_new - x
        step = float(np.abs(dx[:n_nodes]).max()) if n_nodes else 0.0
        if step > MAX_STEP:
            x = x + dx * (MAX_STEP / step)
        else:
            x = x_new
        if step < VOLTAGE_TOL * 100:  # transient tolerance can be looser
            if want_condition:
                agg.condition = compiled.condition_estimate(A)
            return x, True, agg
    return x, False, agg


def transient(circuit: Circuit, t_stop: float, dt: float,
              probes: Optional[Sequence[str]] = None,
              method: str = "be",
              x0: Optional[np.ndarray] = None,
              lu_reuse: bool = True,
              stop: Optional[Callable[[float, Sequence[float]], bool]] = None
              ) -> TransientResult:
    """Integrate *circuit* from 0 to *t_stop* with step *dt*.

    Parameters
    ----------
    probes:
        Node names to record; default records every node.
    method:
        ``'be'`` (robust default) or ``'trap'``.
    x0:
        Initial solution vector; default is the DC operating point at t=0.
    lu_reuse:
        Allow the solver to replay a cached LU factorization when the
        assembled matrix is unchanged from the previous solve (always
        true for linear circuits).  Disable to force a factorization
        every solve, e.g. for numerical cross-checks.
    stop:
        Optional predicate ``stop(t, v)`` evaluated after each accepted
        step on its time and the recorded probe voltages (``v`` in
        ``probes`` order).  A true return ends the run; the result holds
        the samples up to and including that step, a bitwise prefix of
        the unstopped run, without its final condition estimate.
    """
    node_index, n_nodes, n_total = build_index(circuit)
    if x0 is None:
        op = dc_operating_point(circuit)
        x = op.x if op.x is not None and len(op.x) == n_total else np.zeros(n_total)
    else:
        x = x0.copy()

    from .devices import Capacitor

    caps = circuit.elements_of_type(Capacitor)
    for cap in caps:
        cap.begin_transient()

    def cap_voltage(cap, xv):
        vp = 0.0 if is_ground(cap.terminals["p"]) else xv[node_index[cap.terminals["p"]]]
        vn = 0.0 if is_ground(cap.terminals["n"]) else xv[node_index[cap.terminals["n"]]]
        return float(vp - vn)

    def accept(xv):
        """Adopt the step ending at *xv* as the trapezoidal history."""
        for cap in caps:
            cap.accept_step(cap_voltage(cap, xv))

    record = list(probes) if probes is not None else circuit.nodes()
    idx_of = {p: node_index[p] for p in record if not is_ground(p)}

    n_steps = max(1, int(round(t_stop / dt)))
    times = np.empty(n_steps + 1)
    data = {p: np.empty(n_steps + 1) for p in record}
    times[0] = 0.0
    for p in record:
        data[p][0] = 0.0 if is_ground(p) else float(x[idx_of[p]])

    compiled = get_compiled(circuit, "tran", node_index=node_index,
                            n_total=n_total, dt=dt, method=method)
    halved = {}  # level -> compiled plan, built lazily on stalled steps
    trap = method == "trap"

    all_converged = True
    run_diag: Optional[SolveDiagnostics] = None
    t = 0.0
    for k in range(1, n_steps + 1):
        t_next = k * dt
        want_cond = k == n_steps  # estimate condition once, at the end
        x_new, ok, diag = _newton_step(compiled, x, x, t_next, lu_reuse,
                                       want_condition=want_cond)
        unsolv_diag = (diag if diag is not None
                       and diag.rung == RUNG_UNSOLVABLE else None)
        if not ok:
            # reject the step; retry at dt/2, dt/4, dt/8
            COUNTERS.tran_step_rejections += 1
            start_hist = [cap.history_current for cap in caps]
            for level in HALVING_LEVELS:
                COUNTERS.tran_step_halvings += 1
                sub = halved.get(level)
                if sub is None:
                    sub = halved[level] = get_compiled(
                        circuit, "tran", node_index=node_index,
                        n_total=n_total, dt=dt / level, method=method)
                x_sub = x
                sub_ok = True
                for j in range(1, level + 1):
                    x_sub, sub_ok, diag = _newton_step(
                        sub, x_sub, x_sub, t + j * dt / level, lu_reuse)
                    if not sub_ok:
                        if diag is not None and diag.rung == RUNG_UNSOLVABLE:
                            unsolv_diag = diag
                        break
                    if trap and j < level:
                        # the next sub-step integrates from this one
                        accept(x_sub)
                if sub_ok:
                    x_new, ok = x_sub, True
                    unsolv_diag = None
                    break
                if trap:
                    # the level failed midway: the next one starts over
                    # from the interval's own history
                    for cap, i_hist in zip(caps, start_hist):
                        cap.history_current = i_hist
        if not ok:
            if unsolv_diag is not None:
                raise UnsolvableError(
                    f"transient step at t={t_next:.3e}s unsolvable after "
                    f"{len(HALVING_LEVELS)} dt halvings "
                    f"({unsolv_diag.summary()})", diagnostics=unsolv_diag)
            all_converged = False
        if diag is not None:
            run_diag = diag.worst(run_diag)
        if trap:
            accept(x_new)
        x = x_new
        t = t_next
        times[k] = t
        for p in record:
            data[p][k] = 0.0 if is_ground(p) else float(x[idx_of[p]])
        if stop is not None and stop(t, [data[p][k] for p in record]):
            times = times[:k + 1]
            data = {p: wave[:k + 1] for p, wave in data.items()}
            break

    return TransientResult(time=times, waves=data, converged=all_converged,
                           diagnostics=run_diag)


# ----------------------------------------------------------------------
# stimulus helpers
# ----------------------------------------------------------------------
def step_waveform(v0: float, v1: float, t_step: float,
                  t_rise: float = 10e-12) -> Callable[[float], float]:
    """Voltage step from *v0* to *v1* at *t_step* with linear rise."""

    def wf(t: float) -> float:
        if t <= t_step:
            return v0
        if t >= t_step + t_rise:
            return v1
        return v0 + (v1 - v0) * (t - t_step) / t_rise

    return wf


def clock_waveform(period: float, v_low: float = 0.0, v_high: float = 1.2,
                   t_rise: float = 10e-12,
                   duty: float = 0.5) -> Callable[[float], float]:
    """Square clock with linear edges."""

    def wf(t: float) -> float:
        ph = t % period
        t_high = duty * period
        if ph < t_rise:
            return v_low + (v_high - v_low) * ph / t_rise
        if ph < t_high:
            return v_high
        if ph < t_high + t_rise:
            return v_high - (v_high - v_low) * (ph - t_high) / t_rise
        return v_low

    return wf


def bit_waveform(bits: Sequence[int], bit_time: float, v_low: float = 0.0,
                 v_high: float = 1.2,
                 t_rise: float = 10e-12) -> Callable[[float], float]:
    """NRZ waveform for a bit sequence (holds last bit afterwards)."""
    levels = [v_high if b else v_low for b in bits]

    def wf(t: float) -> float:
        i = int(t // bit_time)
        if i >= len(levels):
            return levels[-1]
        target = levels[i]
        prev = levels[i - 1] if i > 0 else levels[0]
        dt_in = t - i * bit_time
        if dt_in < t_rise and target != prev:
            return prev + (target - prev) * dt_in / t_rise
        return target

    return wf
