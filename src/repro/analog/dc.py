"""DC operating-point analysis (Newton-Raphson with homotopy fallbacks).

The solver runs plain damped Newton first; if that fails to converge it
retries with gmin stepping (a continuation on the shunt conductance added
to every node), then with source stepping (ramping all independent
sources from zero), and as a last resort with pseudo-transient
continuation (a decaying per-node shunt relaxing the circuit toward its
steady state).  Small analog cells such as the paper's comparators
converge in a handful of iterations; pathological faulted circuits
(opens leaving nodes nearly floating) are exactly what the fallbacks are
for.  Every linear solve inside Newton goes through the
:mod:`repro.analog.resilience` ladder, so the returned
:class:`OperatingPoint` carries :class:`SolveDiagnostics` and a circuit
no rung can solve raises :class:`UnsolvableError` instead of silently
returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .._profiling import COUNTERS
from .assembly import get_compiled
from .devices import CurrentSource, VoltageSource
from .netlist import Circuit
from .resilience import (
    RUNG_UNSOLVABLE,
    SolveDiagnostics,
    UnsolvableError,
    resilient_solve,
)
from .solver import DEFAULT_GMIN, SolverError, build_index, node_voltages

MAX_NEWTON_ITER = 200
VOLTAGE_TOL = 1e-9
MAX_STEP = 0.5  # volts of damping per Newton update

#: gmin-stepping continuation schedule (S), tightened toward the target
#: gmin
GMIN_STEPS = (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10)

#: source-stepping continuation schedule (fraction of full excitation)
SOURCE_STEPS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: decaying pseudo-transient shunt schedule (S); implicit-Euler steps of
#: a fake transient whose steady state is the DC operating point
PTC_ALPHAS = (1e-2, 1e-3, 1e-4, 1e-6, 1e-8)
PTC_STEPS_PER_ALPHA = 8


@dataclass
class OperatingPoint:
    """Result of a DC analysis."""

    voltages: Dict[str, float]
    converged: bool
    iterations: int
    x: np.ndarray = field(repr=False, default=None)
    node_index: Dict[str, int] = field(repr=False, default_factory=dict)
    #: quality of the accepted solve (None when no solve succeeded)
    diagnostics: Optional[SolveDiagnostics] = field(repr=False, default=None)
    #: which homotopy produced the answer: newton/gmin/source/ptc/failed
    strategy: str = "newton"

    def __getitem__(self, node: str) -> float:
        return self.voltages[node]

    def v(self, node: str) -> float:
        """Voltage of *node* (0.0 for ground)."""
        if node in ("0", "gnd", "GND", "vss", "VSS"):
            return 0.0
        return self.voltages[node]

    def vdiff(self, p: str, n: str) -> float:
        """Differential voltage V(p) - V(n)."""
        return self.v(p) - self.v(n)


def _newton(circuit: Circuit, node_index, n_total, x0, gmin: float,
            source_scale: float = 1.0,
            max_iter: int = MAX_NEWTON_ITER):
    """Damped Newton iteration.

    Returns ``(x, converged, iterations, diagnostics)`` where
    ``diagnostics`` is the worst :class:`SolveDiagnostics` seen across
    the run (condition estimated once, on the converged iteration) —
    or the failing diagnostics when the ladder declared an iteration
    unsolvable.
    """
    x = x0.copy()
    scaled = _scale_sources(circuit, source_scale)
    compiled = get_compiled(circuit, "dc", node_index=node_index,
                            n_total=n_total, gmin=gmin)
    agg: Optional[SolveDiagnostics] = None
    try:
        for it in range(1, max_iter + 1):
            COUNTERS.newton_iterations += 1
            A, b = compiled.assemble(x)
            try:
                x_new, diag = compiled.solve_diag(A, b)
            except UnsolvableError as exc:
                return x, False, it, exc.diagnostics
            except SolverError:
                return x, False, it, agg
            agg = diag.worst(agg)
            dx = x_new - x
            n_nodes = len(node_index)
            dv = dx[:n_nodes]
            step = float(np.abs(dv).max()) if n_nodes else 0.0
            if step > MAX_STEP:
                x = x + dx * (MAX_STEP / step)
            else:
                x = x_new
            if step < VOLTAGE_TOL:
                agg.condition = compiled.condition_estimate(A)
                return x, True, it, agg
        return x, False, max_iter, agg
    finally:
        _restore_sources(scaled)


def _scale_sources(circuit: Circuit, scale: float):
    """Temporarily scale all independent sources, waveform-driven ones
    included (their ``value_at`` reads the waveform, not the level);
    returns restore info."""
    if scale == 1.0:
        return []
    saved = []
    for elem in circuit:
        if isinstance(elem, VoltageSource):
            attr = "voltage"
        elif isinstance(elem, CurrentSource):
            attr = "current"
        else:
            continue
        value, waveform = getattr(elem, attr), elem.waveform
        saved.append((elem, attr, value, waveform))
        setattr(elem, attr, value * scale)
        if waveform is not None:
            elem.waveform = lambda t, wf=waveform: float(wf(t)) * scale
    return saved


def _restore_sources(saved) -> None:
    for elem, attr, value, waveform in saved:
        setattr(elem, attr, value)
        elem.waveform = waveform


def _ptc_rescue(circuit: Circuit, node_index, n_total, gmin: float):
    """Pseudo-transient continuation: the last-resort DC homotopy.

    Integrates a fake implicit-Euler transient — a shunt conductance
    ``alpha`` from every node to its previous voltage — whose steady
    state *is* the DC operating point, tightening ``alpha`` through
    :data:`PTC_ALPHAS` and finishing with a plain Newton polish.
    Returns ``(x, converged, iterations, diagnostics)``.
    """
    n_nodes = len(node_index)
    compiled = get_compiled(circuit, "dc", node_index=node_index,
                            n_total=n_total, gmin=gmin)
    x = np.zeros(n_total)
    total = 0
    diag_seen: Optional[SolveDiagnostics] = None
    for alpha in PTC_ALPHAS:
        for _ in range(PTC_STEPS_PER_ALPHA):
            COUNTERS.dc_ptc_steps += 1
            total += 1
            A, b = compiled.assemble(x)
            # damp the iteration toward the previous point: the extra
            # diagonal also regularises singular faulted matrices
            diag_idx = np.arange(n_nodes)
            A[diag_idx, diag_idx] += alpha
            b[:n_nodes] += alpha * x[:n_nodes]
            try:
                x_new, diag_seen = resilient_solve(A, b)
            except SolverError:
                return x, False, total, diag_seen
            step = (float(np.abs(x_new[:n_nodes] - x[:n_nodes]).max())
                    if n_nodes else 0.0)
            x = x_new
            if step < VOLTAGE_TOL:
                break
    # Newton polish from the relaxed point (no alpha shunt)
    x, ok, its, diag = _newton(circuit, node_index, n_total, x, gmin)
    if diag is None:
        diag = diag_seen
    if ok:
        COUNTERS.dc_ptc_rescues += 1
    return x, ok, total + its, diag


def dc_operating_point(circuit: Circuit,
                       x0: Optional[np.ndarray] = None,
                       gmin: float = DEFAULT_GMIN) -> OperatingPoint:
    """Compute the DC operating point of *circuit*.

    Tries plain Newton, then gmin stepping, then source stepping, then
    pseudo-transient continuation.  The returned :class:`OperatingPoint`
    reports ``converged=False`` rather than raising, because faulted
    circuits legitimately fail sometimes and the fault campaign treats
    non-convergence as an observable — with one exception: when every
    homotopy failed *and* the resilience ladder declared the linear
    systems unsolvable (singular/inconsistent beyond rescue, or degraded
    under a strict :class:`~repro.analog.resilience.NumericsPolicy`),
    :class:`UnsolvableError` propagates so campaigns can record a
    first-class ``unsolvable`` outcome instead of a silent miss.
    """
    node_index, n_nodes, n_total = build_index(circuit)
    if x0 is None or len(x0) != n_total:
        x0 = np.zeros(n_total)

    unsolvable: Optional[SolveDiagnostics] = None

    def note(diag: Optional[SolveDiagnostics]) -> None:
        nonlocal unsolvable
        if diag is not None and diag.rung == RUNG_UNSOLVABLE:
            unsolvable = diag

    # 1. plain Newton from the supplied guess
    x, ok, its, diag = _newton(circuit, node_index, n_total, x0, gmin)
    total_its = its
    strategy = "newton"
    note(diag)
    if not ok:
        # 2. gmin stepping: solve with heavy shunt, tighten geometrically
        x_g = np.zeros(n_total)
        ok_g = True
        for g in GMIN_STEPS + (gmin,):
            x_g, ok_g, its, diag_g = _newton(circuit, node_index, n_total,
                                             x_g, g)
            total_its += its
            if not ok_g:
                note(diag_g)
                break
        if ok_g:
            x, ok, diag, strategy = x_g, True, diag_g, "gmin"
    if not ok:
        # 3. source stepping from a quiescent circuit
        x_s = np.zeros(n_total)
        ok_s = True
        for scale in SOURCE_STEPS:
            x_s, ok_s, its, diag_s = _newton(circuit, node_index, n_total,
                                             x_s, gmin, source_scale=scale)
            total_its += its
            if not ok_s:
                note(diag_s)
                break
        if ok_s:
            x, ok, diag, strategy = x_s, True, diag_s, "source"
    if not ok:
        # 4. pseudo-transient continuation, the last-resort homotopy
        x_p, ok_p, its, diag_p = _ptc_rescue(circuit, node_index, n_total,
                                             gmin)
        total_its += its
        if ok_p:
            x, ok, diag, strategy = x_p, True, diag_p, "ptc"
        else:
            note(diag_p)

    if not ok:
        strategy = "failed"
        if unsolvable is not None:
            raise UnsolvableError(
                "DC operating point unsolvable: every homotopy failed and "
                "the resilience ladder rejected the linear systems "
                f"({unsolvable.summary()})", diagnostics=unsolvable)

    return OperatingPoint(voltages=node_voltages(circuit, node_index, x),
                          converged=ok, iterations=total_its, x=x,
                          node_index=node_index, diagnostics=diag,
                          strategy=strategy)


def dc_sweep(circuit: Circuit, source_name: str,
             values) -> Dict[float, OperatingPoint]:
    """Sweep the value of voltage source *source_name* over *values*.

    Each point warm-starts from the previous solution, which makes sweeps
    across comparator thresholds robust.
    """
    src = circuit[source_name]
    if not isinstance(src, VoltageSource):
        raise SolverError(f"{source_name!r} is not a voltage source")
    original = src.voltage
    results: Dict[float, OperatingPoint] = {}
    x_guess = None
    try:
        for v in values:
            src.voltage = float(v)
            op = dc_operating_point(circuit, x0=x_guess)
            results[float(v)] = op
            if op.converged:
                x_guess = op.x
    finally:
        src.voltage = original
    return results
