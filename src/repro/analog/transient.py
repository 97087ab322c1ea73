"""Fixed-step transient analysis on top of the MNA engine.

Each time step solves the nonlinear companion-model system with the
engine's one Newton loop (:func:`repro.analog.dc.newton`),
warm-started from the previous time point.  Sources may carry a
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

A run given ``probes`` steps only the probes' cone of influence
(:func:`probe_cone`): the elements whose stamps can move a probe's
voltage, cloned into a smaller netlist.  The t = 0 operating point is
still solved on the whole netlist and restricted to the cone by node and
source name, so the first step starts from the whole netlist's bits; the
probes then agree with the whole-netlist run (``probes=None``) to
rounding, and a run whose cone is every element is that run.  The cone's
netlist is cut once per structural revision of the netlist and kept on
it (``Circuit.cone_cache``); each run re-reads its elements' values, and
a retune of the netlist retunes the cone's compiled plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.profiling import COUNTERS
from .assembly import get_compiled
from .dc import VOLTAGE_TOL, dc_operating_point, newton
from .devices import (Capacitor, Element, Switch,
                      VoltageControlledVoltageSource, VoltageSource)
from .mosfet import MOSFET
from .netlist import Circuit, is_ground
from .resilience import RUNG_UNSOLVABLE, SolveDiagnostics, UnsolvableError
from .solver import build_index

MAX_NEWTON_ITER = 80
#: Newton step (V) that ends a time step; looser than the DC tolerance
_STEP_TOL = VOLTAGE_TOL * 100

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


def probe_cone(circuit: Circuit, probes: Sequence[str]) -> List[Element]:
    """The elements whose stamps can move a probe's voltage, in netlist
    order.

    Influence follows the MNA stamps.  A MOSFET writes its drain and
    source rows and reads all four terminals; a switch writes its two
    rows and also reads its control.  A node pinned by a grounded
    voltage source or VCVS takes influence only through that source
    (plus, for a VCVS, its controls): the node's own row then only sets
    the source's branch current, which no probe reads.  Every other
    element, fallback elements included, couples all its terminals.
    The cone is closed: every non-pinned node it reaches keeps every
    element that writes its row, so its rows form a system of their own.
    """
    pins: Dict[str, List[Element]] = {}
    writers: Dict[str, List[Element]] = {}
    reads: Dict[str, tuple] = {}
    for elem in circuit:
        t = elem.terminals
        if isinstance(elem, MOSFET):
            rows, read = (t["d"], t["s"]), (t["d"], t["g"], t["s"], t["b"])
        elif isinstance(elem, Switch):
            rows, read = (t["p"], t["n"]), (t["p"], t["n"], t["ctrl"])
        elif (isinstance(elem, (VoltageSource,
                                VoltageControlledVoltageSource))
              and is_ground(t["p"]) != is_ground(t["n"])):
            node = t["n"] if is_ground(t["p"]) else t["p"]
            pins.setdefault(node, []).append(elem)
            reads[elem.name] = (node, t.get("cp", "0"), t.get("cn", "0"))
            continue
        else:
            rows = read = tuple(t.values())
        reads[elem.name] = read
        for node in rows:
            writers.setdefault(node, []).append(elem)

    nodes, kept = set(), set()
    todo = [p for p in probes if not is_ground(p)]
    while todo:
        node = todo.pop()
        if node in nodes:
            continue
        nodes.add(node)
        for elem in pins.get(node) or writers.get(node, ()):
            if elem.name not in kept:
                kept.add(elem.name)
                todo.extend(n for n in reads[elem.name] if not is_ground(n))
    return [elem for elem in circuit if elem.name in kept]


class _Cone:
    """A probe cone's netlist: clones of the cone's elements in netlist
    order, cut once from *circuit* (indexed by *node_index*), and the
    map *take* from its unknowns to the whole netlist's (by node and
    source name)."""

    def __init__(self, circuit: Circuit, node_index: Dict[str, int],
                 cone: List[Element]):
        self.sub = Circuit(circuit.name)
        self.pairs = [(elem, self.sub.add(elem.clone())) for elem in cone]
        sub_index, _, n_total = build_index(self.sub)
        take = np.empty(n_total, dtype=np.intp)
        for node, i in sub_index.items():
            take[i] = node_index[node]
        for elem, dup in self.pairs:
            if dup.num_aux:
                take[dup.aux_base:dup.aux_base + dup.num_aux] = range(
                    elem.aux_base, elem.aux_base + elem.num_aux)
        self.take = take
        self.param_revision = circuit.param_revision

    def sync(self, circuit: Circuit) -> Circuit:
        """The cone's netlist with every element's values (source levels
        and waveforms, device parameters) re-read from *circuit*'s; a
        retune of *circuit* since the last run retunes it too."""
        for elem, dup in self.pairs:
            terminals, aux_base = dup.terminals, dup.aux_base
            dup.__dict__.update(elem.__dict__)
            dup.terminals, dup.aux_base = terminals, aux_base
        if self.param_revision != circuit.param_revision:
            self.param_revision = circuit.param_revision
            self.sub.retune()
        return self.sub


def _cone_of(circuit: Circuit, node_index: Dict[str, int],
             probes: Sequence[str]) -> Optional[_Cone]:
    """*circuit*'s cached :class:`_Cone` of *probes*, cut on the first
    run of this structural revision; None when the cone is every
    element."""
    key = (circuit.revision, tuple(probes))
    cache = circuit.cone_cache
    if key not in cache:
        cone = probe_cone(circuit, probes)
        cache[key] = (_Cone(circuit, node_index, cone)
                      if len(cone) < len(circuit) else None)
    return cache[key]


def transient(circuit: Circuit, t_stop: float, dt: float,
              probes: Optional[Sequence[str]] = None,
              method: str = "be",
              x0: Optional[np.ndarray] = None,
              stop: Optional[Callable[[float, Sequence[float]], bool]] = None
              ) -> TransientResult:
    """Integrate *circuit* from 0 to *t_stop* with step *dt*.

    Parameters
    ----------
    probes:
        Node names to record; default records every node.  A probed
        run steps only the probes' :func:`probe_cone`.
    method:
        ``'be'`` (robust default) or ``'trap'``.
    x0:
        Initial solution vector; default is the DC operating point at t=0.
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
    if probes is not None:
        cone = _cone_of(circuit, node_index, probes)
        if cone is not None:
            x = x[cone.take]
            circuit = cone.sync(circuit)
            node_index, _, n_total = build_index(circuit)

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
        # estimate the condition once, at the end
        x_new, ok, _, diag = newton(compiled, x, tol=_STEP_TOL,
                                    max_iter=MAX_NEWTON_ITER, time=t_next,
                                    xprev=x, want_condition=k == n_steps)
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
                    x_sub, sub_ok, _, diag = newton(
                        sub, x_sub, tol=_STEP_TOL, max_iter=MAX_NEWTON_ITER,
                        time=t + j * dt / level, xprev=x_sub,
                        want_condition=False)
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
        if run_diag is None:
            run_diag = diag
        elif diag is not None:
            run_diag.absorb(diag)
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
