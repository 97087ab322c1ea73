"""Cycle-based gate-level logic simulator with stuck-at fault support.

The simulator holds every net value in a flat dictionary.  Combinational
settling iterates to a fixed point: the first pass evaluates every
component in registration order, and each later pass re-evaluates only
the components that read a net changed in the previous pass (same
Gauss-Seidel update order, so the fixed point is identical to the full
sweep).  Flip-flops update in two phases on :meth:`LogicCircuit.tick` so
shift registers and scan chains shift by exactly one position per clock.

Stuck-at faults are net forces applied after every evaluation pass, which
models a fault at the *driver* of the net (fanout-stem fault).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .gates import Component, Constant, Gate, Mux2
from .sequential import DFF, DLatch, ScanDFF
from .signals import resolve


class SimulationError(Exception):
    """Raised on oscillation, unknown nets, or malformed circuits."""


def _compile_eval(comp: Component):
    """Build a fast evaluator ``(fn, output_net)`` for *comp*.

    Net values are kept normalised to 0/1/None by ``poke``/``force``/the
    settle loop, so the closures read the value map directly instead of
    re-resolving on every evaluation and allocating a one-entry dict per
    call.  Components with anything other than exactly one output net
    fall back to ``(comp.evaluate, None)`` and keep dict semantics.
    """
    outs = comp.output_nets()
    if len(outs) != 1:
        return comp.evaluate, None
    out = outs[0]
    if isinstance(comp, Gate):
        ins = list(comp.inputs)
        kind = comp.kind
        if kind == "buf":
            net = ins[0]
            return (lambda values, _n=net: values.get(_n)), out
        if kind == "inv":
            net = ins[0]

            def fn_inv(values, _n=net):
                v = values.get(_n)
                return None if v is None else 1 - v

            return fn_inv, out
        if kind in ("and", "nand", "or", "nor"):
            dom = 0 if kind in ("and", "nand") else 1
            out_dom = dom if kind in ("and", "or") else 1 - dom

            def fn_dom(values, _ins=ins, _dom=dom, _hit=out_dom,
                       _idle=1 - out_dom):
                saw_x = False
                for net in _ins:
                    v = values.get(net)
                    if v == _dom:
                        return _hit
                    if v is None:
                        saw_x = True
                return None if saw_x else _idle

            return fn_dom, out

        def fn_xor(values, _ins=ins, _flip=(kind == "xnor")):
            acc = 0
            for net in _ins:
                v = values.get(net)
                if v is None:
                    return None
                acc ^= v
            return 1 - acc if _flip else acc

        return fn_xor, out
    if isinstance(comp, Mux2):

        def fn_mux(values, _a=comp.a, _b=comp.b, _s=comp.sel):
            s = values.get(_s)
            va = values.get(_a)
            vb = values.get(_b)
            if s is None:
                return va if va == vb else None
            return vb if s else va

        return fn_mux, out
    if isinstance(comp, Constant):
        return (lambda values, _v=comp.value: _v), out
    if isinstance(comp, DLatch):

        def fn_latch(values, _c=comp):
            if values.get(_c.enable) == 1:
                _c.state = values.get(_c.d)
            return _c.state

        return fn_latch, out
    if isinstance(comp, DFF):  # covers ScanDFF: Q mirrors the stored state
        return (lambda values, _c=comp: _c.state), out

    def fn_generic(values, _c=comp, _out=out):
        return _c.evaluate(values)[_out]

    return fn_generic, out


class LogicCircuit:
    """A gate-level digital circuit with named nets and clock domains."""

    #: extra settle passes allowed beyond the component count
    SETTLE_MARGIN = 8

    def __init__(self, name: str = "logic"):
        self.name = name
        self.components: List[Component] = []
        self.values: Dict[str, Optional[int]] = {}
        self.inputs: Set[str] = set()
        self._forced: Dict[str, int] = {}
        self._names: Set[str] = set()
        #: compiled (evaluators, fanout map); rebuilt after structural edits
        self._plan: Optional[Tuple[list, Dict[str, List[int]]]] = None
        self._flops_by_clock: Dict[Optional[str], List[Tuple[int, DFF]]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _register(self, comp: Component) -> Component:
        if comp.name in self._names:
            raise SimulationError(f"duplicate component name {comp.name!r}")
        self._names.add(comp.name)
        self.components.append(comp)
        for net in comp.input_nets() + comp.output_nets():
            self.values.setdefault(net, None)
        self._plan = None
        self._flops_by_clock.clear()
        return comp

    def add_input(self, net: str, value: Optional[int] = 0) -> str:
        """Declare *net* as a primary input with an initial value."""
        self.inputs.add(net)
        self.values[net] = resolve(value) if value is not None else None
        return net

    def add_gate(self, kind: str, inputs: Sequence[str], output: str,
                 name: Optional[str] = None) -> Gate:
        """Add a combinational gate of *kind* driving *output*."""
        name = name or f"{kind}_{output}"
        return self._register(Gate(name, kind, inputs, output))

    def add_mux2(self, a: str, b: str, sel: str, output: str,
                 name: Optional[str] = None) -> Mux2:
        """Add a 2:1 mux (*b* selected when *sel* is 1)."""
        return self._register(Mux2(name or f"mux_{output}", a, b, sel, output))

    def add_constant(self, output: str, value: int,
                     name: Optional[str] = None) -> Constant:
        """Tie *output* to a constant 0/1."""
        return self._register(Constant(name or f"const_{output}", output, value))

    def add_dff(self, d: str, q: str, clock: str = "clk",
                reset: Optional[str] = None, reset_value: int = 0,
                init: Optional[int] = 0, name: Optional[str] = None) -> DFF:
        """Add a positive-edge D flip-flop in clock domain *clock*."""
        return self._register(DFF(name or f"dff_{q}", d, q, clock, reset,
                                  reset_value, init))

    def add_scan_dff(self, d: str, q: str, scan_in: str, scan_enable: str,
                     clock: str = "clk", reset: Optional[str] = None,
                     reset_value: int = 0, init: Optional[int] = 0,
                     name: Optional[str] = None) -> ScanDFF:
        """Add a mux-D scan flip-flop (shift when *scan_enable* is 1)."""
        return self._register(ScanDFF(name or f"sdff_{q}", d, q, scan_in,
                                      scan_enable, clock, reset, reset_value,
                                      init))

    def add_latch(self, d: str, q: str, enable: str, init: Optional[int] = 0,
                  name: Optional[str] = None) -> DLatch:
        """Add a level-sensitive latch, transparent while *enable* is 1."""
        return self._register(DLatch(name or f"lat_{q}", d, q, enable, init))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def nets(self) -> List[str]:
        """All net names, sorted."""
        return sorted(self.values)

    def _clock_flops(self, clock: Optional[str]) -> List[Tuple[int, DFF]]:
        """Cached ``(component index, flop)`` pairs for one clock domain."""
        cached = self._flops_by_clock.get(clock)
        if cached is None:
            cached = [(i, c) for i, c in enumerate(self.components)
                      if isinstance(c, DFF)
                      and (clock is None or c.clock == clock)]
            self._flops_by_clock[clock] = cached
        return cached

    def flops(self, clock: Optional[str] = None) -> List[DFF]:
        """Flip-flops, optionally filtered to one clock domain."""
        return [f for _, f in self._clock_flops(clock)]

    def component(self, name: str) -> Component:
        """Look up a component by name."""
        for c in self.components:
            if c.name == name:
                return c
        raise SimulationError(f"no component named {name!r}")

    # ------------------------------------------------------------------
    # fault forcing
    # ------------------------------------------------------------------
    def force(self, net: str, value: int) -> None:
        """Stuck-at force on *net* (applied after every settle pass)."""
        if net not in self.values:
            raise SimulationError(f"cannot force unknown net {net!r}")
        self._forced[net] = resolve(value)

    def release(self, net: Optional[str] = None) -> None:
        """Remove one force (or all of them when *net* is None)."""
        if net is None:
            self._forced.clear()
        else:
            self._forced.pop(net, None)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def poke(self, net: str, value: Optional[int]) -> None:
        """Set a primary input."""
        if net not in self.inputs:
            raise SimulationError(f"{net!r} is not a primary input")
        self.values[net] = resolve(value) if value is not None else None

    def peek(self, net: str) -> Optional[int]:
        """Read a net's current value."""
        try:
            return self.values[net]
        except KeyError:
            raise SimulationError(f"unknown net {net!r}") from None

    def _apply_forces(self) -> None:
        for net, val in self._forced.items():
            self.values[net] = val

    def _build_plan(self) -> Tuple[list, Dict[str, List[int]]]:
        evals = [_compile_eval(c) for c in self.components]
        fanout: Dict[str, List[int]] = {}
        for i, comp in enumerate(self.components):
            for net in comp.input_nets():
                fanout.setdefault(net, []).append(i)
        self._plan = (evals, fanout)
        return self._plan

    def settle(self) -> None:
        """Evaluate combinational logic (and latches) to a fixed point.

        The first pass sweeps every component in registration order (so
        pokes, forces, and direct edits to :attr:`values` are always
        observed); later passes re-evaluate only the components reading a
        net that changed in the previous pass.  Skipped components see
        unchanged inputs and would reproduce their current output, so the
        fixed point — and the pass count charged against the oscillation
        limit — matches the full sweep.
        """
        self._run_settle(None)

    def _run_settle(self, dirty: Optional[Sequence[int]]) -> None:
        self._apply_forces()
        evals, fanout = self._plan or self._build_plan()
        values = self.values
        forced = self._forced
        limit = len(self.components) + self.SETTLE_MARGIN
        if dirty is None:
            dirty = range(len(evals))
        for _ in range(limit):
            changed: Set[str] = set()
            for i in dirty:
                fn, out = evals[i]
                if out is None:  # multi-output fallback keeps dict semantics
                    for net, val in fn(values).items():
                        if net in forced:
                            val = forced[net]
                        if values.get(net) != val:
                            values[net] = val
                            changed.add(net)
                    continue
                val = fn(values)
                if out in forced:
                    val = forced[out]
                if values.get(out) != val:
                    values[out] = val
                    changed.add(out)
            if not changed:
                return
            touched: Set[int] = set()
            for net in changed:
                touched.update(fanout.get(net, ()))
            dirty = sorted(touched)
        raise SimulationError(
            f"circuit {self.name!r} did not settle in {limit} passes "
            "(combinational loop?)")

    def tick(self, clock: str = "clk", cycles: int = 1) -> None:
        """Advance the named clock domain by *cycles* rising edges."""
        for _ in range(cycles):
            self.settle()
            flops = self._clock_flops(clock)
            next_states = [f.next_state(self.values) for _, f in flops]
            dirty: Set[int] = set()
            for (i, f), ns in zip(flops, next_states):
                if f.state != ns:
                    dirty.add(i)
                f.commit(ns)
            # the pre-edge settle left everything else at a fixed point,
            # so re-settling only needs to start from the changed flops
            self._run_settle(sorted(dirty))

    def reset_state(self, value: int = 0) -> None:
        """Force every flip-flop and latch to *value* and re-settle."""
        for comp in self.components:
            if isinstance(comp, (DFF, DLatch)):
                comp.state = resolve(value)
        self.settle()

    def snapshot(self) -> Dict[str, Optional[int]]:
        """Copy of all net values (for good-vs-faulty comparison)."""
        return dict(self.values)
