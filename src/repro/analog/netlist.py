"""Circuit netlist representation for the analog simulation engine.

A :class:`Circuit` is a flat bag of named elements connected between named
nodes.  Node ``'0'`` (alias ``'gnd'``) is the ground reference.  Elements are
created through the ``add_*`` convenience methods and can later be looked up
by name, cloned, or rewritten (the fault injector relies on this).

The representation is deliberately simple: every element stores a
``terminals`` mapping from terminal role (``'d'``, ``'g'``, ``'s'``, ``'p'``,
``'n'`` ...) to a node name.  Rewiring a terminal is a dictionary update,
which makes structural fault injection (opens and shorts) a netlist
transformation rather than a special simulator mode.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .devices import (Capacitor,
                      CurrentSource,
                      Diode,
                      Element,
                      Resistor,
                      Switch,
                      VoltageControlledVoltageSource,
                      VoltageSource,
                      is_ground)
from .mosfet import MOSFET, MOSParams, NMOS_130, PMOS_130


class CircuitError(Exception):
    """Raised for malformed circuit construction or lookups."""


class Circuit:
    """A flat netlist of analog elements.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports and error messages.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._elements: Dict[str, Element] = {}
        self._counter = 0
        self._revision = 0
        self._param_revision = 0
        self._compiled_cache: Dict = {}
        self._cone_cache: Dict = {}
        #: :func:`repro.analog.solver.build_index`'s result for this
        #: structural revision (its only writer), None until a solve
        #: builds it; dropped by :meth:`touch` and on :meth:`clone`
        self.index: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # revision tracking (read by the compiled-assembly plan cache)
    # ------------------------------------------------------------------
    @property
    def revision(self) -> int:
        """Structural revision; bumped by :meth:`touch`."""
        return self._revision

    @property
    def param_revision(self) -> int:
        """Parameter revision; bumped by :meth:`retune`."""
        return self._param_revision

    @property
    def plan_cache(self) -> Dict:
        """The compiled-assembly plan cache keyed by compile knobs.

        Owned by the circuit so structural edits (:meth:`touch`) can
        drop every plan; :func:`repro.analog.assembly.get_compiled` is
        the only writer.
        """
        return self._compiled_cache

    @property
    def cone_cache(self) -> Dict:
        """Probe-cone netlists cut from this circuit, keyed by probes
        and structural revision; dropped by :meth:`touch` and on
        :meth:`clone`.  :func:`repro.analog.transient.transient` is the
        only writer."""
        return self._cone_cache

    # ------------------------------------------------------------------
    # element management
    # ------------------------------------------------------------------
    def _unique_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def add(self, element: Element) -> Element:
        """Register *element*, enforcing unique names."""
        if element.name in self._elements:
            raise CircuitError(
                f"duplicate element name {element.name!r} in circuit {self.name!r}"
            )
        self._elements[element.name] = element
        self.touch()
        return element

    def remove(self, name: str) -> Element:
        """Remove and return the element called *name*."""
        try:
            elem = self._elements.pop(name)
        except KeyError:
            raise CircuitError(f"no element named {name!r} in {self.name!r}") from None
        self.touch()
        return elem

    def touch(self) -> None:
        """Invalidate compiled assembly plans and the node index after a
        structural edit.

        ``add``/``remove`` call this automatically; callers that rewire
        terminals or mutate element parameters in place between solves
        must call it themselves.
        """
        self._revision += 1
        self._compiled_cache.clear()
        self._cone_cache.clear()
        self.index = None

    def retune(self) -> None:
        """Signal an element-*parameter* edit that keeps the topology.

        Unlike :meth:`touch`, compiled assembly plans survive: their
        device-parameter arrays (MOSFET EKV coefficients, switch
        thresholds and on/off conductances, capacitor companion terms)
        are re-read in place on the next solve instead of recompiling
        the whole scatter structure.  This is what makes a Monte-Carlo
        die sweep cheap — the topology, node index, and COO scatter
        plans are shared across dies and only the parameter vectors are
        re-stamped.  Edits to *static* stamps (resistances, VCVS gains,
        source incidence) still require :meth:`touch`.
        """
        self._param_revision += 1

    def __getitem__(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise CircuitError(f"no element named {name!r} in {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> List[Element]:
        """All elements in insertion order."""
        return list(self._elements.values())

    def elements_of_type(self, cls) -> List[Element]:
        """Elements that are instances of *cls* (e.g. ``MOSFET``)."""
        return [e for e in self._elements.values() if isinstance(e, cls)]

    def nodes(self) -> List[str]:
        """Sorted list of non-ground node names referenced by any element."""
        seen = set()
        for elem in self._elements.values():
            for node in elem.terminals.values():
                if not is_ground(node):
                    seen.add(node)
        return sorted(seen)

    def clone(self, name: Optional[str] = None) -> "Circuit":
        """Structural copy of the circuit (used by the fault injector).

        Every element is copied with :meth:`Element.clone`, so rewiring,
        re-parameterising or re-driving the copy's elements leaves the
        original untouched.  The compiled-assembly cache is dropped on
        the copy: clones exist to be mutated (faults, corners), so
        inherited plans would go stale silently.
        """
        state = dict(self.__dict__)
        state.update(name=name or f"{self.name}_copy",
                     _elements={key: elem.clone()
                                for key, elem in self._elements.items()},
                     _compiled_cache={}, _cone_cache={}, index=None)
        dup = object.__new__(type(self))
        dup.__dict__.update(state)
        return dup

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    def add_resistor(self, p: str, n: str, resistance: float,
                     name: Optional[str] = None) -> Resistor:
        """Add a two-terminal resistor of *resistance* ohms between p and n."""
        return self.add(Resistor(name or self._unique_name("R"), p, n, resistance))

    def add_capacitor(self, p: str, n: str, capacitance: float,
                      name: Optional[str] = None) -> Capacitor:
        """Add a capacitor of *capacitance* farads between p and n."""
        return self.add(Capacitor(name or self._unique_name("C"), p, n, capacitance))

    def add_vsource(self, p: str, n: str, voltage: float,
                    name: Optional[str] = None) -> VoltageSource:
        """Add an independent voltage source (p positive) of *voltage* volts."""
        return self.add(VoltageSource(name or self._unique_name("V"), p, n, voltage))

    def add_isource(self, p: str, n: str, current: float,
                    name: Optional[str] = None) -> CurrentSource:
        """Add a current source driving *current* amps from p to n."""
        return self.add(CurrentSource(name or self._unique_name("I"), p, n, current))

    def add_vcvs(self, p: str, n: str, cp: str, cn: str, gain: float,
                 name: Optional[str] = None) -> VoltageControlledVoltageSource:
        """Add an ideal voltage-controlled voltage source (gain * V(cp,cn))."""
        return self.add(VoltageControlledVoltageSource(
            name or self._unique_name("E"), p, n, cp, cn, gain))

    def add_switch(self, p: str, n: str, ctrl: str, threshold: float = 0.6,
                   r_on: float = 100.0, r_off: float = 1e9,
                   name: Optional[str] = None) -> Switch:
        """Add a voltage-controlled switch (closed when V(ctrl) > threshold)."""
        return self.add(Switch(name or self._unique_name("S"), p, n, ctrl,
                               threshold, r_on, r_off))

    def add_diode(self, p: str, n: str, i_s: float = 1e-14,
                  name: Optional[str] = None) -> Diode:
        """Add a junction diode (anode p, cathode n)."""
        return self.add(Diode(name or self._unique_name("D"), p, n, i_s))

    def add_nmos(self, d: str, g: str, s: str, b: Optional[str] = None,
                 w: float = 0.5e-6, l: float = 0.5e-6,
                 params: Optional[MOSParams] = None,
                 name: Optional[str] = None) -> MOSFET:
        """Add an NMOS transistor; default W/L is the paper's 0.5u/0.5u."""
        return self.add(MOSFET(name or self._unique_name("MN"), d, g, s,
                               b if b is not None else "0",
                               w, l, params or NMOS_130))

    def add_pmos(self, d: str, g: str, s: str, b: Optional[str] = None,
                 w: float = 0.5e-6, l: float = 0.5e-6,
                 params: Optional[MOSParams] = None,
                 name: Optional[str] = None) -> MOSFET:
        """Add a PMOS transistor; bulk defaults to its source if not given."""
        return self.add(MOSFET(name or self._unique_name("MP"), d, g, s,
                               b if b is not None else s,
                               w, l, params or PMOS_130))

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def include(self, sub: "Circuit", prefix: str = "",
                node_map: Optional[Dict[str, str]] = None) -> None:
        """Merge *sub*'s elements into this circuit.

        ``prefix`` is prepended to every element name; ``node_map`` renames
        the subcircuit's nodes (its keys) to this circuit's nodes (values).
        Unmapped non-ground nodes are prefixed to keep them private.
        """
        node_map = dict(node_map or {})
        for elem in sub.elements:
            dup = elem.clone()
            dup.name = f"{prefix}{elem.name}" if prefix else elem.name
            for term, node in dup.terminals.items():
                if is_ground(node):
                    continue
                if node in node_map:
                    dup.terminals[term] = node_map[node]
                elif prefix:
                    dup.terminals[term] = f"{prefix}{node}"
            self.add(dup)

    def summary(self) -> Dict[str, int]:
        """Count elements by class name (used by structure tests)."""
        counts: Dict[str, int] = {}
        for elem in self._elements.values():
            key = type(elem).__name__
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Circuit {self.name!r}: {len(self)} elements, {len(self.nodes())} nodes>"
