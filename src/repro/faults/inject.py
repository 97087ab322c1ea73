"""Netlist-level structural fault injection.

Opens lift one device terminal onto a fresh node connected back through
``R_OPEN``; shorts bridge two terminals with ``R_SHORT``.  A **gate
open** additionally ties the floating gate through ``R_GATE_RETAIN`` to
a *retention voltage* — the healthy bias of that gate — modelling the
standard assumption that a floating gate keeps a stable parasitic charge
rather than collapsing to a rail.  This is what makes gate opens the
hardest class (Table I): the device keeps operating at its old bias, so
static tests see nothing unless another test condition moves the bias.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..analog import Capacitor, Circuit
from ..analog.mosfet import MOSFET
from .model import (
    FaultKind,
    R_GATE_RETAIN,
    R_OPEN,
    R_SHORT,
    StructuralFault,
)


class InjectionError(Exception):
    """Raised when a fault cannot be applied to the given netlist."""


#: junction-leakage drift applied to a floating gate (toward substrate
#: for NMOS, toward the n-well for PMOS) [V]
GATE_LEAK_DRIFT = 0.15


def inject_fault(circuit: Circuit, fault: StructuralFault,
                 retention: Optional[Dict[str, float]] = None) -> Circuit:
    """Return a faulted **clone** of *circuit*.

    Parameters
    ----------
    retention:
        Node -> healthy DC voltage map used for the gate-open retention
        model.  When missing (or the node is absent), the floating gate
        is retained at mid-rail 0.6 V.
    """
    dup = circuit.clone(name=f"{circuit.name}+{fault.kind.value}")
    if fault.device not in dup:
        raise InjectionError(
            f"device {fault.device!r} not found in {circuit.name!r}")
    elem = dup[fault.device]
    kind = fault.kind

    if kind == FaultKind.CAP_SHORT:
        if not isinstance(elem, Capacitor):
            raise InjectionError(f"{fault.device!r} is not a capacitor")
        dup.add_resistor(elem.terminals["p"], elem.terminals["n"], R_SHORT,
                         name=f"FLT_{fault.device}_short")
        return dup

    if not isinstance(elem, MOSFET):
        raise InjectionError(f"{fault.device!r} is not a MOSFET")

    def lift(term: str) -> str:
        old = elem.terminals[term]
        floating = f"flt_{fault.device}_{term}"
        elem.terminals[term] = floating
        dup.add_resistor(floating, old, R_OPEN,
                         name=f"FLT_{fault.device}_{term}_open")
        return floating

    def bridge(t1: str, t2: str) -> None:
        dup.add_resistor(elem.terminals[t1], elem.terminals[t2], R_SHORT,
                         name=f"FLT_{fault.device}_{t1}{t2}_short")

    if kind == FaultKind.DRAIN_OPEN:
        lift("d")
    elif kind == FaultKind.SOURCE_OPEN:
        lift("s")
    elif kind == FaultKind.GATE_OPEN:
        d_node = elem.terminals["d"]
        s_node = elem.terminals["s"]
        floating = lift("g")
        # floating-gate model (Renovell-style): the broken gate couples
        # capacitively to the channel, settling near the average of the
        # drain/source potentials at the healthy operating point, then
        # drifts with the gate-junction leakage — toward the substrate
        # (down) for NMOS, toward the n-well (up) for PMOS.  The device
        # keeps conducting, but at the *wrong*, weaker bias — which is
        # what makes gate opens detectable-but-hard (Table I's 87.8%).
        v_keep = 0.6
        if retention:
            vd = retention.get(d_node)
            vs = retention.get(s_node)
            if vd is not None and vs is not None:
                v_keep = 0.5 * (vd + vs)
            elif vd is not None:
                v_keep = vd
            elif vs is not None:
                v_keep = vs

        leak = -GATE_LEAK_DRIFT if elem.params.polarity == "n" \
            else +GATE_LEAK_DRIFT
        v_keep = min(max(v_keep + leak, 0.0), 1.2)
        dup.add_vsource(f"flt_ret_{fault.device}", "0", v_keep,
                        name=f"FLT_{fault.device}_ret_src")
        dup.add_resistor(f"flt_ret_{fault.device}", floating, R_GATE_RETAIN,
                         name=f"FLT_{fault.device}_ret")
    elif kind == FaultKind.GATE_DRAIN_SHORT:
        bridge("g", "d")
    elif kind == FaultKind.GATE_SOURCE_SHORT:
        bridge("g", "s")
    elif kind == FaultKind.DRAIN_SOURCE_SHORT:
        bridge("d", "s")
    else:  # pragma: no cover - exhaustive
        raise InjectionError(f"unhandled fault kind {kind}")
    return dup


def make_injector(circuit_factory: Callable[[], Circuit],
                  retention: Optional[Dict[str, float]] = None):
    """Factory returning ``fault -> faulted fresh circuit`` closures."""

    def injector(fault: StructuralFault) -> Circuit:
        return inject_fault(circuit_factory(), fault, retention=retention)

    return injector
