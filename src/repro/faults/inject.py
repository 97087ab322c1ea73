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

from typing import Dict, Optional

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

#: the terminal pair each short kind bridges through ``R_SHORT``
SHORTED_TERMINALS = {
    FaultKind.CAP_SHORT: ("p", "n"),
    FaultKind.GATE_DRAIN_SHORT: ("g", "d"),
    FaultKind.GATE_SOURCE_SHORT: ("g", "s"),
    FaultKind.DRAIN_SOURCE_SHORT: ("d", "s"),
}


def retained_gate_voltage(device: MOSFET,
                          retention: Optional[Dict[str, float]]) -> float:
    """The voltage a gate open of *device* pins its floating gate to.

    Floating-gate model (Renovell-style): the broken gate couples
    capacitively to the channel, settling near the average of the
    drain/source potentials at the healthy operating point *retention*,
    then drifts with the gate-junction leakage — toward the substrate
    (down) for NMOS, toward the n-well (up) for PMOS.  The device keeps
    conducting, but at the *wrong*, weaker bias — which is what makes
    gate opens detectable-but-hard (Table I's 87.8%).  A terminal the
    profile lacks falls back to the other; with neither, mid-rail 0.6 V.
    """
    v_keep = 0.6
    if retention:
        vd = retention.get(device.terminals["d"])
        vs = retention.get(device.terminals["s"])
        if vd is not None and vs is not None:
            v_keep = 0.5 * (vd + vs)
        elif vd is not None:
            v_keep = vd
        elif vs is not None:
            v_keep = vs
    leak = -GATE_LEAK_DRIFT if device.params.polarity == "n" \
        else +GATE_LEAK_DRIFT
    return min(max(v_keep + leak, 0.0), 1.2)


def inject_fault(circuit: Circuit, fault: StructuralFault,
                 retention: Optional[Dict[str, float]] = None) -> Circuit:
    """Return a faulted **clone** of *circuit*.

    Parameters
    ----------
    retention:
        Node -> healthy DC voltage map used for the gate-open retention
        model (:func:`retained_gate_voltage`).  When missing (or the
        node is absent), the floating gate is retained at mid-rail 0.6 V.
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
    elif not isinstance(elem, MOSFET):
        raise InjectionError(f"{fault.device!r} is not a MOSFET")

    if kind in SHORTED_TERMINALS:
        # a capacitor has one terminal pair; a MOSFET short names its
        t1, t2 = SHORTED_TERMINALS[kind]
        label = "short" if kind == FaultKind.CAP_SHORT else f"{t1}{t2}_short"
        dup.add_resistor(elem.terminals[t1], elem.terminals[t2], R_SHORT,
                         name=f"FLT_{fault.device}_{label}")
        return dup

    def lift(term: str) -> str:
        old = elem.terminals[term]
        floating = f"flt_{fault.device}_{term}"
        elem.terminals[term] = floating
        dup.add_resistor(floating, old, R_OPEN,
                         name=f"FLT_{fault.device}_{term}_open")
        return floating

    if kind == FaultKind.DRAIN_OPEN:
        lift("d")
    elif kind == FaultKind.SOURCE_OPEN:
        lift("s")
    elif kind == FaultKind.GATE_OPEN:
        v_keep = retained_gate_voltage(elem, retention)
        floating = lift("g")
        dup.add_vsource(f"flt_ret_{fault.device}", "0", v_keep,
                        name=f"FLT_{fault.device}_ret_src")
        dup.add_resistor(f"flt_ret_{fault.device}", floating, R_GATE_RETAIN,
                         name=f"FLT_{fault.device}_ret")
    else:  # pragma: no cover - exhaustive
        raise InjectionError(f"unhandled fault kind {kind}")
    return dup
