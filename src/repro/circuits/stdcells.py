"""Transistor-level standard cells shared by the paper's circuits.

Builders emit devices into an existing :class:`repro.analog.Circuit` with
a name prefix, and return the created elements so callers (and the fault
enumerator) can reference them.  All default W/L values follow the paper:
un-labelled transistors are 0.5u/0.5u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analog import MOSFET, Circuit
from ..analog.mosfet import MOSParams, NMOS_130, PMOS_130

#: the paper's default device geometry
WL_DEFAULT = (0.5e-6, 0.5e-6)
#: the deliberately upsized comparator input device (0.8u/0.5u)
WL_OFFSET = (0.8e-6, 0.5e-6)


@dataclass
class CellPorts:
    """Node names of a built cell plus its devices (for fault injection)."""

    nodes: dict
    devices: List[MOSFET]


def build_inverter(circuit: Circuit, prefix: str, vin: str, vout: str,
                   vdd: str = "vdd", vss: str = "0",
                   wn: float = 0.5e-6, wp: float = 1.0e-6,
                   l: float = 0.5e-6,
                   nparams: Optional[MOSParams] = None,
                   pparams: Optional[MOSParams] = None) -> CellPorts:
    """Static CMOS inverter (PMOS upsized 2x by default for symmetry)."""
    mp = circuit.add_pmos(vout, vin, vdd, w=wp, l=l,
                          params=pparams or PMOS_130, name=f"{prefix}_MP")
    mn = circuit.add_nmos(vout, vin, vss, w=wn, l=l,
                          params=nparams or NMOS_130, name=f"{prefix}_MN")
    return CellPorts(nodes={"in": vin, "out": vout}, devices=[mp, mn])


def build_transmission_gate(circuit: Circuit, prefix: str, a: str, b: str,
                            ctrl: str, ctrl_b: str,
                            wn: float = 0.5e-6, wp: float = 0.5e-6,
                            l: float = 0.5e-6) -> CellPorts:
    """CMOS transmission gate between *a* and *b*.

    With both controls asserted this is the paper's "transmission gate
    resistor" used as the receiver termination; a drain open in one of
    the two devices produces the *dynamic* mismatch fault the DC test
    misses (Section II-A).
    """
    mn = circuit.add_nmos(b, ctrl, a, w=wn, l=l, name=f"{prefix}_MN")
    mp = circuit.add_pmos(b, ctrl_b, a, b="vdd" if "vdd" in [ctrl, ctrl_b] else ctrl_b,
                          w=wp, l=l, name=f"{prefix}_MP")
    # bulk of the PMOS must be the highest rail; fix to 'vdd' convention
    mp.terminals["b"] = "vdd"
    return CellPorts(nodes={"a": a, "b": b}, devices=[mn, mp])


def build_bias_divider(circuit: Circuit, prefix: str, out: str,
                       vdd: str = "vdd", vss: str = "0",
                       r_top: float = 60e3, r_bot: float = 60e3) -> CellPorts:
    """Resistive bias generator (the paper's voltage-divider bias).

    Two of these exist in the design: one at the receiver termination and
    a reference one in the clock-recovery circuit; the termination window
    comparator compares them (Section II-A).
    """
    circuit.add_resistor(vdd, out, r_top, name=f"{prefix}_RT")
    circuit.add_resistor(out, vss, r_bot, name=f"{prefix}_RB")
    return CellPorts(nodes={"out": out}, devices=[])

