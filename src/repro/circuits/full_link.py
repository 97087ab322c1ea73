"""Full-link DC-test netlist: transmitter, differential wire, termination.

This is the circuit the paper's **DC test** runs on: the transmitter input
is held at static logic 1 (then 0), and the receiver's offset comparators
plus the bias window comparator are observed.  The builder returns every
observable output node and the mission device inventory used by the fault
campaign; the two-pattern solve itself is
:func:`repro.dft.duts.run_link_static`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analog import Capacitor, Circuit, OperatingPoint
from ..analog.mosfet import MOSFET
from ..channel import GLOBAL_MIN, RCLine, WireModel
from ..variation.context import die_bench
from .ffe_transmitter import TransmitterPorts, build_transmitter
from .termination import TerminationPorts, build_termination

#: ladder sections used for the DC netlist (resistive path is what matters)
DC_LADDER_SECTIONS = 4


@dataclass
class FullLinkPorts:
    """Handles into the assembled DC-test link."""

    circuit: Circuit
    data_source_name: str
    datab_source_name: str
    tx: TransmitterPorts
    term: TerminationPorts
    vdd: float

    @property
    def mission_devices(self) -> List[MOSFET]:
        return self.tx.mission_devices + self.term.mission_devices

    @property
    def mission_caps(self) -> List[Capacitor]:
        return self.tx.mission_caps

    # ------------------------------------------------------------------
    def apply_data(self, bit: int) -> None:
        """Set the static transmitter input."""
        v = self.vdd if bit else 0.0
        self.circuit[self.data_source_name].voltage = v
        self.circuit[self.datab_source_name].voltage = self.vdd - v

    def observe(self, op: OperatingPoint) -> Dict[str, int]:
        """Digitise the DC-test observables from an operating point."""
        half = self.vdd / 2

        def bit(node: str) -> int:
            return 1 if op.v(node) > half else 0

        return {
            "cmp_pos": bit(self.term.cmp_pos_out),
            "cmp_neg": bit(self.term.cmp_neg_out),
            "win_hi": bit(self.term.win_hi),
            "win_lo": bit(self.term.win_lo),
        }


@die_bench
def build_full_link(wire: WireModel = GLOBAL_MIN, length_m: float = 10e-3,
                    vdd: float = 1.2,
                    ladder_sections: int = DC_LADDER_SECTIONS,
                    name: str = "full_link") -> FullLinkPorts:
    """Assemble the complete DC-test netlist."""
    c = Circuit(name)
    c.add_vsource("vdd", "0", vdd, name="VDD")
    # the data nets are driven by the transmitter flip-flop output
    # buffers, not by ideal rails: model their finite output impedance so
    # that a gate short at a transmitter input loads the driving net the
    # way it would on silicon (an ideal source would hide the fault)
    c.add_vsource("data_src", "0", vdd, name="VDATA")
    c.add_vsource("data_b_src", "0", 0.0, name="VDATAB")
    c.add_resistor("data_src", "data", 2e3, name="RDRV_DATA")
    c.add_resistor("data_b_src", "data_b", 2e3, name="RDRV_DATAB")

    tx = build_transmitter(c, "tx", "data", "data_b", "tx_p", "tx_n")

    line = RCLine(wire, length_m)
    line.build_ladder(c, "tx_p", "rx_p", sections=ladder_sections,
                      prefix="line_p")
    line.build_ladder(c, "tx_n", "rx_n", sections=ladder_sections,
                      prefix="line_n")

    term = build_termination(c, "term", "rx_p", "rx_n")

    return FullLinkPorts(circuit=c, data_source_name="VDATA",
                         datab_source_name="VDATAB", tx=tx, term=term,
                         vdd=vdd)
