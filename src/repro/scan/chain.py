"""Scan chain construction over mux-D scan flip-flops.

A :class:`ScanChain` strings :class:`repro.digital.ScanDFF` cells together:
each cell's ``scan_in`` is wired to the previous cell's Q, the first cell
reads the chain's serial input net, and the last cell's Q is the serial
output.  The paper uses two such chains:

* **Scan chain A** (data path): transmitter flops, FFE probe flops, the
  retimed phase-detector output at the receiver.
* **Scan chain B** (clock control path): window-comparator capture flops,
  charge-pump/control-FSM flops, UP/DOWN (ring) counter, lock detector.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..digital.sequential import ScanDFF
from ..digital.simulator import LogicCircuit, SimulationError


class ScanChain:
    """An ordered scan chain inside a :class:`LogicCircuit`.

    Parameters
    ----------
    circuit:
        Circuit the cells live in.
    name:
        Chain label (``"A"`` / ``"B"`` in the paper).
    scan_in, scan_enable:
        Primary-input nets for serial data and the shift-enable control.
    clock:
        Clock domain the chain shifts on.
    """

    def __init__(self, circuit: LogicCircuit, name: str, scan_in: str,
                 scan_enable: str, clock: str = "clk"):
        self.circuit = circuit
        self.name = name
        self.scan_in_net = scan_in
        self.scan_enable_net = scan_enable
        self.clock = clock
        self.cells: List[ScanDFF] = []
        if scan_in not in circuit.inputs:
            circuit.add_input(scan_in, 0)
        if scan_enable not in circuit.inputs:
            circuit.add_input(scan_enable, 0)

    @classmethod
    def traced(cls, circuit: LogicCircuit, name: str, scan_in: str,
               scan_enable: str, clock: str = "clk") -> "ScanChain":
        """The chain the netlist wires from *scan_in*, in shift order.

        Follows each scan cell's ``scan_in`` net to the next cell, so a
        fabric builder writes its cell order once, in the wiring, and
        every copy of the circuit (a faulted one too) yields the same
        chain.
        """
        chain = cls(circuit, name, scan_in, scan_enable, clock)
        fed_by = {comp.scan_in: comp for comp in circuit.components
                  if isinstance(comp, ScanDFF)}
        net = scan_in
        while net in fed_by:
            chain.cells.append(fed_by.pop(net))
            net = chain.cells[-1].q
        return chain

    # ------------------------------------------------------------------
    def append_cell(self, d: str, q: str, name: Optional[str] = None,
                    init: Optional[int] = 0) -> ScanDFF:
        """Create the next scan cell capturing *d* and driving *q*."""
        si = self.scan_in_net if not self.cells else self.cells[-1].q
        cell = self.circuit.add_scan_dff(
            d=d, q=q, scan_in=si, scan_enable=self.scan_enable_net,
            clock=self.clock, init=init,
            name=name or f"scan{self.name}_{len(self.cells)}")
        self.cells.append(cell)
        return cell

    def adopt_cell(self, cell: ScanDFF) -> ScanDFF:
        """Link an existing scan cell into the chain (rewires scan_in)."""
        cell.scan_in = self.scan_in_net if not self.cells else self.cells[-1].q
        cell.scan_enable = self.scan_enable_net
        self.cells.append(cell)
        return cell

    @property
    def length(self) -> int:
        return len(self.cells)

    @property
    def scan_out_net(self) -> str:
        if not self.cells:
            raise SimulationError(f"scan chain {self.name} is empty")
        return self.cells[-1].q

    # ------------------------------------------------------------------
    # shift/capture primitives
    # ------------------------------------------------------------------
    def shift_in(self, bits: Sequence[int]) -> List[int]:
        """Shift *bits* in (first element enters last cell... i.e. standard
        serial order: ``bits[0]`` is shifted first and ends up in the cell
        furthest from scan-in when ``len(bits) == length``).

        Returns the bits that fell out of scan-out during the shift.
        """
        c = self.circuit
        c.poke(self.scan_enable_net, 1)
        out: List[int] = []
        for b in bits:
            c.poke(self.scan_in_net, b)
            c.settle()
            out.append(c.peek(self.scan_out_net))
            c.tick(self.clock)
        c.poke(self.scan_enable_net, 0)
        c.settle()
        return out

    def shift_out(self) -> List[int]:
        """Unload the chain (zero-filled); returns ``length`` bits.

        The first returned bit is the last cell's pre-shift state (i.e.
        scan-out order), the last is the first cell's.
        """
        return self.shift_in([0] * self.length)

    def capture(self, cycles: int = 1) -> None:
        """One (or more) functional clock(s) with scan disabled."""
        c = self.circuit
        c.poke(self.scan_enable_net, 0)
        c.tick(self.clock, cycles=cycles)

    def load(self, bits: Sequence[int]) -> None:
        """Load the chain so that ``bits[i]`` lands in ``cells[i]``.

        Serial shifting reverses order, so the vector is shifted in
        reversed: after ``length`` shifts, the first-shifted bit sits in
        the last cell.
        """
        if len(bits) != self.length:
            raise SimulationError(
                f"load vector length {len(bits)} != chain length {self.length}")
        self.shift_in(list(reversed(bits)))

    def unload(self) -> List[int]:
        """Read the chain so that result[i] is the state of ``cells[i]``."""
        out = self.shift_out()
        return list(reversed(out))

    def state(self) -> List[Optional[int]]:
        """Non-destructive view of the cell states (simulation-only)."""
        return [cell.state for cell in self.cells]
