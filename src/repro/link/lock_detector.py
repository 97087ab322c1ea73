"""Lock detector: 3-bit saturating UP counter of coarse requests.

Section III: "From any initial condition, the number of coarse
corrections needed can be no more than half the number of DLL phases" —
five for the 10-phase design, so a 3-bit saturating counter suffices.
During BIST the link runs at speed on random data; the BIST verdict
fails when the counter exceeds the theoretical bound or the loop never
reaches lock within the time budget (2 us = 5000 cycles at 2.5 Gbps).

Both a behavioural counter and a gate-level scan-testable netlist
builder are provided; the flops belong to Scan chain B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..digital.simulator import LogicCircuit
from .params import LinkParams


@dataclass
class LockDetector:
    """Behavioural saturating counter; the BIST pass rule on its count
    is :class:`repro.synchronizer.loop.LockVerdict`."""

    params: LinkParams
    count: int = 0

    @property
    def max_count(self) -> int:
        return self.params.lock_detector_max

    def reset(self) -> None:
        self.count = 0

    def log_coarse_request(self) -> int:
        """Count one coarse correction (saturating)."""
        if self.count < self.max_count:
            self.count += 1
        return self.count


def build_lock_detector(circuit: LogicCircuit, prefix: str, bits: int,
                        scan_in: str, scan_enable: str,
                        request_net: str, clock: str = "clk_div") -> List:
    """Gate-level saturating UP counter (scan cells in Scan chain B).

    Increments on a clock edge when *request_net* is high, saturating at
    all-ones.  Returns the scan cells (LSB first).
    """
    q = [f"{prefix}_q{i}" for i in range(bits)]
    # saturation: all bits high
    circuit.add_gate("and", q if bits > 1 else [q[0], q[0]],
                     f"{prefix}_sat", name=f"{prefix}_and_sat")
    # increment enable = request & ~saturated
    circuit.add_gate("inv", [f"{prefix}_sat"], f"{prefix}_nsat",
                     name=f"{prefix}_inv_sat")
    circuit.add_gate("and", [request_net, f"{prefix}_nsat"],
                     f"{prefix}_inc", name=f"{prefix}_and_inc")

    cells = []
    carry = f"{prefix}_inc"
    for i in range(bits):
        d = f"{prefix}_d{i}"
        nxt = f"{prefix}_n{i}"
        circuit.add_gate("xor", [q[i], carry], nxt, name=f"{prefix}_xor{i}")
        # hold when not incrementing is implicit: carry=0 -> nxt = q
        circuit.add_gate("buf", [nxt], d, name=f"{prefix}_buf{i}")
        if i < bits - 1:
            new_carry = f"{prefix}_c{i + 1}"
            circuit.add_gate("and", [q[i], carry], new_carry,
                             name=f"{prefix}_and_c{i}")
            carry = new_carry
        si = scan_in if i == 0 else q[i - 1]
        cells.append(circuit.add_scan_dff(
            d, q[i], scan_in=si, scan_enable=scan_enable, clock=clock,
            name=f"{prefix}_ff{i}"))
    return cells
