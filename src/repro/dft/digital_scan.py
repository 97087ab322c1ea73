"""Digital scan test of the link: chains A and B, 100% stuck-at.

Section IV: "The digital components are tested using the scan test.
Since the circuits are logically simple in nature, the stuck at fault
coverage is 100%."  This module builds the complete digital fabric of
the link at gate level, strings the two scan chains of Section II —

* **Scan chain A** (data path): transmitter data/tap flops, the two
  probe flops, the Alexander PD's four sampling flops, and the
  clock-domain-crossing flop;
* **Scan chain B** (clock control path): the window-comparator capture
  flops, the coarse FSM state, the 10-stage ring counter, and the 3-bit
  lock detector —

and runs a scan pattern campaign (flush + load/capture/unload) that the
stuck-at fault simulator scores.  In test mode every flop runs from the
external scan clock (the Fig 1 clock mux), so a single clock domain
drives both shifting and capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Sequence

from ..circuits.phase_detector import build_alexander_pd
from ..digital.simulator import LogicCircuit
from ..digital.stuck_at import (FaultSimResult, LaunchHooks,
                                run_fault_simulation)
from ..link.lock_detector import build_lock_detector
from ..link.ring_counter import build_ring_counter
from ..link.transmitter import build_transmitter_digital
from ..scan.chain import ScanChain

SCAN_CLOCK = "scan_clk"
N_PHASES = 10
LOCK_BITS = 3
#: chain B length: 2 capture + 2 FSM + ring + lock
CHAIN_B_LEN = 4 + N_PHASES + LOCK_BITS
#: functional primary inputs of the digital fabric
PRIMARY_INPUTS = ("data_in", "half_cycle_en", "win_hi", "win_lo")
#: pump-control outputs observed around every capture
PUMP_OUTPUTS = ("pd_up", "pd_dn", "up_st", "dn_st")


@dataclass
class DigitalLinkFabric:
    """The assembled gate-level link with its two scan chains."""

    circuit: LogicCircuit
    chain_a: ScanChain
    chain_b: ScanChain

    @property
    def primary_inputs(self) -> List[str]:
        return list(PRIMARY_INPUTS)


def build_chain_b(c: LogicCircuit, scan_in: str, clock: str) -> ScanChain:
    """Scan chain B, the clock-control path, wired from *scan_in*.

    The window-comparator capture flops, the coarse FSM (the Fig 8
    control logic: request, direction, strong pump drive), the ring
    counter (UP/DOWN selector of the DLL phase) and the lock detector
    (3-bit saturating UP counter of requests), every flop a scan cell
    on *clock* with scan enable ``sen``.  The ``win_hi`` / ``win_lo``
    inputs must exist.
    """
    c.add_scan_dff("win_hi", "cap_hi", scan_in=scan_in, scan_enable="sen",
                   clock=clock, name="win_cap_hi")
    c.add_scan_dff("win_lo", "cap_lo", scan_in="cap_hi", scan_enable="sen",
                   clock=clock, name="win_cap_lo")
    c.add_gate("or", ["win_hi", "win_lo"], "req", name="fsm_or_req")
    c.add_scan_dff("win_lo", "dir_q", scan_in="cap_lo", scan_enable="sen",
                   clock=clock, name="fsm_dir_ff")
    c.add_scan_dff("req", "corr_q", scan_in="dir_q", scan_enable="sen",
                   clock=clock, name="fsm_corr_ff")
    c.add_gate("and", ["corr_q", "dir_q"], "up_st", name="fsm_and_upst")
    c.add_gate("inv", ["dir_q"], "dir_qb", name="fsm_inv_dir")
    c.add_gate("and", ["corr_q", "dir_qb"], "dn_st", name="fsm_and_dnst")
    ring = build_ring_counter(c, "ring", N_PHASES, scan_in="corr_q",
                              scan_enable="sen", up_net="dir_q",
                              enable_net="req", clock=clock)
    build_lock_detector(c, "lock", LOCK_BITS, scan_in=ring[-1].q,
                        scan_enable="sen", request_net="req", clock=clock)
    return ScanChain.traced(c, "B", scan_in, "sen", clock)


def build_digital_fabric() -> DigitalLinkFabric:
    """Assemble the digital link fabric in test mode (single scan clock)."""
    c = LogicCircuit("digital_link")
    for net in PRIMARY_INPUTS + ("sen", "si_a", "si_b"):
        c.add_input(net, 0)

    # ---------------- Scan chain A: data path ----------------
    tx = build_transmitter_digital(c, "tx", "data_in", "si_a", "sen",
                                   "half_cycle_en")
    pd = build_alexander_pd(c, "pd", tx.to_driver,
                            scan_in=tx.scan_cells[-1].q, scan_enable="sen")
    # clock-domain-crossing flop (the Section II-A "last flip-flop")
    c.add_scan_dff(pd.retimed, "cdc_q", scan_in=pd.scan_cells[-1].q,
                   scan_enable="sen", name="cdc_ff")
    chain_a = ScanChain.traced(c, "A", "si_a", "sen", SCAN_CLOCK)
    for cell in chain_a.cells:
        cell.clock = SCAN_CLOCK

    # ---------------- Scan chain B: clock control path ----------------
    chain_b = build_chain_b(c, "si_b", SCAN_CLOCK)
    return DigitalLinkFabric(circuit=c, chain_a=chain_a, chain_b=chain_b)


# ----------------------------------------------------------------------
# scan pattern campaign
# ----------------------------------------------------------------------
def scan_test_procedure(n_random: int = 24, seed: int = 2016):
    """Build the scan test procedure run against every stuck-at fault.

    The procedure flush-tests both chains, then applies deterministic
    corner patterns plus *n_random* random load/capture/unload rounds,
    driving the primary inputs through their corners.  The observed
    response is everything unloaded, yielded as it is shifted out.
    """
    rng = Random(seed)
    pi_patterns = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                   (1, 1, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1),
                   (0, 1, 1, 0), (1, 0, 0, 1)]
    len_a = 9                       # TX (4) + PD (4) + CDC (1)

    # deterministic corners: lock counter near saturation with a request
    # pending (exercises the saturation gate), and ring one-hot preloads
    # at several positions (the Section II-B preload-and-count test)
    det_rounds = []
    sat_load = [0, 0, 1, 1] + [0] * N_PHASES + [1] * LOCK_BITS
    det_rounds.append(([1, 0, 1, 0, 1, 0, 1, 0, 1], sat_load, (0, 0, 1, 0)))
    for pos in (0, 3, 7, 9):
        oh = [0] * N_PHASES
        oh[pos] = 1
        load_b = [0, 0, 1, 1] + oh + [0, 1, 0]
        det_rounds.append(([0, 1, 1, 0, 0, 1, 1, 0, 0], load_b,
                           (1, 0, 0, 1)))
        load_b2 = [1, 1, 0, 1] + oh + [1, 0, 1]
        det_rounds.append(([1, 1, 0, 0, 1, 1, 0, 0, 1], load_b2,
                           (0, 1, 1, 0)))

    random_rounds = det_rounds + [
        ([rng.randint(0, 1) for _ in range(len_a)],
         [rng.randint(0, 1) for _ in range(CHAIN_B_LEN)],
         pi_patterns[i % len(pi_patterns)])
        for i in range(n_random)
    ]

    def procedure(circuit: LogicCircuit, hooks: LaunchHooks):
        # chain handles on the (possibly faulted) circuit copy
        chain_a = ScanChain.traced(circuit, "A", "si_a", "sen", SCAN_CLOCK)
        chain_b = ScanChain.traced(circuit, "B", "si_b", "sen", SCAN_CLOCK)

        def parallel_shift(bits_a: Sequence[int], bits_b: Sequence[int]):
            """Shift both chains together (shared scan clock, separate
            scan-in/scan-out pins), yielding both scan-outs per tick."""
            n = max(len(bits_a), len(bits_b))
            circuit.poke("sen", 1)
            for k in range(n):
                circuit.poke("si_a", bits_a[k] if k < len(bits_a) else 0)
                circuit.poke("si_b", bits_b[k] if k < len(bits_b) else 0)
                circuit.settle()
                yield circuit.peek(chain_a.scan_out_net)
                yield circuit.peek(chain_b.scan_out_net)
                circuit.tick(SCAN_CLOCK)
            circuit.poke("sen", 0)
            circuit.settle()

        def parallel_load(load_a: Sequence[int], load_b: Sequence[int]):
            # longer chain loads first: pad the shorter chain's stream
            # so its payload arrives in the final len() shifts
            n = max(len(load_a), len(load_b))
            yield from parallel_shift(
                [0] * (n - len(load_a)) + list(reversed(load_a)),
                [0] * (n - len(load_b)) + list(reversed(load_b)))

        # 1. flush both chains (chain continuity / switch-matrix test)
        flush_a = [(i // 2) % 2 for i in range(chain_a.length)]
        flush_b = [(i // 2) % 2 for i in range(chain_b.length)]
        yield from parallel_shift(flush_a, flush_b)
        yield from parallel_shift([0] * chain_a.length, [0] * chain_b.length)

        # 2. load/capture/unload rounds
        for load_a, load_b, pis in random_rounds:
            for net, val in zip(PRIMARY_INPUTS, pis):
                circuit.poke(net, val)
            yield from parallel_load(load_a, load_b)
            # the pump-control outputs (PD UP/DN, strong-pump drive) go
            # to the analog charge pump; the analog scan test observes
            # them through the captured window-comparator outputs, so
            # they count as observable outputs here
            circuit.settle()
            for po in PUMP_OUTPUTS:
                yield circuit.peek(po)
            circuit.tick(SCAN_CLOCK)          # capture (sen already 0)
            for po in PUMP_OUTPUTS:
                yield circuit.peek(po)
            # unload (zero-fill); the shift itself yields both outputs
            yield from parallel_shift([0] * chain_a.length,
                                      [0] * chain_b.length)

    return procedure


def run_digital_scan_campaign(n_random: int = 24,
                              seed: int = 2016) -> FaultSimResult:
    """Stuck-at fault simulation of the scan pattern set.

    Excluded nets: the scan/test control pins themselves (their faults
    are chain-integrity faults caught trivially by the flush test but
    modelled here as test-infrastructure, matching standard practice).
    """
    def factory() -> LogicCircuit:
        return build_digital_fabric().circuit

    procedure = scan_test_procedure(n_random=n_random, seed=seed)
    exclude = ("sen", "si_a", "si_b")
    return run_fault_simulation(factory, procedure, exclude=exclude)
