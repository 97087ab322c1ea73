"""At-speed (launch-on-capture) scan test of the coarse correction path.

Section IV: "The digital coarse correction is operated at a divided
clock frequency which is in the range of scan test frequencies.  Hence
the delay faults in this path are also tested with 100% coverage."

Because the coarse path's functional clock is the divided clock
(~156 MHz), an ordinary scan tester can launch and capture at the
functional rate — so transition faults are testable with the same
infrastructure as stuck-at faults.  This module builds the coarse-path
fabric (window captures, FSM, ring counter, lock detector = Scan chain
B), applies broadside launch-on-capture patterns, and fault-simulates
the transition-fault universe.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Optional, Tuple

from ..digital.delay_faults import (TransitionFault,
                                    TransitionFaultInjector,
                                    enumerate_transition_faults)
from ..digital.simulator import LogicCircuit
from ..digital.stuck_at import (FaultSimResult, detects, golden_response,
                                run_fault_simulation)
from ..faults.model import StructuralFault
from ..scan.chain import ScanChain
from .digital_scan import CHAIN_B_LEN, LOCK_BITS, N_PHASES, build_chain_b
from .golden import GoldenSignatures
from .registry import register_tier

CLOCK = "clk_div"
#: block tag :class:`DelayScanTier` claims in a structural fault universe
COARSE_BLOCK = "coarse"


def build_coarse_fabric() -> Tuple[LogicCircuit, ScanChain]:
    """The clock-control path (Scan chain B) as a standalone fabric."""
    c = LogicCircuit("coarse_path")
    for net in ("win_hi", "win_lo", "sen", "si"):
        c.add_input(net, 0)
    return c, build_chain_b(c, "si", CLOCK)


def coarse_circuit() -> LogicCircuit:
    """A fresh coarse fabric circuit (the fault simulator's factory)."""
    return build_coarse_fabric()[0]


def _loc_rounds(n_random: int, seed: int) -> List[Tuple[List[int],
                                                        Tuple[int, int],
                                                        Tuple[int, int]]]:
    """(chain load, launch PIs, capture PIs) rounds.

    The PI pair toggles between launch and capture so the window-input
    cone sees transitions; deterministic corners exercise the ring
    rotation in both directions and the lock counter carry chain.
    """
    rng = Random(seed)
    rounds: List[Tuple[List[int], Tuple[int, int], Tuple[int, int]]] = []

    def one_hot(pos: int) -> List[int]:
        oh = [0] * N_PHASES
        oh[pos] = 1
        return oh

    # deterministic: rotate up and down from several positions with
    # every PI launch transition, counter crossings including the
    # saturation edge (6 -> 7), and both strong-pump output pulses
    pi_pairs = [((0, 0), (1, 0)), ((1, 0), (0, 0)), ((0, 0), (0, 1)),
                ((0, 1), (0, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)),
                ((1, 1), (0, 0)), ((0, 0), (1, 1))]
    for i, pos in enumerate((0, 2, 4, 5, 6, 7, 8, 9)):
        for dir_bit in (0, 1):
            load = ([0, 1, dir_bit, 1 - dir_bit] + one_hot(pos)
                    + [1, 0, 0])
            rounds.append((load, *pi_pairs[(2 * i + dir_bit)
                                           % len(pi_pairs)]))
    # lock counter crossings: 3->4 (carry chain), 6->7 (saturation
    # edge), 7 held (saturated) -- each with a request at launch
    for count_bits in ([1, 1, 0], [0, 1, 1], [1, 1, 1]):
        load = [0, 0, 1, 0] + one_hot(1) + count_bits
        rounds.append((load, (0, 0), (1, 0)))
        rounds.append((load, (1, 0), (0, 0)))
    # strong-pump pulses in both directions (corr x dir)
    rounds.append(([0, 0, 1, 1] + one_hot(3) + [0, 0, 0],
                   (0, 1), (0, 0)))
    rounds.append(([0, 0, 0, 1] + one_hot(3) + [0, 0, 0],
                   (1, 0), (0, 1)))

    for _ in range(n_random):
        load = [rng.randint(0, 1) for _ in range(CHAIN_B_LEN)]
        pis = (rng.randint(0, 1), rng.randint(0, 1))
        pis2 = (rng.randint(0, 1), rng.randint(0, 1))
        rounds.append((load, pis, pis2))
    return rounds


def coarse_delay_procedure(n_random: int = 24, seed: int = 2016):
    """Launch-on-capture procedure over the coarse fabric."""
    rounds = _loc_rounds(n_random, seed)

    def procedure(circuit: LogicCircuit,
                  injector: TransitionFaultInjector):
        # the chain handle on the (possibly faulted) circuit copy
        chain = ScanChain.traced(circuit, "B", "si", "sen", CLOCK)
        for load, launch_pis, capture_pis in rounds:
            chain.load(list(load))
            circuit.poke("win_hi", launch_pis[0])
            circuit.poke("win_lo", launch_pis[1])
            circuit.poke("sen", 0)
            circuit.settle()

            # launch event: the PI transition is aligned with the
            # launch clock edge (broadside semantics -- the window
            # comparator output changes on the divided-clock grid)
            def launch_event() -> None:
                circuit.poke("win_hi", capture_pis[0])
                circuit.poke("win_lo", capture_pis[1])
                circuit.tick(CLOCK)

            injector.launch(CLOCK, event=launch_event)
            # the strong-pump drive is consumed by the analog pump
            # *during* this cycle: observe it while the slow net is
            # still held (the analog integration sees the late pulse)
            yield circuit.peek("up_st")
            yield circuit.peek("dn_st")
            # capture edge: the held transition corrupts what the FFs
            # capture, then the fault releases
            circuit.tick(CLOCK)
            injector.release()
            yield from chain.unload()

    return procedure


def untestable_transition_faults(circuit: LogicCircuit) -> set:
    """Functionally untestable transition faults of the coarse fabric.

    Two provable classes (the same classes a production ATPG writes off
    as *untestable*, removing them from the coverage denominator):

    1. **scan-only fanout** — a net consumed exclusively as another
       cell's ``scan_in`` has no functional observation path, so a
       delayed transition on it can never reach a capture point;
    2. **increment-only counter monotonicity** — the lock detector is a
       saturating UP counter with no functional reset, so its MSB (and
       the saturation flag) can never *fall* at a functional clock edge:
       the falling transition does not exist in the machine's reachable
       behaviour (and its complement's rise likewise).
    """
    from ..digital.sequential import ScanDFF

    # class 1: structural scan of functional fanout
    functional_consumers: dict = {}
    for comp in circuit.components:
        if isinstance(comp, ScanDFF):
            func_inputs = [comp.d] + ([comp.reset] if comp.reset else [])
        else:
            func_inputs = comp.input_nets()
        for net in func_inputs:
            functional_consumers.setdefault(net, []).append(comp.name)

    out = set()
    for cell_q in ("cap_hi", "cap_lo"):
        if not functional_consumers.get(cell_q):
            out.add(TransitionFault(cell_q, 1))
            out.add(TransitionFault(cell_q, 0))

    # class 2: monotone (increment-only, saturating) counter nets
    msb = LOCK_BITS - 1
    out.add(TransitionFault(f"lock_q{msb}", 0))   # MSB never falls
    out.add(TransitionFault("lock_sat", 0))       # saturation never clears
    out.add(TransitionFault("lock_nsat", 1))      # complement never rises
    return out


def run_coarse_delay_campaign(n_random: int = 24,
                              seed: int = 2016) -> FaultSimResult:
    """Transition-fault simulation of the coarse-path LOC pattern set."""
    faults = enumerate_transition_faults(coarse_circuit(),
                                         exclude=("sen", "si"))
    return run_fault_simulation(
        coarse_circuit, coarse_delay_procedure(n_random=n_random, seed=seed),
        faults=faults)


def transition_fault_for(fault: StructuralFault) -> TransitionFault:
    """Project a structural fault onto the coarse fabric's TF model.

    The device field names the fabric net.  Opens starve a charge path,
    so the rising edge is the one that slows (slow-to-rise); shorts load
    the net and slow the falling edge (slow-to-fall).
    """
    return TransitionFault(fault.device, 1 if fault.kind.is_open else 0)


@register_tier("delay_scan")
class DelayScanTier:
    """The at-speed coarse-path scan stage as a registrable test tier.

    Wraps the launch-on-capture pattern set so it plugs into a
    :class:`~repro.faults.campaign.FaultCampaign` next to the paper's
    three tiers: a structural fault tagged ``block="coarse"`` is mapped
    onto a transition fault (see :func:`transition_fault_for`) and the
    LOC procedure is replayed against the faulted fabric up to its first
    observation that differs from the healthy response.
    """

    name = "delay_scan"

    def __init__(self, goldens: Optional[GoldenSignatures] = None,
                 n_random: int = 24, seed: int = 2016):
        self._procedure = coarse_delay_procedure(n_random=n_random,
                                                 seed=seed)
        goldens = goldens if goldens is not None else GoldenSignatures()
        self._golden_response = goldens.get(
            f"delay_scan_response[{n_random},{seed}]",
            lambda: golden_response(coarse_circuit, self._procedure))

    @property
    def golden(self) -> Dict[str, object]:
        """Healthy LOC response stream of the coarse fabric."""
        return {"response": self._golden_response}

    def applies_to(self, fault: StructuralFault) -> bool:
        return fault.block == COARSE_BLOCK

    def detect(self, fault: StructuralFault) -> bool:
        return detects(coarse_circuit, self._procedure,
                       transition_fault_for(fault), self._golden_response)


def effective_delay_coverage(result: FaultSimResult) -> float:
    """Coverage over the *testable* universe (ATPG convention)."""
    untestable = untestable_transition_faults(coarse_circuit())
    testable_total = result.total - len(untestable)
    detected_testable = len(result.detected - untestable)
    if testable_total <= 0:
        return 1.0
    return detected_testable / testable_total
