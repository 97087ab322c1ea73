"""Stuck-at fault model and the fault simulator for logic circuits.

The paper reports 100% stuck-at coverage for the link's digital logic
("the circuits are logically simple in nature").  This module provides the
machinery to *demonstrate* that: enumerate the collapsed stuck-at fault
universe of a :class:`LogicCircuit`, run a pattern set against each fault,
and report coverage.

The simulator serves every digital fault model.  A fault injects itself
into a fresh circuit (:meth:`StuckAtFault.inject`,
:meth:`~repro.digital.delay_faults.TransitionFault.inject`) and returns
the :class:`LaunchHooks` the test procedure calls at its launch edge.  A
procedure is ``procedure(circuit, hooks)`` and yields its observations
one at a time; each is compared with the fault-free response as it
arrives, so a detected fault's run ends at its first difference.  A
procedure that returns a list gets the same verdicts without stopping
early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from .simulator import LogicCircuit


class LaunchHooks:
    """What a test procedure calls around its launch and capture edges.

    A fault-free or stuck-at circuit needs nothing there: :meth:`launch`
    performs the launch event and :meth:`release` does nothing.  A
    transition fault overrides both
    (:class:`~repro.digital.delay_faults.TransitionFaultInjector`).
    """

    def __init__(self, circuit: LogicCircuit):
        self.circuit = circuit

    def launch(self, clock: str,
               event: Optional[Callable[[], None]] = None) -> None:
        """The launch edge: *event* when given (it must include the
        clock tick), otherwise a plain ``tick(clock)``."""
        if event is None:
            self.circuit.tick(clock)
        else:
            event()

    def release(self) -> None:
        """Called after the capture edge."""


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault on a net."""

    net: str
    value: int  # 0 for SA0, 1 for SA1

    def __str__(self) -> str:
        return f"{self.net}/SA{self.value}"

    def inject(self, circuit: LogicCircuit) -> LaunchHooks:
        """Force the net (an unknown net raises) for the whole run."""
        circuit.force(self.net, self.value)
        return LaunchHooks(circuit)


def enumerate_stuck_at_faults(circuit: LogicCircuit,
                              exclude: Iterable[str] = ()) -> List[StuckAtFault]:
    """All net stuck-at faults, excluding constants and listed nets.

    Net-level (fanout-stem) faults are the collapsed equivalent of pin
    faults for the simple cells used here.  Nets driven by constant cells
    are excluded (a stuck-at on a tied net is undetectable by definition),
    as are any in *exclude* (e.g. clocks handled by other tests).
    """
    from .gates import Constant

    tied = set()
    for comp in circuit.components:
        if isinstance(comp, Constant):
            tied.update(comp.output_nets())
    skip = tied | set(exclude)
    faults = []
    for net in circuit.nets():
        if net in skip:
            continue
        faults.append(StuckAtFault(net, 0))
        faults.append(StuckAtFault(net, 1))
    return faults


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation campaign (any fault model)."""

    total: int
    detected: Set
    undetected: Set

    @property
    def coverage(self) -> float:
        """Detected fraction (1.0 when the universe is empty)."""
        if self.total == 0:
            return 1.0
        return len(self.detected) / self.total


# type of a test procedure: drives the circuit, yields observed outputs
TestProcedure = Callable[[LogicCircuit, LaunchHooks],
                         Iterable[Optional[int]]]


def golden_response(circuit_factory: Callable[[], LogicCircuit],
                    procedure: TestProcedure) -> Tuple[Optional[int], ...]:
    """The fault-free response of *procedure*, read to its end."""
    circuit = circuit_factory()
    return tuple(procedure(circuit, LaunchHooks(circuit)))


def first_difference(circuit_factory: Callable[[], LogicCircuit],
                     procedure: TestProcedure, fault,
                     golden: Sequence[Optional[int]]) -> Optional[int]:
    """Index of *fault*'s first observation that differs from *golden*.

    ``None`` when the whole response equals *golden*.  Observations are
    compared as the procedure produces them and the run ends at the
    first difference.  A response that ends early or runs long differs
    where the shorter one ends, and a procedure that raises differs
    where it raised: a fault that crashes the test is observable.  The
    fault is injected before the run, so an injection error propagates.
    """
    circuit = circuit_factory()
    hooks = fault.inject(circuit)
    seen = 0
    try:
        for observed in procedure(circuit, hooks):
            if seen == len(golden) or observed != golden[seen]:
                return seen
            seen += 1
    except Exception:
        return seen
    return None if seen == len(golden) else seen


def detects(circuit_factory: Callable[[], LogicCircuit],
            procedure: TestProcedure, fault,
            golden: Sequence[Optional[int]]) -> bool:
    """Whether *procedure* tells *fault* from the fault-free circuit."""
    return first_difference(circuit_factory, procedure, fault,
                            golden) is not None


def run_fault_simulation(circuit_factory: Callable[[], LogicCircuit],
                         procedure: TestProcedure,
                         faults: Optional[Sequence] = None,
                         exclude: Iterable[str] = ()) -> FaultSimResult:
    """Fault simulation of *procedure* over a fault universe.

    *circuit_factory* must build a fresh circuit (state included) on every
    call.  *faults* defaults to the stuck-at universe of the circuit less
    the nets in *exclude*.  A fault is detected when its response differs
    from the fault-free response at any observed position.
    """
    golden = golden_response(circuit_factory, procedure)
    if faults is None:
        faults = enumerate_stuck_at_faults(circuit_factory(),
                                           exclude=exclude)
    detected = {fault for fault in faults
                if detects(circuit_factory, procedure, fault, golden)}
    return FaultSimResult(total=len(faults), detected=detected,
                          undetected=set(faults) - detected)


def apply_patterns_procedure(input_nets: Sequence[str],
                             output_nets: Sequence[str],
                             patterns: Sequence[Sequence[int]],
                             clock: Optional[str] = None,
                             cycles_per_pattern: int = 1) -> TestProcedure:
    """Build a simple apply-and-observe test procedure.

    Each pattern is poked onto *input_nets*; the circuit settles (and is
    clocked *cycles_per_pattern* times when *clock* is given); the values
    of *output_nets* are yielded.
    """

    def procedure(circuit: LogicCircuit, hooks: LaunchHooks):
        for pattern in patterns:
            for net, bit in zip(input_nets, pattern):
                circuit.poke(net, bit)
            if clock is None:
                circuit.settle()
            else:
                circuit.tick(clock, cycles=cycles_per_pattern)
            for net in output_nets:
                yield circuit.peek(net)

    return procedure


def exhaustive_patterns(width: int) -> List[List[int]]:
    """All 2^width input patterns (little-endian bit order)."""
    if width > 16:
        raise ValueError("exhaustive patterns limited to 16 inputs")
    return [[(v >> i) & 1 for i in range(width)] for v in range(1 << width)]
