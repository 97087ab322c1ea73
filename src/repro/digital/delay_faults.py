"""Transition (delay) fault model for the gate-level substrate.

Section IV: "The digital coarse correction is operated at a divided
clock frequency which is in the range of scan test frequencies.  Hence
the delay faults in this path are also tested with 100% coverage."
This module provides the transition-fault machinery that claim needs:

* a **slow-to-rise** / **slow-to-fall** fault on a net delays that
  transition past the capture edge — modelled as the net holding its
  previous value for one extra clock cycle when it would have made the
  slow transition;
* launch-on-capture (broadside) pattern application: load a state via
  scan, pulse the functional clock twice (launch + capture), unload;
* injection into the shared fault simulator
  (:func:`repro.digital.stuck_at.run_fault_simulation`), which scores a
  pattern set against the TF universe.

The model hooks the :class:`LogicCircuit` force mechanism: between the
launch and capture evaluations the faulted net is pinned to its
pre-launch value when the slow transition was requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from .simulator import LogicCircuit
from .stuck_at import LaunchHooks, enumerate_stuck_at_faults


@dataclass(frozen=True)
class TransitionFault:
    """Slow-to-rise (str) or slow-to-fall (stf) fault on a net."""

    net: str
    slow_to: int     # 1 = slow-to-rise, 0 = slow-to-fall

    def __str__(self) -> str:
        return f"{self.net}/{'STR' if self.slow_to else 'STF'}"

    def inject(self, circuit: LogicCircuit) -> "TransitionFaultInjector":
        """The launch hooks that delay this net's transition.

        The net is checked here, so an unknown net is an injection error
        rather than a procedure that raises (which would count as a
        detection).
        """
        circuit.peek(self.net)      # SimulationError for an unknown net
        return TransitionFaultInjector(circuit, self)


def enumerate_transition_faults(circuit: LogicCircuit,
                                exclude: Iterable[str] = ()
                                ) -> List[TransitionFault]:
    """Two transition faults per net (mirrors the stuck-at collapse)."""
    stuck = enumerate_stuck_at_faults(circuit, exclude=exclude)
    nets = sorted({f.net for f in stuck})
    out: List[TransitionFault] = []
    for net in nets:
        out.append(TransitionFault(net, 1))
        out.append(TransitionFault(net, 0))
    return out


class TransitionFaultInjector(LaunchHooks):
    """Applies the delayed-transition semantics around a launch edge.

    Usage inside a test procedure::

        inj = TransitionFaultInjector(circuit, fault)
        ...
        inj.launch(clock)      # instead of circuit.tick(clock) at launch
        circuit.tick(clock)    # capture edge (fault released before it)
    """

    def __init__(self, circuit: LogicCircuit,
                 fault: Optional[TransitionFault]):
        super().__init__(circuit)
        self.fault = fault

    def launch(self, clock: str,
               event: Optional[Callable[[], None]] = None) -> None:
        """Launch edge: if the faulted net makes the slow transition,
        hold its old value through the cycle (released at capture).

        *event*, when given, performs the launch stimulus itself (e.g.
        primary-input pokes aligned with the clock edge) and must
        include the clock tick; otherwise a plain ``tick(clock)`` is
        issued.  The transition is judged across the whole event, which
        is the broadside launch semantics: FF updates and PI changes
        both count as launch transitions.
        """
        if self.fault is None:
            super().launch(clock, event)
            return
        c = self.circuit
        net = self.fault.net
        c.settle()                     # establish the pre-launch value
        before = c.peek(net)
        super().launch(clock, event)
        after = c.peek(net)
        slow = (self.fault.slow_to == 1 and before == 0 and after == 1) \
            or (self.fault.slow_to == 0 and before == 1 and after == 0)
        if slow:
            c.force(net, before)
            c.settle()

    def release(self) -> None:
        if self.fault is not None:
            self.circuit.release(self.fault.net)
            self.circuit.settle()
