"""Gate-level digital simulation substrate and its fault simulator."""

from .delay_faults import (
    TransitionFault,
    TransitionFaultInjector,
    enumerate_transition_faults,
)
from .gates import Component, Constant, Gate, Mux2
from .sequential import DFF, DLatch, ScanDFF
from .signals import HIGH, LOW, X, bus, from_bits, invert, resolve, to_bits
from .simulator import LogicCircuit, SimulationError
from .stuck_at import (
    FaultSimResult,
    LaunchHooks,
    StuckAtFault,
    apply_patterns_procedure,
    detects,
    enumerate_stuck_at_faults,
    exhaustive_patterns,
    first_difference,
    golden_response,
    run_fault_simulation,
)

__all__ = [
    "TransitionFault", "TransitionFaultInjector",
    "enumerate_transition_faults",
    "Component", "Constant", "Gate", "Mux2",
    "DFF", "DLatch", "ScanDFF",
    "HIGH", "LOW", "X", "bus", "from_bits", "invert", "resolve", "to_bits",
    "LogicCircuit", "SimulationError",
    "FaultSimResult", "LaunchHooks", "StuckAtFault",
    "apply_patterns_procedure", "detects", "enumerate_stuck_at_faults",
    "exhaustive_patterns", "first_difference", "golden_response",
    "run_fault_simulation",
]
