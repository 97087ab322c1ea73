"""Slow reference for the digital fault simulator, and its pin.

The serial loops the fault simulator replaced: every fault runs its
test procedure to the end on a fresh circuit, and the whole response is
compared with the fault-free one.  :mod:`repro.digital.stuck_at`
compares each observation as it is produced and stops at the first
difference; the tier-1 tests and the guard check ``digital-golden``
hold it to this module and to ``reference_verdicts.json``, the committed
per-fault table of both default campaigns (scan chains A and B under
stuck-at faults, the coarse path under launch-on-capture transition
faults).  For each fault model the table holds the procedure
parameters, the excluded nets, the response length and each fault's
first differing observation (``null``: undetected).  The table was
written from the whole-response loops before the engine replaced them;
a change that moves a verdict on purpose rewrites it from
:func:`oracle_table` and says why.

Run as a script (``PYTHONPATH=src python
tests/digital/reference_fault_sim.py``), it runs both campaigns through
the oracle and through the engine and exits 1 naming every fault whose
entry moved.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.dft.delay_scan import coarse_circuit, coarse_delay_procedure
from repro.dft.digital_scan import build_digital_fabric, scan_test_procedure
from repro.digital import (
    LaunchHooks,
    StuckAtFault,
    TransitionFaultInjector,
    enumerate_stuck_at_faults,
    enumerate_transition_faults,
    first_difference,
    golden_response,
)

PIN = Path(__file__).with_name("reference_verdicts.json")


def digital_circuit():
    return build_digital_fabric().circuit


#: fault model -> (circuit factory, procedure builder, fault enumerator)
CAMPAIGNS = {
    "stuck_at": (digital_circuit, scan_test_procedure,
                 enumerate_stuck_at_faults),
    "transition": (coarse_circuit, coarse_delay_procedure,
                   enumerate_transition_faults),
}


def inject(circuit, fault):
    """The parent loops' injection: force a stuck-at net, or wrap a
    transition fault's launch edge."""
    if isinstance(fault, StuckAtFault):
        circuit.force(fault.net, fault.value)
        return LaunchHooks(circuit)
    return TransitionFaultInjector(circuit, fault)


def full_response(circuit_factory: Callable, procedure: Callable, fault):
    """``(response, raised)``: *procedure* run to its end (or to the
    exception it raised) on a fresh circuit, faulted unless *fault* is
    None."""
    circuit = circuit_factory()
    hooks = (LaunchHooks(circuit) if fault is None
             else inject(circuit, fault))
    response: List[Optional[int]] = []
    try:
        for observed in procedure(circuit, hooks):
            response.append(observed)
    except Exception:
        return response, True
    return response, False


def whole_response_difference(golden: Sequence, response: Sequence,
                              raised: bool) -> Optional[int]:
    """First index where two whole responses differ; a raise differs
    where it happened.  None when they are equal."""
    for k, (want, got) in enumerate(zip(golden, response)):
        if want != got:
            return k
    if raised or len(response) != len(golden):
        return min(len(golden), len(response))
    return None


def reference_first_differences(circuit_factory: Callable,
                                procedure: Callable,
                                faults: Sequence) -> Dict:
    """Each fault's first differing observation, from whole responses."""
    golden, raised = full_response(circuit_factory, procedure, None)
    assert not raised, "the fault-free procedure raised"
    return {fault: whole_response_difference(
                golden, *full_response(circuit_factory, procedure, fault))
            for fault in faults}


def load_pin() -> dict:
    with open(PIN) as fh:
        return json.load(fh)


def campaign(model: str, entry: dict):
    """``(circuit factory, procedure, faults)`` of a pinned campaign."""
    factory, build_procedure, enumerate_faults = CAMPAIGNS[model]
    procedure = build_procedure(**entry["procedure"])
    return (factory, procedure,
            enumerate_faults(factory(), exclude=entry["exclude"]))


def oracle_table(model: str, entry: dict) -> Dict[str, Optional[int]]:
    table = reference_first_differences(*campaign(model, entry))
    return {str(fault): k for fault, k in table.items()}


def engine_table(model: str, entry: dict) -> Dict[str, Optional[int]]:
    factory, procedure, faults = campaign(model, entry)
    golden = golden_response(factory, procedure)
    assert len(golden) == entry["response_length"]
    return {str(fault): first_difference(factory, procedure, fault, golden)
            for fault in faults}


def moved(entry: dict, table: Dict[str, Optional[int]]) -> List[str]:
    """Every fault whose first difference is not the pinned one."""
    pinned = entry["first_difference"]
    return [f"{name}: pinned {pinned.get(name, 'absent')}, "
            f"now {table.get(name, 'absent')}"
            for name in sorted(set(pinned) | set(table))
            if pinned.get(name, "absent") != table.get(name, "absent")]


def main() -> int:
    pin = load_pin()
    problems = []
    for label, build_table in (("oracle", oracle_table),
                               ("engine", engine_table)):
        for model, entry in sorted(pin.items()):
            t0 = time.monotonic()
            table = build_table(model, entry)
            misses = moved(entry, table)
            problems += [f"{label} {model} {line}" for line in misses]
            detected = sum(k is not None for k in table.values())
            print(f"{label} {model}: {detected}/{len(table)} detected, "
                  f"{len(misses)} moved ({time.monotonic() - t0:.1f}s)")
    if problems:
        print(f"{len(problems)} difference(s) from {PIN.name}")
        print("\n".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
