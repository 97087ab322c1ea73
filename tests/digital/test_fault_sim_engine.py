"""The digital fault simulator against its pin and its oracle.

``reference_verdicts.json`` is the per-fault table the whole-response
loops gave for both default campaigns; ``reference_fault_sim.py`` holds
those loops.  The engine compares observations as they are produced and
stops at the first difference, so it must read exactly first-difference
+ 1 observations of a detected fault and every observation of an
undetected one.
"""

import pytest
from reference_fault_sim import (
    campaign,
    load_pin,
    reference_first_differences,
)

from repro.dft.delay_scan import (
    DelayScanTier,
    coarse_circuit,
    untestable_transition_faults,
)
from repro.digital import (
    LogicCircuit,
    SimulationError,
    StuckAtFault,
    TransitionFault,
    apply_patterns_procedure,
    detects,
    exhaustive_patterns,
    first_difference,
    golden_response,
    run_fault_simulation,
)
from repro.faults import FaultCampaign, FaultKind, StructuralFault

PIN = load_pin()


class Counting:
    """Wraps a procedure; counts the observations read from its last
    run."""

    def __init__(self, procedure):
        self.procedure = procedure
        self.reads = 0

    def __call__(self, circuit, hooks):
        self.reads = 0
        for observed in self.procedure(circuit, hooks):
            self.reads += 1
            yield observed


class TestPin:
    def test_stuck_at_pin_detects_every_fault(self):
        table = PIN["stuck_at"]["first_difference"]
        assert len(table) == 142
        assert all(k is not None for k in table.values())

    def test_transition_pin_misses_exactly_the_untestable_faults(self):
        table = PIN["transition"]["first_difference"]
        assert len(table) == 108
        missed = {name for name, k in table.items() if k is None}
        untestable = untestable_transition_faults(coarse_circuit())
        assert missed == {str(f) for f in untestable}
        assert len(missed) == 7

    @pytest.mark.parametrize("model", sorted(PIN))
    def test_engine_reads_up_to_the_pinned_first_difference(self, model):
        entry = PIN[model]
        factory, procedure, faults = campaign(model, entry)
        assert sorted(map(str, faults)) == sorted(entry["first_difference"])
        golden = golden_response(factory, procedure)
        assert len(golden) == entry["response_length"]
        counting = Counting(procedure)
        for fault in faults:
            k = first_difference(factory, counting, fault, golden)
            assert k == entry["first_difference"][str(fault)], fault
            want = len(golden) if k is None else k + 1
            assert counting.reads == want, fault

    @pytest.mark.parametrize("model", sorted(PIN))
    def test_oracle_agrees_on_every_seventh_fault(self, model):
        entry = PIN[model]
        factory, procedure, faults = campaign(model, entry)
        sample = faults[::7]
        oracle = reference_first_differences(factory, procedure, sample)
        golden = golden_response(factory, procedure)
        for fault in sample:
            k = first_difference(factory, procedure, fault, golden)
            assert k == oracle[fault] == entry["first_difference"][
                str(fault)], fault


def and_circuit():
    c = LogicCircuit()
    c.add_input("a", 0)
    c.add_input("b", 0)
    c.add_gate("and", ["a", "b"], "y")
    return c


def dff_circuit():
    c = LogicCircuit()
    c.add_input("d", 0)
    c.add_dff("d", "q")
    return c


def gated_ring():
    """x = buf(nand(and(en, d), x)): oscillates once the gate opens on a
    driven x (an all-X loop would settle silently)."""
    c = LogicCircuit()
    c.add_input("en", 0)
    c.add_input("d", 0)
    c.add_gate("and", ["en", "d"], "g")
    c.add_gate("nand", ["g", "x"], "x2")
    c.add_gate("buf", ["x2"], "x")
    return c


def pipeline():
    c = LogicCircuit()
    c.add_input("d", 0)
    c.add_dff("d", "q1", clock="clk")
    c.add_gate("inv", ["q1"], "n1")
    c.add_dff("n1", "q2", clock="clk")
    return c


def open_the_gate(circuit, hooks):
    circuit.settle()
    yield circuit.peek("x")
    circuit.poke("d", 1)        # en/SA1 opens the gate: SimulationError
    circuit.settle()
    yield circuit.peek("x")


def loc_pipeline(circuit, hooks):
    circuit.poke("d", 1)
    circuit.settle()
    hooks.launch("clk")
    circuit.tick("clk")
    hooks.release()
    yield circuit.peek("q2")


def while_low(circuit, hooks):
    """Yields y for each pattern until y reads 1: the response length
    depends on the circuit."""
    for a, b in ((0, 1), (1, 0), (1, 1), (0, 0)):
        circuit.poke("a", a)
        circuit.poke("b", b)
        circuit.settle()
        if circuit.peek("y") == 1:
            return
        yield circuit.peek("y")


def listed(procedure):
    """The same procedure returning a list instead of yielding."""
    return lambda circuit, hooks: list(procedure(circuit, hooks))


def sa_faults(factory):
    return [StuckAtFault(net, v) for net in factory().nets() for v in (0, 1)]


SMALL = {
    "and-exhaustive": (and_circuit, apply_patterns_procedure(
        ["a", "b"], ["y"], exhaustive_patterns(2)), sa_faults(and_circuit)),
    "and-one-pattern": (and_circuit, apply_patterns_procedure(
        ["a", "b"], ["y"], [[1, 1]]), sa_faults(and_circuit)),
    "dff-clocked": (dff_circuit, apply_patterns_procedure(
        ["d"], ["q"], [[1], [0]], clock="clk"), sa_faults(dff_circuit)),
    "raise-midway": (gated_ring, open_the_gate, sa_faults(gated_ring)),
    "loc-pipeline": (pipeline, loc_pipeline,
                     [TransitionFault(n, s) for n in ("d", "q1", "n1", "q2")
                      for s in (0, 1)]),
    "length-depends-on-circuit": (and_circuit, while_low,
                                  sa_faults(and_circuit)),
    "list-procedure": (and_circuit, listed(while_low),
                       sa_faults(and_circuit)),
}


class TestSmallCircuits:
    @pytest.mark.parametrize("case", sorted(SMALL))
    def test_engine_matches_the_oracle(self, case):
        factory, procedure, faults = SMALL[case]
        oracle = reference_first_differences(factory, procedure, faults)
        golden = golden_response(factory, procedure)
        for fault in faults:
            assert first_difference(factory, procedure, fault,
                                    golden) == oracle[fault], fault
        result = run_fault_simulation(factory, procedure, faults=faults)
        assert result.detected == {f for f, k in oracle.items()
                                   if k is not None}
        assert result.undetected == set(faults) - result.detected

    def test_a_raise_differs_where_it_happened(self):
        golden = golden_response(gated_ring, open_the_gate)
        assert golden == (1, 1)
        counting = Counting(open_the_gate)
        assert first_difference(gated_ring, counting, StuckAtFault("en", 1),
                                golden) == 1
        assert counting.reads == 1

    def test_a_response_of_another_length_differs_where_one_ends(self):
        golden = golden_response(and_circuit, while_low)
        assert golden == (0, 0)
        # y/SA0 never reads 1 and runs two observations long
        counting = Counting(while_low)
        assert first_difference(and_circuit, counting, StuckAtFault("y", 0),
                                golden) == 2
        assert counting.reads == 3
        # b/SA1 reads 1 at the second pattern and stops one short
        assert first_difference(and_circuit, while_low,
                                StuckAtFault("b", 1), golden) == 1
        # y/SA1 stops before its first observation
        assert first_difference(and_circuit, while_low,
                                StuckAtFault("y", 1), golden) == 0

    def test_a_listed_procedure_runs_to_its_end(self):
        """Same verdict, no early stop: the list is built in full."""
        counting = Counting(while_low)
        golden = golden_response(and_circuit, while_low)
        assert detects(and_circuit, listed(counting), StuckAtFault("y", 0),
                       golden)
        assert counting.reads == 4


class TestInjectionErrors:
    @pytest.mark.parametrize("fault", [StuckAtFault("nope", 1),
                                       TransitionFault("nope", 1)],
                             ids=str)
    def test_unknown_net_is_an_error_not_a_detection(self, fault):
        golden = golden_response(pipeline, loc_pipeline)
        with pytest.raises(SimulationError, match="nope"):
            first_difference(pipeline, loc_pipeline, fault, golden)

    def test_delay_scan_tier_records_an_error(self):
        campaign_ = FaultCampaign()
        campaign_.add_tier(DelayScanTier())
        fault = StructuralFault("nope", FaultKind.GATE_OPEN, "coarse", "")
        record = campaign_.run([fault]).records[0]
        assert not record.hit("delay_scan")
        assert record.errors and record.errors[0][0] == "delay_scan"
        assert "nope" in record.errors[0][1]
