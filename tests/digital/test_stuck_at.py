"""Unit tests for the stuck-at fault model and fault simulation."""

import pytest

from repro.digital import (
    LogicCircuit,
    SimulationError,
    StuckAtFault,
    apply_patterns_procedure,
    enumerate_stuck_at_faults,
    exhaustive_patterns,
    golden_response,
    run_fault_simulation,
)


def and_circuit():
    c = LogicCircuit()
    c.add_input("a", 0)
    c.add_input("b", 0)
    c.add_gate("and", ["a", "b"], "y")
    return c


class TestEnumeration:
    def test_two_faults_per_net(self):
        faults = enumerate_stuck_at_faults(and_circuit())
        assert len(faults) == 6  # nets a, b, y x 2

    def test_exclude_list(self):
        faults = enumerate_stuck_at_faults(and_circuit(), exclude=["a"])
        nets = {f.net for f in faults}
        assert "a" not in nets

    def test_constant_nets_excluded(self):
        c = and_circuit()
        c.add_constant("tie0", 0)
        faults = enumerate_stuck_at_faults(c)
        assert all(f.net != "tie0" for f in faults)

    def test_fault_str(self):
        assert str(StuckAtFault("y", 1)) == "y/SA1"


class TestFaultSimulation:
    def test_exhaustive_patterns_full_coverage_on_and(self):
        proc = apply_patterns_procedure(["a", "b"], ["y"],
                                        exhaustive_patterns(2))
        res = run_fault_simulation(and_circuit, proc)
        assert res.coverage == 1.0
        assert res.total == 6

    def test_single_pattern_partial_coverage(self):
        # pattern 11 detects y/SA0, a/SA0, b/SA0 but no SA1 faults
        proc = apply_patterns_procedure(["a", "b"], ["y"], [[1, 1]])
        res = run_fault_simulation(and_circuit, proc)
        detected_names = {str(f) for f in res.detected}
        assert detected_names == {"a/SA0", "b/SA0", "y/SA0"}
        assert res.coverage == pytest.approx(0.5)

    def test_coverage_of_empty_universe_is_one(self):
        proc = apply_patterns_procedure(["a", "b"], ["y"], [[1, 1]])
        res = run_fault_simulation(and_circuit, proc, faults=[])
        assert res.coverage == 1.0

    def test_undetected_plus_detected_is_total(self):
        proc = apply_patterns_procedure(["a", "b"], ["y"], [[0, 1]])
        res = run_fault_simulation(and_circuit, proc)
        assert len(res.detected) + len(res.undetected) == res.total

    def test_sequential_fault_detection(self):
        """A stuck-at on a flop's output is caught via clocked patterns."""

        def factory():
            c = LogicCircuit()
            c.add_input("d", 0)
            c.add_dff("d", "q")
            return c

        proc = apply_patterns_procedure(["d"], ["q"], [[1], [0]], clock="clk")
        res = run_fault_simulation(factory, proc)
        assert StuckAtFault("q", 0) in res.detected
        assert StuckAtFault("q", 1) in res.detected

    def test_crashing_procedure_counts_as_detected(self):
        """A fault that makes the circuit oscillate is observable."""

        def factory():
            c = LogicCircuit()
            c.add_input("en", 1)
            # en=1 breaks the loop; forcing en=0 closes it into an
            # inverter ring, which oscillates from the known x=0
            c.add_gate("nor", ["en", "x"], "x2")
            c.add_gate("buf", ["x2"], "x")
            c.values["x"] = 0
            return c

        def proc(circ, hooks):
            circ.settle()
            return [circ.peek("x")]

        fault = StuckAtFault("en", 0)
        assert golden_response(factory, proc) == (0,)
        faulted = factory()
        fault.inject(faulted)
        with pytest.raises(SimulationError, match="did not settle"):
            proc(faulted, None)
        res = run_fault_simulation(factory, proc, faults=[fault])
        assert res.coverage == 1.0


class TestExhaustivePatterns:
    def test_count(self):
        assert len(exhaustive_patterns(3)) == 8

    def test_width_limit(self):
        with pytest.raises(ValueError):
            exhaustive_patterns(17)

    def test_patterns_unique(self):
        pats = [tuple(p) for p in exhaustive_patterns(4)]
        assert len(set(pats)) == 16
