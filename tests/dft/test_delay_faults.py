"""Tests for the transition-fault model and the coarse-path delay scan."""

import json
from pathlib import Path

import pytest

from repro.digital import (
    LogicCircuit,
    TransitionFault,
    TransitionFaultInjector,
    enumerate_transition_faults,
    run_fault_simulation,
)
from repro.dft.delay_scan import (
    build_coarse_fabric,
    effective_delay_coverage,
    run_coarse_delay_campaign,
    untestable_transition_faults,
)


def pipeline():
    """d -> ff1 -> inv -> ff2: the classic LOC target."""
    c = LogicCircuit()
    c.add_input("d", 0)
    c.add_dff("d", "q1", clock="clk")
    c.add_gate("inv", ["q1"], "n1")
    c.add_dff("n1", "q2", clock="clk")
    return c


class TestTransitionFaultModel:
    def test_enumeration_two_per_net(self):
        faults = enumerate_transition_faults(pipeline())
        nets = {f.net for f in faults}
        assert len(faults) == 2 * len(nets)

    def test_str(self):
        assert str(TransitionFault("a", 1)) == "a/STR"
        assert str(TransitionFault("a", 0)) == "a/STF"

    def test_injector_holds_slow_rise(self):
        c = pipeline()
        c.poke("d", 1)              # q1 will rise at the launch edge
        inj = TransitionFaultInjector(c, TransitionFault("q1", 1))
        inj.launch("clk")
        assert c.peek("q1") == 0    # held at the old value
        c.tick("clk")               # capture: ff2 samples the stale inv
        inj.release()
        assert c.peek("q1") == 1    # transition completes after release

    def test_injector_ignores_opposite_transition(self):
        c = pipeline()
        c.poke("d", 1)
        inj = TransitionFaultInjector(c, TransitionFault("q1", 0))
        inj.launch("clk")           # q1 rises; STF does not trigger
        assert c.peek("q1") == 1

    def test_slow_net_corrupts_capture(self):
        """The whole point: the capture FF latches the stale value."""

        def factory():
            return pipeline()

        def proc(circ, inj):
            circ.poke("d", 1)
            circ.settle()
            inj.launch("clk")       # q1: 0 -> 1 (maybe held)
            circ.tick("clk")        # q2 captures inv(q1)
            inj.release()
            return [circ.peek("q2")]

        res = run_fault_simulation(
            factory, proc, faults=[TransitionFault("q1", 1)])
        assert res.coverage == 1.0

    def test_fault_free_path_unaffected(self):
        c = pipeline()
        inj = TransitionFaultInjector(c, None)
        c.poke("d", 1)
        inj.launch("clk")
        assert c.peek("q1") == 1
        inj.release()   # no-op


#: per-fault first differences of both default digital campaigns
PIN = Path(__file__).resolve().parents[1] / "digital" / \
    "reference_verdicts.json"


class TestCoarsePathDelayScan:
    @pytest.fixture(scope="class")
    def result(self):
        return run_coarse_delay_campaign()

    def test_verdicts_match_the_pin(self, result):
        pinned = json.loads(PIN.read_text())["transition"]
        table = pinned["first_difference"]
        assert pinned["procedure"] == {"n_random": 24, "seed": 2016}
        assert {str(f) for f in result.detected} == \
            {name for name, k in table.items() if k is not None}
        assert {str(f) for f in result.undetected} == \
            {name for name, k in table.items() if k is None}
        assert result.undetected == \
            untestable_transition_faults(build_coarse_fabric()[0])

    def test_effective_coverage_is_full(self, result):
        """Section IV: 'the delay faults in this path are also tested
        with 100% coverage' — over the testable universe."""
        assert effective_delay_coverage(result) == 1.0

    def test_raw_coverage_high(self, result):
        assert result.coverage > 0.9

    def test_untestable_set_is_justified(self, result):
        """Every undetected fault belongs to a provably untestable
        class (scan-only fanout, or monotone-counter transitions)."""
        unt = untestable_transition_faults(build_coarse_fabric()[0])
        assert result.undetected <= unt

    def test_untestable_classifier_structure(self):
        unt = untestable_transition_faults(build_coarse_fabric()[0])
        nets = {f.net for f in unt}
        assert "cap_hi" in nets          # scan-only fanout
        assert "lock_sat" in nets        # saturating counter never clears
