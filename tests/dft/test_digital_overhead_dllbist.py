"""Tests for the digital scan campaign, Table II overhead, and the DLL
BIST extension."""

import json
from pathlib import Path

import pytest

from repro.dft import (
    PAPER_TABLE2,
    build_digital_fabric,
    dft_inventory,
    dll_with_dead_tap,
    dll_with_tap_defect,
    format_table2,
    healthy_dll,
    run_digital_scan_campaign,
    run_dll_bist,
    table2_rows,
    total_flop_overhead_bits,
    vernier_count,
)


class TestDigitalFabric:
    def test_chain_lengths(self):
        fab = build_digital_fabric()
        assert fab.chain_a.length == 9     # TX 4 + PD 4 + CDC 1
        assert fab.chain_b.length == 17    # caps 2 + FSM 2 + ring 10 + lock 3

    def test_primary_inputs(self):
        fab = build_digital_fabric()
        assert set(fab.primary_inputs) == {"data_in", "half_cycle_en",
                                           "win_hi", "win_lo"}

    def test_fabric_settles(self):
        fab = build_digital_fabric()
        fab.circuit.settle()  # no oscillation


#: per-fault first differences of both default digital campaigns
PIN = Path(__file__).resolve().parents[1] / "digital" / \
    "reference_verdicts.json"


class TestDigitalScanCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_digital_scan_campaign()

    def test_verdicts_match_the_pin(self, result):
        pinned = json.loads(PIN.read_text())["stuck_at"]
        assert pinned["procedure"] == {"n_random": 24, "seed": 2016}
        assert {str(f) for f in result.detected} == \
            set(pinned["first_difference"])
        assert result.total == len(pinned["first_difference"]) == 142

    def test_full_stuck_at_coverage(self, result):
        """The paper's claim: 100% stuck-at on the digital logic."""
        assert result.coverage == 1.0

    def test_universe_not_trivial(self, result):
        assert result.total > 100

    def test_no_faults_left(self, result):
        assert result.undetected == set()


class TestOverhead:
    def test_all_paper_rows_present(self):
        entities = {i.entity for i in dft_inventory()}
        assert entities == set(PAPER_TABLE2)

    def test_normalised_counts_match_paper(self):
        for entity, ours, paper in table2_rows():
            assert ours == paper, entity

    def test_as_built_differential_costs_more_flops(self):
        inv = {i.entity: i for i in dft_inventory()}
        assert inv["Flip-flop"].as_built == 7
        assert inv["Comparators (DC)"].as_built == 4

    def test_format_table2_renders(self):
        text = format_table2()
        assert "Flip-flop" in text
        assert "Paper" in text

    def test_total_flop_overhead(self):
        assert total_flop_overhead_bits() == 7 + 1 + 3


class TestDLLBist:
    def test_healthy_dll_passes(self):
        res = run_dll_bist(healthy_dll())
        assert res.passed
        assert res.failing_taps == []

    def test_counts_form_arithmetic_progression(self):
        res = run_dll_bist(healthy_dll())
        diffs = {(res.counts[(k + 1) % 10] - res.counts[k]) % 64
                 for k in range(10)}
        assert len(diffs) <= 2  # quantisation allows one-count ripple

    def test_tap_delay_defect_detected(self):
        res = run_dll_bist(dll_with_tap_defect(tap=4, error_fraction=0.5))
        assert not res.passed
        assert any(t in res.failing_taps for t in (3, 4))

    def test_dead_tap_detected(self):
        res = run_dll_bist(dll_with_dead_tap(tap=7))
        assert not res.passed
        assert 7 in res.failing_taps

    def test_small_error_tolerated(self):
        res = run_dll_bist(dll_with_tap_defect(tap=2, error_fraction=0.05))
        assert res.passed

    def test_vernier_count_quantisation(self):
        from repro.link import LinkParams

        p = LinkParams()
        assert vernier_count(0.0, p.bit_time) == 0
        assert vernier_count(p.bit_time / 2, p.bit_time) == 32
        assert vernier_count(None, p.bit_time) is None
