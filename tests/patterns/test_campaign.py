"""Coverage-vs-pattern campaign tests: worker parity, lock budgets,
the BER sweep, and the result algebra."""

import json

import pytest

from repro.patterns.campaign import (
    DEFAULT_CAMPAIGN_PATTERNS,
    PatternCampaign,
    at_speed_tier,
    ber_vs_length_sweep,
    bist_universe,
    fault_class,
    healthy_lock_summary,
    sampled_universe,
)
from repro.patterns.sources import PATTERN_NAMES


class TestConstruction:
    def test_default_patterns_registered(self):
        campaign = PatternCampaign()
        assert campaign.patterns == DEFAULT_CAMPAIGN_PATTERNS
        assert set(campaign.patterns) <= set(PATTERN_NAMES)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError):
            PatternCampaign(patterns=("prbs7", "morse"))

    def test_duplicate_pattern_rejected(self):
        with pytest.raises(ValueError):
            PatternCampaign(patterns=("prbs7", "prbs7"))

    def test_tier_names(self):
        campaign = PatternCampaign(patterns=("prbs7", "isi"))
        fc = campaign.build()
        assert fc.tier_names == \
            ("static", "at_speed@prbs7", "at_speed@isi")

    def test_universe_is_bist_blocks_only(self):
        uni = bist_universe()
        assert uni
        assert {f.block for f in uni} <= {"cp", "window_comp", "vcdl"}

    def test_fault_class_label(self):
        f = bist_universe()[0]
        assert fault_class(f) == f"{f.block}/{f.kind.table_label}"


class TestSampling:
    def test_sample_zero_keeps_the_whole_universe(self):
        """``--sample 0`` means no sampling, as for ``repro campaign``,
        not an empty campaign that reports coverage 1.000."""
        universe = bist_universe()
        assert sampled_universe(universe, 0) == universe
        assert sampled_universe(universe, None) == universe
        assert len(sampled_universe(universe, 5)) == 5


class TestWorkerParity:
    def test_export_identical_across_worker_counts(self):
        """The CI pattern-parity smoke in unit form: records assemble
        in universe order, so serial and forked runs export the same
        bytes."""
        a = PatternCampaign(patterns=("prbs7", "aggressor")).run(sample=4)
        b = PatternCampaign(patterns=("prbs7", "aggressor")).run(
            sample=4, workers=2)
        assert a.to_json() == b.to_json()

    def test_export_shape(self):
        result = PatternCampaign(patterns=("prbs7", "aggressor")).run(
            sample=4)
        payload = json.loads(result.to_json())
        assert payload["patterns"] == ["prbs7", "aggressor"]
        assert payload["total_faults"] == 4
        assert len(payload["faults"]) == 4
        for p in ("prbs7", "aggressor"):
            block = payload["per_pattern"][p]
            assert 0.0 <= block["coverage"] <= 1.0
            assert block["lock"]["budget_s"] > 0
        for rec in payload["faults"].values():
            for tier in rec["detected_by"]:
                assert tier == "static" or tier.startswith("at_speed@")


class TestLockBudgets:
    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_healthy_die_locks_within_scaled_budget(self, pattern):
        summary = healthy_lock_summary(pattern)
        assert summary["budget_s"] >= 2e-6
        for phase, row in summary["phases"].items():
            assert row["locked"], f"no lock under {pattern}, phase {phase}"
            assert row["within_budget"]
            assert row["errors_after_lock"] == 0

    def test_isi_budget_is_scaled(self):
        assert healthy_lock_summary("isi")["lock_budget_scale"] == 5.0
        assert healthy_lock_summary("prbs7")["lock_budget_scale"] == 1.0


class TestBERSweep:
    def test_sweep_smoke(self):
        points = ber_vs_length_sweep(orders=(7,), run_lengths=(9,))
        names = [pt.pattern for pt in points]
        assert names == ["prbs7", "scrambler", "isi", "aggressor"]
        for pt in points:
            assert pt.locked and pt.within_budget
            assert pt.bits == pt.cycles
            assert pt.length_bits > 0
            d = pt.to_dict()
            assert d["pattern"] == pt.pattern
            assert d["ber"] == pt.ber

    def test_sweep_deterministic(self):
        a = ber_vs_length_sweep(orders=(7,), run_lengths=(4,))
        b = ber_vs_length_sweep(orders=(7,), run_lengths=(4,))
        assert [p.to_dict() for p in a] == [p.to_dict() for p in b]


class TestResultAlgebra:
    def test_at_speed_tier_name(self):
        assert at_speed_tier("isi") == "at_speed@isi"

    def test_detected_is_union_and_coverage_consistent(self):
        result = PatternCampaign(patterns=("prbs7", "isi")).run(sample=6)
        for p in result.patterns:
            merged = result.static_detected() | result.at_speed_detected(p)
            assert result.detected(p) == merged
            assert result.coverage(p) == len(merged) / result.total

    def test_unique_classes_disjoint_from_others(self):
        result = PatternCampaign(patterns=("prbs7", "isi")).run(sample=6)
        unique = result.unique_at_speed_classes()
        assert set(unique) == {"prbs7", "isi"}
        for p, classes in unique.items():
            other = "isi" if p == "prbs7" else "prbs7"
            assert not set(classes) & set(result.at_speed_classes(other))
