"""Tests for the public API: LinkConfig, TestableLink, reports."""

import pytest

from repro import LinkConfig, TestableLink
from repro.core import PAPER_CONFIG, render_bist, render_headline, render_table2
from repro.core.results import CampaignSummary
from repro.faults import FaultKind, StructuralFault


class TestLinkConfig:
    def test_paper_defaults(self):
        cfg = LinkConfig()
        assert cfg.data_rate == 2.5e9
        assert cfg.vdd == 1.2
        assert cfg.length_m == 10e-3
        assert cfg.n_dll_phases == 10

    def test_bit_time(self):
        assert LinkConfig().bit_time == pytest.approx(400e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(data_rate=0)
        with pytest.raises(ValueError):
            LinkConfig(n_dll_phases=1)
        with pytest.raises(KeyError):
            LinkConfig(wire="unobtainium")

    @pytest.mark.parametrize("ratio", [0, -16])
    def test_divider_ratio_must_be_positive(self, ratio):
        """A ratio <= 0 would give the coarse FSM a zero-length (or
        negative) strong-pump pulse every bit."""
        with pytest.raises(ValueError, match="divider_ratio"):
            LinkConfig(divider_ratio=ratio)
        assert LinkConfig(divider_ratio=1).link_params().divider_ratio == 1

    def test_channel_config_derivation(self):
        ch = LinkConfig(length_m=5e-3).channel_config()
        assert ch.length_m == 5e-3

    def test_link_params_with_knobs(self):
        p = LinkConfig().link_params(vcdl_dead=True)
        assert p.vcdl_dead
        assert p.bit_time == pytest.approx(400e-12)

    def test_with_overrides(self):
        cfg = PAPER_CONFIG.with_overrides(data_rate=1e9)
        assert cfg.data_rate == 1e9
        assert PAPER_CONFIG.data_rate == 2.5e9  # frozen original


class TestTestableLinkChannel:
    @pytest.fixture(scope="class")
    def link(self):
        return TestableLink()

    def test_eye_open_with_equalization(self, link):
        assert link.eye(equalized=True).is_open

    def test_eye_closed_without_equalization(self, link):
        assert not link.eye(equalized=False).is_open

    def test_equalization_gain_substantial(self, link):
        g = link.equalization_gain()
        assert g > 2.0 or g == float("inf")


class TestTestableLinkLock:
    @pytest.fixture(scope="class")
    def link(self):
        return TestableLink()

    def test_lock_healthy(self, link):
        r = link.lock(initial_phase=3)
        assert r.locked and r.bist_pass

    def test_lock_with_fault_knob(self, link):
        r = link.lock(initial_phase=3, vcdl_dead=True)
        assert not r.bist_pass

    def test_lock_sweep_all_within_budget(self, link):
        sweep = link.lock_sweep()
        assert sweep.all_within_budget


class TestTestableLinkTiers:
    @pytest.fixture(scope="class")
    def link(self):
        return TestableLink()

    def test_dc_test_healthy_passes(self, link):
        assert link.run_dc_test().passed

    def test_dc_test_detects_weak_short(self, link):
        f = StructuralFault("tx_p_weak_MP", FaultKind.DRAIN_SOURCE_SHORT,
                            "tx", "tx_weak")
        assert not link.run_dc_test(fault=f).passed

    def test_bist_healthy_passes(self, link):
        res = link.run_bist()
        assert res.passed
        assert res.vp_tracking_ok and res.pump_currents_ok

    def test_fault_universe_size(self, link):
        universe = link.fault_universe()
        assert 300 <= len(universe) <= 420

    def test_sampled_campaign_runs(self, link):
        summary = link.run_fault_campaign(sample=8, seed=3)
        assert 0.0 <= summary.bist_coverage <= 1.0
        assert summary.result.total == 8

    def test_overhead_rows_match_paper(self, link):
        for entity, ours, paper in link.overhead_rows():
            assert ours == paper


class TestCampaignSampling:
    """The link's campaigns sample by the rule of ``repro campaign
    --sample``: stratified, 0 keeps the universe, negative refused."""

    @pytest.fixture
    def link(self, monkeypatch):
        link = TestableLink()
        small = [f for f in link.fault_universe()
                 if f.block == "termination"]
        monkeypatch.setattr(link, "fault_universe", lambda: list(small))
        return link

    def test_zero_keeps_the_whole_universe(self, link):
        summary = link.run_fault_campaign(sample=0, tiers=("dc",))
        assert summary.result.total == len(link.fault_universe())
        assert summary.dc_coverage < 1.0

    def test_draws_the_stratified_sample(self, link):
        from repro.faults import stratified_sample

        summary = link.run_fault_campaign(sample=4, seed=3, tiers=("dc",))
        assert [r.fault for r in summary.result.records] == \
            stratified_sample(link.fault_universe(), 4, seed=3)

    @pytest.mark.parametrize("method", ["run_fault_campaign",
                                        "coverage_report"])
    def test_negative_size_rejected(self, link, method):
        with pytest.raises(ValueError, match="sample must be >= 0"):
            getattr(link, method)(sample=-3)


class TestReports:
    def test_render_headline(self):
        from repro.faults import CampaignResult, DetectionRecord

        rec = DetectionRecord(
            StructuralFault("x", FaultKind.DRAIN_OPEN, "tx"), dc=True)
        summary = CampaignSummary.from_result(CampaignResult([rec]))
        text = render_headline(summary)
        assert "DC test" in text and "Paper" in text

    def test_render_table2(self):
        text = render_table2()
        assert "Flip-flop" in text

    def test_render_bist(self):
        link = TestableLink()
        res = link.run_bist()
        text = render_bist(res)
        assert "PASS" in text

    def test_lazy_top_level_exports(self):
        import repro

        assert repro.LinkConfig is LinkConfig
        assert repro.TestableLink is TestableLink
        with pytest.raises(AttributeError):
            repro.NotAThing
