"""Tests for the tier registry, the golden-signature cache, and the two
extension tiers (delay_scan, dll_bist) as campaign citizens."""

import pytest

from repro.dft.golden import GoldenSignatures
from repro.dft.registry import TestTier as TierProtocol
from repro.dft.registry import (
    check_tier_names,
    create_tier,
    create_tiers,
    register_tier,
    registered_tiers,
    unregister_tier,
)
from repro.faults import FaultCampaign, FaultKind, StructuralFault


def F(dev, kind, block, role=""):
    return StructuralFault(dev, kind, block, role)


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_tiers()
        for name in ("dc", "scan", "bist", "delay_scan", "dll_bist"):
            assert name in names

    def test_unknown_tier_raises_with_listing(self):
        with pytest.raises(KeyError, match="dc"):
            create_tier("no_such_tier")

    @pytest.mark.parametrize("name", ["dc", "delay_scan", "bist@isi",
                                      "dll_bist"])
    def test_a_checked_name_builds(self, name):
        check_tier_names([name])
        assert create_tier(name).name == name

    @pytest.mark.parametrize("name", ["nope", "nope@isi", "bist@morse",
                                      "dc@isi", "bist@prbs7",
                                      "dll_bist@aggressor"])
    def test_a_refused_name_does_not_build(self, name):
        """The check refuses exactly what building would fail on."""
        with pytest.raises(ValueError):
            check_tier_names([name])
        with pytest.raises((KeyError, TypeError)):
            create_tier(name)

    def test_custom_tier_lifecycle(self):
        @register_tier("burn_in")
        class BurnInTier:
            name = "burn_in"

            def __init__(self, goldens):
                self.goldens = goldens

            golden = {}

            def applies_to(self, fault):
                return fault.block == "tx"

            def detect(self, fault):
                return fault.kind.is_short

        try:
            tier = create_tier("burn_in")
            assert isinstance(tier, TierProtocol)
            assert tier.detect(F("x", FaultKind.DRAIN_SOURCE_SHORT, "tx"))
            assert "burn_in" in registered_tiers()
            # same object re-registers silently; a different one raises
            register_tier("burn_in", BurnInTier)
            with pytest.raises(ValueError):
                register_tier("burn_in", lambda g: BurnInTier(g))
        finally:
            unregister_tier("burn_in")
        assert "burn_in" not in registered_tiers()

    def test_factory_must_honour_its_name(self):
        @register_tier("misnamed")
        class Misnamed:
            name = "something_else"
            golden = {}

            def __init__(self, goldens):
                pass

            def applies_to(self, fault):
                return False

            def detect(self, fault):
                return False

        try:
            with pytest.raises(TypeError):
                create_tier("misnamed")
        finally:
            unregister_tier("misnamed")

    def test_create_tiers_shares_one_golden_cache(self):
        built = []

        @register_tier("t_a")
        class TierA:
            name = "t_a"
            golden = {}

            def __init__(self, goldens):
                built.append(goldens)

            def applies_to(self, fault):
                return False

            def detect(self, fault):
                return False

        @register_tier("t_b")
        class TierB(TierA):
            name = "t_b"

        try:
            create_tiers(("t_a", "t_b"))
            assert built[0] is built[1]
        finally:
            unregister_tier("t_a")
            unregister_tier("t_b")


class TestGoldenSignatures:
    def test_get_builds_once(self):
        goldens = GoldenSignatures()
        calls = []

        def build():
            calls.append(1)
            return (1, 2, 3)

        assert goldens.get("sig", build) == (1, 2, 3)
        assert goldens.get("sig", build) == (1, 2, 3)
        assert len(calls) == 1
        assert "sig" in goldens

    def test_distinct_keys_are_distinct(self):
        goldens = GoldenSignatures()
        assert goldens.get("a", lambda: 1) == 1
        assert goldens.get("b", lambda: 2) == 2


class TestDelayScanTier:
    @pytest.fixture(scope="class")
    def tier(self):
        return create_tier("delay_scan")

    def test_applies_only_to_coarse_block(self, tier):
        assert tier.applies_to(F("req", FaultKind.GATE_OPEN, "coarse"))
        assert not tier.applies_to(F("req", FaultKind.GATE_OPEN, "cp"))

    def test_detects_fsm_net_transition_fault(self, tier):
        assert tier.detect(F("req", FaultKind.GATE_OPEN, "coarse"))
        assert tier.detect(F("dir_q", FaultKind.DRAIN_SOURCE_SHORT,
                             "coarse"))

    def test_untestable_net_escapes(self, tier):
        # cap_hi has scan-only fanout: no functional observation path
        assert not tier.detect(F("cap_hi", FaultKind.GATE_OPEN, "coarse"))

    def test_golden_is_the_healthy_response(self, tier):
        resp = tier.golden["response"]
        assert isinstance(resp, tuple) and len(resp) > 0


class TestDLLBistTier:
    @pytest.fixture(scope="class")
    def tier(self):
        return create_tier("dll_bist")

    def test_applies_only_to_dll_block(self, tier):
        assert tier.applies_to(F("vcdl_stage3", FaultKind.DRAIN_OPEN,
                                 "dll"))
        assert not tier.applies_to(F("vcdl_stage3", FaultKind.DRAIN_OPEN,
                                     "vcdl"))

    def test_dead_tap_detected(self, tier):
        assert tier.detect(F("vcdl_stage3", FaultKind.DRAIN_OPEN, "dll"))

    def test_tap_defect_detected(self, tier):
        assert tier.detect(F("vcdl_stage7", FaultKind.GATE_DRAIN_SHORT,
                             "dll"))

    def test_unmappable_device_escapes(self, tier):
        assert not tier.detect(F("bias_gen", FaultKind.DRAIN_OPEN, "dll"))

    def test_golden_counts_cover_every_tap(self, tier):
        from repro.link.params import LinkParams

        counts = tier.golden["counts"]
        assert len(counts) == LinkParams().n_phases


class TestExtensionTiersInCampaign:
    def test_five_stage_pipeline_over_digital_faults(self):
        """The orphaned stages are now ordinary campaign tiers."""
        goldens = GoldenSignatures()
        campaign = FaultCampaign()
        for tier in create_tiers(("delay_scan", "dll_bist"), goldens):
            campaign.add_tier(tier)
        universe = [
            F("req", FaultKind.GATE_OPEN, "coarse"),
            F("cap_hi", FaultKind.GATE_OPEN, "coarse"),
            F("vcdl_stage2", FaultKind.DRAIN_OPEN, "dll"),
            F("bias_gen", FaultKind.DRAIN_OPEN, "dll"),
        ]
        result = campaign.run(universe)
        assert result.tier_order == ("delay_scan", "dll_bist")
        assert result.records[0].hit("delay_scan")
        assert result.records[2].hit("dll_bist")
        assert result.overall_coverage == 0.5
        by_block = result.coverage_by_block()
        assert by_block["coarse"] == (1, 2, 0.5)
        assert by_block["dll"] == (1, 2, 0.5)
