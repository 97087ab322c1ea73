"""Pattern-parameterised tier registration: ``bist@<pattern>`` as a
campaign citizen, and ``dll_bist``, which takes no pattern."""

import pytest

from repro.dft.bist import BISTTest
from repro.dft.golden import GoldenSignatures
from repro.dft.registry import check_tier_names, create_tier, create_tiers
from repro.faults import FaultKind, StructuralFault
from repro.patterns.sources import PATTERN_NAMES


def F(dev, kind, block, role=""):
    return StructuralFault(dev, kind, block, role)


class TestRegistryParam:
    def test_bist_at_pattern_resolves(self):
        tier = create_tier("bist@isi")
        assert tier.name == "bist@isi"
        assert tier.pattern == "isi"

    def test_plain_bist_is_prbs7(self):
        tier = create_tier("bist")
        assert tier.name == "bist"
        assert tier.pattern == "prbs7"

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError):
            create_tier("bist@morse")

    def test_unknown_base_still_rejected(self):
        with pytest.raises(KeyError):
            create_tier("no_such_tier@isi")

    def test_dll_bist_at_pattern_refused(self):
        """No data crosses the link during the vernier test, so no
        stimulus could change the DLL BIST's verdict: the tier takes
        no pattern."""
        with pytest.raises(ValueError, match="takes no pattern"):
            check_tier_names(["dll_bist@scrambler"])
        with pytest.raises(TypeError):
            create_tier("dll_bist@scrambler")
        assert create_tier("dll_bist").name == "dll_bist"

    def test_mixed_tier_listing_shares_goldens(self):
        goldens = GoldenSignatures()
        plain, isi = create_tiers(("bist", "bist@isi"), goldens)
        assert plain.goldens is isi.goldens


class TestPatternAxis:
    def test_invalid_pattern_rejected_at_construction(self):
        with pytest.raises(KeyError):
            BISTTest(GoldenSignatures(), pattern="morse")

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_every_pattern_builds_a_tier(self, pattern):
        tier = BISTTest(GoldenSignatures(), pattern=pattern)
        expected = "bist" if pattern == "prbs7" else f"bist@{pattern}"
        assert tier.name == expected

    def test_applies_to_is_pattern_independent(self):
        goldens = GoldenSignatures()
        plain = BISTTest(goldens)
        isi = BISTTest(goldens, pattern="isi")
        for fault in (F("cp_wk_MSWU", FaultKind.GATE_OPEN, "cp",
                        "cp_weak_sw"),
                      F("tx_M1", FaultKind.GATE_OPEN, "tx")):
            assert plain.applies_to(fault) == isi.applies_to(fault)

    def test_bist_at_prbs7_verdicts_match_plain_bist(self):
        """``bist@prbs7`` must be the legacy tier in all but name: the
        loop construction, cycle count and verdict rule fall back to
        the historical path for the default stimulus."""
        goldens = GoldenSignatures()
        plain = BISTTest(goldens)
        named = BISTTest(goldens, pattern="prbs7")
        faults = [
            F("cp_wk_MSWU", FaultKind.DRAIN_SOURCE_SHORT, "cp",
              "cp_weak_sw"),
            F("cp_MBALP", FaultKind.DRAIN_OPEN, "cp", "cp_balance"),
            F("win_hi_MINP", FaultKind.GATE_SOURCE_SHORT, "window_comp",
              "window_comp"),
        ]
        for fault in faults:
            assert plain.detect(fault) == named.detect(fault)

    def test_one_calibration_per_golden_cache(self, monkeypatch):
        """The receiver calibration is pattern-independent: the five
        stimulus tiers of a pattern campaign share one."""
        from repro.patterns.campaign import PatternCampaign

        calibrations = []
        original = BISTTest._run_receiver_checks

        def counted(self, fault, calibrate=False):
            calibrations.append(calibrate)
            return original(self, fault, calibrate=calibrate)

        monkeypatch.setattr(BISTTest, "_run_receiver_checks", counted)
        tiers = list(PatternCampaign().tiers.values())
        assert calibrations == [True]
        assert len(tiers) == 5
        for tier in tiers[1:]:
            assert tier.golden == tiers[0].golden
            assert tier._healthy_ota_i is tiers[0]._healthy_ota_i

    def test_static_stage_identical_across_patterns(self):
        """Receiver checks and VCDL aliveness do not depend on the
        stimulus — the campaign runs them once under one tier."""
        goldens = GoldenSignatures()
        plain = BISTTest(goldens)
        agg = BISTTest(goldens, pattern="aggressor")
        fault = F("win_hi_MINP", FaultKind.GATE_OPEN, "window_comp",
                  "window_comp")
        assert plain.static_detect(fault) == agg.static_detect(fault)


class TestDLLBistPatternInvariance:
    def test_verdicts_invariant_across_patterns(self):
        """The vernier counting measurement never looks at the data
        lane, so every stimulus yields the same verdict: built beside
        any ``bist@<pattern>`` over one golden cache, ``dll_bist``
        scores each DLL fault as the stand-alone tier does."""
        plain = create_tier("dll_bist")
        faults = [
            F("vcdl_stage3", FaultKind.DRAIN_OPEN, "dll"),
            F("vcdl_stage7", FaultKind.GATE_DRAIN_SHORT, "dll"),
            F("bias_gen", FaultKind.DRAIN_OPEN, "dll"),
        ]
        expected = [plain.detect(fault) for fault in faults]
        for pattern in ("isi", "scrambler"):
            _, dll = create_tiers((f"bist@{pattern}", "dll_bist"))
            assert dll.golden == plain.golden
            assert [dll.detect(fault) for fault in faults] == expected
