"""Tests for the statistical campaign sampling tools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultKind,
    SampledCoverage,
    StructuralFault,
    adaptive_estimate,
    estimate_coverage,
    stratified_sample,
    wilson_interval,
)


def make_universe(n_per=10):
    out = []
    for block in ("tx", "cp", "vcdl"):
        for kind in (FaultKind.DRAIN_OPEN, FaultKind.GATE_OPEN):
            for i in range(n_per):
                out.append(StructuralFault(f"{block}_d{i}", kind, block))
    return out   # 60 faults, 6 strata of 10


class TestWilson:
    def test_zero_trials_full_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_contains_point(self):
        lo, hi = wilson_interval(7, 10)
        assert lo < 0.7 < hi

    def test_tightens_with_n(self):
        lo1, hi1 = wilson_interval(70, 100)
        lo2, hi2 = wilson_interval(700, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_degenerate_extremes_stay_in_bounds(self):
        lo, hi = wilson_interval(10, 10)
        assert 0.0 <= lo <= hi <= 1.0
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and hi > 0.0

    def test_unknown_confidence_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 2, confidence=0.87)

    @given(k=st.integers(min_value=0, max_value=50),
           extra=st.integers(min_value=0, max_value=50))
    @settings(max_examples=40)
    def test_bounds_property(self, k, extra):
        n = k + extra
        if n == 0:
            return
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_all_detected_interval_reaches_one(self):
        """Regression: at k == n the float upper bound used to round to
        1 - 1 ulp, excluding the point estimate from its own interval."""
        for n in (1, 7, 10, 33, 1000):
            lo, hi = wilson_interval(n, n)
            assert hi == 1.0
            assert 0.0 <= lo <= 1.0

    def test_none_detected_interval_reaches_zero(self):
        for n in (1, 7, 10, 33, 1000):
            lo, hi = wilson_interval(0, n)
            assert lo == 0.0
            assert 0.0 <= hi <= 1.0


class TestStratifiedSample:
    def test_returns_all_when_n_large(self):
        u = make_universe()
        assert len(stratified_sample(u, 1000)) == len(u)

    def test_exact_size(self):
        u = make_universe()
        assert len(stratified_sample(u, 30)) == 30

    def test_preserves_stratum_mix(self):
        u = make_universe()
        sample = stratified_sample(u, 30)
        from collections import Counter

        counts = Counter((f.block, f.kind) for f in sample)
        # 6 equal strata -> 5 each
        assert all(v == 5 for v in counts.values())

    def test_deterministic_per_seed(self):
        u = make_universe()
        a = stratified_sample(u, 12, seed=3)
        b = stratified_sample(u, 12, seed=3)
        assert [str(f) for f in a] == [str(f) for f in b]

    def test_no_duplicates(self):
        u = make_universe()
        sample = stratified_sample(u, 45)
        assert len({str(f) for f in sample}) == 45

    @pytest.mark.parametrize("n", [-1, -3, -48])
    def test_negative_size_rejected(self, n):
        """A negative size used to return a short sample (``-3`` gave
        57 of 60 faults here) or fail inside ``random.sample``."""
        with pytest.raises(ValueError, match="sample must be >= 0"):
            stratified_sample(make_universe(), n)

    def test_uneven_strata_largest_remainder(self):
        u = (make_universe(n_per=3)[:6]          # 2 small strata
             + make_universe(n_per=20)[-40:])    # bigger strata
        sample = stratified_sample(u, 10)
        assert len(sample) == 10


class TestEstimates:
    def test_estimate_matches_true_rate(self):
        u = make_universe(n_per=50)   # 300 faults
        detector = lambda f: f.kind == FaultKind.DRAIN_OPEN  # noqa: E731
        est = estimate_coverage(u, detector, n=120)
        assert est.contains(0.5)
        assert est.sampled == 120

    def test_str_rendering(self):
        est = SampledCoverage(detected=9, sampled=12, confidence=0.95)
        s = str(est)
        assert "75.0%" in s and "n=12" in s

    def test_adaptive_stops_when_tight(self):
        u = make_universe(n_per=100)  # 600 faults
        detector = lambda f: True  # noqa: E731  (100% coverage: tight fast)
        est = adaptive_estimate(u, detector, target_half_width=0.05,
                                start=24, step=24)
        assert est.point == 1.0
        assert est.sampled < len(u)
        assert est.half_width <= 0.05

    def test_adaptive_exhausts_universe_when_noisy(self):
        u = make_universe(n_per=4)    # only 24 faults
        flip = {str(f): (i % 2 == 0) for i, f in enumerate(u)}
        detector = lambda f: flip[str(f)]  # noqa: E731
        est = adaptive_estimate(u, detector, target_half_width=0.01)
        assert est.sampled == len(u)

    def test_sampled_campaign_on_real_detectors(self):
        """End-to-end: a tiny stratified sample through the real tiers
        brackets the full-campaign coverage."""
        from repro.dft.coverage import build_fault_universe
        from repro.dft.dc_test import DCTest

        universe = [f for f in build_fault_universe()
                    if f.block in ("tx", "termination")]
        dc = DCTest()
        est = estimate_coverage(universe, dc.detect, n=16, seed=5,
                                confidence=0.90)
        assert 0.0 <= est.point <= 1.0
        lo, hi = est.interval
        assert 0.0 <= lo < hi <= 1.0
