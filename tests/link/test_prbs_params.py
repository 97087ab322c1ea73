"""Tests for PRBS generators and the link parameter set."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.link import (
    BIT_TIME,
    LinkParams,
    PRBS,
    default_vcdl_delay,
    transition_density,
)
from repro.link.params import VCDL_KNOTS


class TestPRBS:
    def test_prbs7_period(self):
        g = PRBS(order=7)
        bits = g.bits(127 * 2)
        assert bits[:127] == bits[127:]

    def test_prbs7_is_maximal_length(self):
        """All 127 nonzero 7-bit states are visited."""
        g = PRBS(order=7)
        states = set()
        for _ in range(127):
            states.add(g.state)
            g.next_bit()
        assert len(states) == 127

    def test_balanced_ones_zeros(self):
        g = PRBS(order=7)
        bits = g.bits(127)
        assert bits.count(1) == 64  # 2^(n-1) ones per period
        assert bits.count(0) == 63

    def test_transition_density_near_half(self):
        g = PRBS(order=7)
        assert transition_density(g.bits(1270)) == pytest.approx(0.5, abs=0.05)

    def test_prbs15_supported(self):
        g = PRBS(order=15)
        assert len(g.bits(100)) == 100

    def test_zero_seed_coerced(self):
        g = PRBS(order=7, seed=0)
        assert g.state != 0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            PRBS(order=9)

    def test_iterator_protocol(self):
        g = PRBS(order=7)
        it = iter(g)
        assert next(it) in (0, 1)

    def test_transition_density_degenerate(self):
        assert transition_density([1]) == 0.0
        assert transition_density([0, 1, 0, 1]) == 1.0


def knot_loop_delay(vc):
    """The curve as first written: walk ``zip(knots, knots[1:])`` from
    the first segment on every call (the oracle of the precomputed
    segments)."""
    knots = VCDL_KNOTS
    if vc <= knots[0][0]:
        return knots[0][1]
    if vc >= knots[-1][0]:
        return knots[-1][1]
    for (v0, d0), (v1, d1) in zip(knots, knots[1:]):
        if v0 <= vc <= v1:
            f = (vc - v0) / (v1 - v0)
            return d0 + f * (d1 - d0)
    return knots[-1][1]


class TestVCDLCurve:
    @pytest.mark.parametrize("vc", [v for v, _ in VCDL_KNOTS])
    def test_bitwise_the_knot_loop_at_and_beside_each_knot(self, vc):
        """On a knot, one ulp below it and one ulp above it: a shared
        knot takes the segment that ends there, as the loop did."""
        for v in (math.nextafter(vc, -math.inf), vc,
                  math.nextafter(vc, math.inf)):
            assert default_vcdl_delay(v) == knot_loop_delay(v), v

    def test_bitwise_the_knot_loop_on_random_draws(self):
        rng = random.Random(2016)
        for _ in range(20000):
            v = rng.uniform(0.3, 1.0)
            assert default_vcdl_delay(v) == knot_loop_delay(v), v
        nan = default_vcdl_delay(math.nan)
        assert nan == knot_loop_delay(math.nan) == VCDL_KNOTS[-1][1]

    def test_monotone_decreasing(self):
        vs = [0.40, 0.50, 0.60, 0.70, 0.80, 0.95]
        ds = [default_vcdl_delay(v) for v in vs]
        assert all(a >= b for a, b in zip(ds, ds[1:]))

    def test_clamped_at_ends(self):
        assert default_vcdl_delay(0.0) == default_vcdl_delay(0.45)
        assert default_vcdl_delay(1.2) == default_vcdl_delay(0.90)

    def test_knot_values(self):
        assert default_vcdl_delay(0.60) == pytest.approx(196e-12)

    @given(st.floats(min_value=0.0, max_value=1.2))
    @settings(max_examples=40)
    def test_always_positive_and_bounded(self, v):
        d = default_vcdl_delay(v)
        assert 100e-12 < d < 700e-12


class TestLinkParams:
    def test_phase_step(self):
        p = LinkParams()
        assert p.phase_step == pytest.approx(BIT_TIME / 10)

    def test_lock_detector_max(self):
        assert LinkParams().lock_detector_max == 7

    def test_with_faults_does_not_mutate(self):
        p = LinkParams()
        q = p.with_faults(vcdl_dead=True)
        assert q.vcdl_dead and not p.vcdl_dead

    def test_healthy_clears_all_knobs(self):
        p = LinkParams(vcdl_dead=True, pd_stuck="up", vp_drift=0.3,
                       i_up_scale=0.0, divider_dead=True)
        h = p.healthy()
        assert not h.vcdl_dead
        assert h.pd_stuck is None
        assert h.vp_drift == 0.0
        assert h.i_up_scale == 1.0
        assert not h.divider_dead

    def test_vcdl_range_exceeds_phase_step(self):
        """The Section II design rule holds for the calibrated curve."""
        p = LinkParams()
        span = p.vcdl_delay(p.v_window_lo) - p.vcdl_delay(p.v_window_hi)
        assert span > p.phase_step
