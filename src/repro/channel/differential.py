"""Differential link arithmetic and mismatch analysis.

The paper's interconnect is differential: any fault in the weak driver,
series caps, or the termination unbalances the two arms, and the DC-test
comparators (programmed offset 15 mV, fault-free input 30 mV) detect the
imbalance.  This module computes per-arm static levels and the resulting
comparator inputs for healthy and mismatched arms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .sparams import ChannelConfig


@dataclass
class DifferentialLevels:
    """Static received levels of the two arms for one data value."""

    v_pos: float     # arm carrying "data" [V, deviation from common mode]
    v_neg: float     # arm carrying "data-bar"

    @property
    def differential(self) -> float:
        return self.v_pos - self.v_neg


@dataclass
class DifferentialChannel:
    """Two (possibly mismatched) arms of the low-swing link."""

    pos: ChannelConfig
    neg: ChannelConfig

    @classmethod
    def matched(cls, config: ChannelConfig) -> "DifferentialChannel":
        """Build a healthy, perfectly matched differential pair."""
        return cls(pos=config, neg=replace(config))

    def static_levels(self, data: int) -> DifferentialLevels:
        """Static per-arm deviation from mid-swing for data bit *data*.

        Each arm swings ``+-0.5 * dc_swing`` around the common mode; the
        comparator at the termination sees half the differential swing
        (30 mV for the paper's 60 mV design swing).
        """
        sign = 1.0 if data else -1.0
        vp = sign * 0.5 * self.pos.dc_swing()
        vn = -sign * 0.5 * self.neg.dc_swing()
        return DifferentialLevels(v_pos=vp, v_neg=vn)

    def comparator_input(self, data: int) -> float:
        """Half-differential static input to each termination comparator."""
        lv = self.static_levels(data)
        return 0.5 * lv.differential

    def arm_imbalance(self, data: int) -> float:
        """|v_pos| - |v_neg| static magnitude mismatch (0 when healthy)."""
        lv = self.static_levels(data)
        return abs(lv.v_pos) - abs(lv.v_neg)

    def is_balanced(self, tol: float = 1e-6) -> bool:
        return abs(self.arm_imbalance(1)) < tol


def degrade_arm(config: ChannelConfig, *, r_weak_scale: float = 1.0,
                r_term_scale: float = 1.0,
                c_couple_scale: float = 1.0) -> ChannelConfig:
    """Return a copy of *config* with fault-like parameter shifts.

    Used by fault-effect mapping: e.g. an open weak-driver transistor is
    ``r_weak_scale >> 1`` (arm loses its DC path), a shorted coupling cap
    is ``c_couple_scale -> inf`` approximated by a tiny series resistance
    (handled at the netlist level; here it maps to a much stronger DC
    path: ``r_weak_scale << 1``).
    """
    return replace(
        config,
        r_weak=config.r_weak * r_weak_scale,
        r_term=config.r_term * r_term_scale,
        c_couple=config.c_couple * c_couple_scale,
    )
