"""Behavioural charge pump: integrates PD verdicts onto V_c.

Calibrated against the transistor-level pump of
:mod:`repro.circuits.charge_pump` (weak pump ~2-4 uA into a 4 pF loop
filter; strong pump 8x).  Fault knobs scale or kill each path and add a
parasitic leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .params import LinkParams


@dataclass
class ChargePumpBeh:
    """V_c integrator with weak and strong pump paths."""

    params: LinkParams
    vc: float = field(default=None)

    def __post_init__(self):
        if self.vc is None:
            self.vc = self.params.vc_init

    def reset(self, vc: float = None) -> None:
        self.vc = self.params.vc_init if vc is None else vc

    def _clamp(self) -> None:
        self.vc = min(max(self.vc, 0.0), self.params.vdd)

    def increment(self, up: int, dn: int, dt: float) -> float:
        """V_c change of one weak-pump interval, before the rail
        clamp."""
        p = self.params
        i = 0.0
        if up:
            i += p.i_up * p.i_up_scale
        if dn:
            i -= p.i_dn * p.i_dn_scale
        i -= p.leak_current
        return i * dt / p.c_loop

    def step(self, up: int, dn: int, dt: float) -> float:
        """Apply one weak-pump interval; returns the new V_c."""
        self.vc += self.increment(up, dn, dt)
        self._clamp()
        return self.vc

    def strong_step(self, direction: int, dt: float) -> float:
        """Strong-pump pulse: +1 charges V_c up, -1 pulls it down.

        A dead strong pump (fault knob) makes this a no-op in that
        direction — the FSM then cannot reset V_c into the window, which
        the lock detector observes as lock failure.
        """
        p = self.params
        if direction > 0 and not p.strong_up_dead:
            self.vc += p.i_up * p.i_up_scale * p.strong_scale * dt / p.c_loop
        elif direction < 0 and not p.strong_dn_dead:
            self.vc -= p.i_dn * p.i_dn_scale * p.strong_scale * dt / p.c_loop
        self._clamp()
        return self.vc

    @property
    def vp(self) -> float:
        """Steady-state balancing node voltage (V_c plus fault drift)."""
        p = self.params
        v = self.vc + p.vp_drift
        return min(max(v, 0.0), p.vdd)
