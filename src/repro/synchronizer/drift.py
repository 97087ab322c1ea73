"""Environmental drift scenarios: background vs foreground tracking.

The paper's key architectural argument (via [8]) is that the background
dual-loop synchronizer "tracks environmental changes without breaking
normal operation", while a foreground-calibrated receiver cannot.  This
module makes the argument quantitative: the data-eye centre drifts
(temperature / voltage wander shifting the wire latency), both receivers
run through it, and the sampling error histories are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..link.alexander_pd import wrap_phase
from ..link.params import LinkParams
from .baseline import ForegroundReceiver
from .loop import SynchronizerLoop, stop_at_lock


def linear_drift(rate_s_per_s: float) -> Callable[[float], float]:
    """Eye-centre drift growing linearly with time.

    ``rate_s_per_s`` is seconds of phase per second of operation; on-die
    thermal transients are of order 10-100 ps over micro-to-milliseconds.
    """

    def drift(t: float) -> float:
        return rate_s_per_s * t

    return drift


def sinusoidal_drift(amplitude: float,
                     period: float) -> Callable[[float], float]:
    """Periodic wander (e.g. supply/thermal cycling)."""

    def drift(t: float) -> float:
        return amplitude * math.sin(2.0 * math.pi * t / period)

    return drift


@dataclass
class DriftRunResult:
    """Sampling-error history of one receiver through a drift scenario."""

    time: List[float]
    error: List[float]              # signed sampling error [s]
    eye_margin: float               # |error| beyond this = bit errors

    @property
    def max_abs_error(self) -> float:
        return max(abs(e) for e in self.error) if self.error else 0.0

    @property
    def fraction_out_of_margin(self) -> float:
        if not self.error:
            return 0.0
        bad = sum(1 for e in self.error if abs(e) > self.eye_margin)
        return bad / len(self.error)

    @property
    def stays_in_margin(self) -> bool:
        return self.fraction_out_of_margin == 0.0


def run_background_through_drift(drift: Callable[[float], float],
                                 duration: float,
                                 params: Optional[LinkParams] = None,
                                 seed: int = 7,
                                 record_every: int = 64) -> DriftRunResult:
    """The paper's receiver tracking a drifting eye, in service.

    The loop first acquires lock on the static eye, then the eye centre
    follows ``drift(t)`` while the loop keeps running — no interruption,
    the fine loop absorbs the drift and the coarse loop steps when the
    fine range runs out.
    """
    p = (params or LinkParams())
    loop = SynchronizerLoop(params=p, seed=seed)
    # acquisition on the static eye
    loop.run(max_cycles=4000, stop=stop_at_lock)

    dt = p.bit_time
    n = int(duration / dt)
    base_center = p.eye_center
    time: List[float] = []
    error: List[float] = []
    divider_count = 0

    for cycle in range(n):
        t = cycle * dt
        centre = (base_center + drift(t)) % p.bit_time
        loop.params.eye_center = centre
        loop.pd.params = loop.params

        bit = loop.prbs.next_bit()
        phase = loop.sampling_phase()
        if phase is not None and loop.fsm.state == "TRACK":
            up, dn = loop.pd.decide(bit, phase)
            loop.pump.step(up, dn, dt)
        divider_count += 1
        if divider_count >= p.divider_ratio:
            divider_count = 0
            loop.fsm.evaluate(p.divider_ratio * dt)
        if cycle % record_every == 0:
            time.append(t)
            err = (wrap_phase(phase - centre, p.bit_time)
                   if phase is not None else p.bit_time / 2)
            error.append(err)

    return DriftRunResult(time=time, error=error,
                          eye_margin=p.eye_half_width)


def run_foreground_through_drift(drift: Callable[[float], float],
                                 duration: float,
                                 params: Optional[LinkParams] = None,
                                 record_every: int = 64) -> DriftRunResult:
    """The [4]-style baseline through the same drift: calibrated once at
    t=0, then frozen — the drift accumulates as raw sampling error."""
    p = params or LinkParams()
    rx = ForegroundReceiver(params=p)
    rx.calibrate()

    dt = p.bit_time
    n = int(duration / dt)
    base_center = p.eye_center
    time: List[float] = []
    error: List[float] = []
    for cycle in range(0, n, record_every):
        t = cycle * dt
        centre = (base_center + drift(t)) % p.bit_time
        time.append(t)
        error.append(rx.phase_error(eye_center=centre))
    return DriftRunResult(time=time, error=error,
                          eye_margin=p.eye_half_width)


@dataclass
class DriftComparison:
    """Side-by-side drift behaviour of the two architectures."""

    background: DriftRunResult
    foreground: DriftRunResult

    @property
    def background_tracks(self) -> bool:
        return self.background.stays_in_margin

    @property
    def foreground_fails(self) -> bool:
        return not self.foreground.stays_in_margin

    @property
    def advantage_demonstrated(self) -> bool:
        return self.background_tracks and self.foreground_fails


def compare_under_drift(drift: Callable[[float], float],
                        duration: float,
                        params: Optional[LinkParams] = None,
                        seed: int = 7) -> DriftComparison:
    """Run both receivers through the same drift scenario."""
    return DriftComparison(
        background=run_background_through_drift(drift, duration,
                                                params=params, seed=seed),
        foreground=run_foreground_through_drift(drift, duration,
                                                params=params))
