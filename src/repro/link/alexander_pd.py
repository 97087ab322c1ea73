"""Behavioural Alexander phase detector.

Operates on the timing abstraction used by the loop simulation: the
received data stream has transitions at a fixed phase inside the bit
(``eye_center - bit_time/2``), and the receiver samples at a phase set by
the DLL tap plus the VCDL delay.  On each data transition the edge sample
lands either before the transition (sampling early -> the edge agrees
with the *previous* bit -> DN) or after it (sampling late -> the edge
agrees with the *next* bit -> UP).  Without a transition the PD holds.

Sign convention: **UP raises V_c**, which *shortens* the VCDL delay and
moves the sampling instant earlier — the correct response to sampling
late.  This matches the gate-level decision table in
:func:`repro.circuits.phase_detector.pd_decision`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from .params import LinkParams


def wrap_phase(e: float, bit_time: float) -> float:
    """Wrap a phase difference into (-bit_time/2, +bit_time/2]."""
    half = bit_time / 2.0
    e = (e + half) % bit_time - half
    return e if e != -half else half


@dataclass
class AlexanderPD:
    """Stateful behavioural PD fed one bit interval at a time."""

    params: LinkParams
    rng: Optional[random.Random] = None

    def __post_init__(self):
        if self.rng is None:
            self.rng = random.Random(20160314)
        self._prev_bit: Optional[int] = None

    def reset(self) -> None:
        self._prev_bit = None

    @property
    def prev_bit(self) -> Optional[int]:
        """The last bit the PD saw (None after a reset): the memory
        that decides whether the next bit is a transition."""
        return self._prev_bit

    @prev_bit.setter
    def prev_bit(self, bit: Optional[int]) -> None:
        self._prev_bit = bit

    def decide(self, bit: int, sampling_phase: float) -> Tuple[int, int]:
        """PD verdict for the transition into *bit*.

        Parameters
        ----------
        bit:
            The newly received data bit.
        sampling_phase:
            Absolute sampling phase within the bit [s].

        Returns
        -------
        (up, dn):
            ``(1, 0)`` sample late, ``(0, 1)`` sample early, ``(0, 0)``
            no transition (or PD forced quiet by a fault knob).
        """
        p = self.params
        if p.pd_stuck == "up":
            self._prev_bit = bit
            return 1, 0
        if p.pd_stuck == "dn":
            self._prev_bit = bit
            return 0, 1
        if p.pd_stuck == "quiet":
            self._prev_bit = bit
            return 0, 0

        prev = self._prev_bit
        self._prev_bit = bit
        if prev is None or prev == bit:
            return 0, 0

        e = wrap_phase(sampling_phase - p.eye_center, p.bit_time)
        if p.sampling_jitter_rms > 0.0:
            e += self.rng.gauss(0.0, p.sampling_jitter_rms)
        if e > 0.0:
            return 1, 0     # late -> UP (raise V_c, shorten delay)
        if e < 0.0:
            return 0, 1     # early -> DN
        return 0, 0


def scan_frequency_verdict(half_cycle_delay: bool) -> Tuple[int, int]:
    """PD verdict when the link runs at the scan frequency.

    Section II-A: at the (slow) scan rate the sampling clock lands late
    inside a long settled bit, so the PD constantly asserts UP; enabling
    the transmitter's half-cycle latch shifts the data by half a bit and
    the PD asserts DN instead.  This closed-form helper is the golden
    reference for the scan-test procedure.
    """
    return (0, 1) if half_cycle_delay else (1, 0)
