"""Closed-loop simulation of the dual-loop clock synchronizer (Fig 2).

Cycle-accurate at bit granularity: every bit period the behavioural
Alexander PD compares the sampling instant (selected DLL tap + VCDL
delay) against the data-eye centre and pumps the loop filter; every
``divider_ratio`` bits the coarse FSM evaluates the window comparator
and, when V_c has railed, steps the ring counter / fires the strong pump
/ increments the lock detector.

The trace it produces — V_c sawtoothing between the window bounds while
the coarse phase staircases toward the eye, then V_c settling — is the
paper's Fig 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..link.alexander_pd import AlexanderPD, wrap_phase
from ..link.charge_pump_beh import ChargePumpBeh
from ..link.control_fsm import CoarseFSM
from ..link.dll import DLL
from ..link.lock_detector import LockDetector
from ..link.params import LinkParams
from ..link.prbs import PRBS
from ..link.ring_counter import RingCounterBeh
from ..link.switch_matrix import SwitchMatrix
from ..link.vcdl import VCDLBeh
from ..link.window_comp_beh import WindowComparatorBeh

#: consecutive quiet coarse evaluations that define lock
LOCK_QUIET_EVALS = 8
#: sampling-phase error that counts as "at the eye centre" [fraction of bit]
LOCK_PHASE_TOL = 0.08


@dataclass
class LoopTrace:
    """Time series recorded by the loop simulation."""

    time: List[float] = field(default_factory=list)
    vc: List[float] = field(default_factory=list)
    phase_index: List[int] = field(default_factory=list)
    sampling_phase: List[float] = field(default_factory=list)
    coarse_requests: List[float] = field(default_factory=list)

    def as_arrays(self):
        import numpy as np

        return (np.asarray(self.time), np.asarray(self.vc),
                np.asarray(self.phase_index),
                np.asarray(self.sampling_phase))


@dataclass
class LoopResult:
    """Outcome of a synchronizer run."""

    locked: bool
    lock_time: Optional[float]
    cycles_run: int
    coarse_corrections: int
    final_vc: float
    final_phase_index: int
    final_sampling_phase: Optional[float]
    phase_error: Optional[float]       # vs eye centre, wrapped [s]
    bist_pass: bool
    trace: LoopTrace
    #: received-bit errors before/after lock (a sample outside the open
    #: eye region resolves to the wrong/metastable value)
    errors_before_lock: int = 0
    errors_after_lock: int = 0
    #: bit period at which lock was declared (None when never locked)
    lock_cycles: Optional[int] = None

    @property
    def post_lock_error_free(self) -> bool:
        """The link's actual job: clean data once locked."""
        return self.locked and self.errors_after_lock == 0


class SynchronizerLoop:
    """The dual-loop synchronizer as a runnable simulation."""

    def __init__(self, params: Optional[LinkParams] = None,
                 prbs_order: int = 7, seed: int = 7,
                 source=None, aggressor=None, checker=None):
        """*source* swaps the transmitted stimulus (any
        :class:`repro.patterns.sources.PatternSource`; default: the
        legacy PRBS — bit-identical to every pre-pattern-engine run).
        *aggressor* is an optional crosstalk hook whose ``penalty(p)``
        is charged against the eye half-width each bit period;
        *checker* is an optional
        :class:`repro.patterns.checker.PatternChecker` fed the received
        bit stream."""
        self.params = params or LinkParams()
        p = self.params
        self.pd = AlexanderPD(p)
        self.pump = ChargePumpBeh(p)
        self.vcdl = VCDLBeh(p)
        self.dll = DLL(p)
        self.ring = RingCounterBeh(p)
        self.switch = SwitchMatrix(p)
        self.window = WindowComparatorBeh(p)
        self.lock_detector = LockDetector(p)
        self.fsm = CoarseFSM(p, self.window, self.pump, self.ring,
                             self.lock_detector)
        self.prbs = PRBS(order=prbs_order, seed=seed)
        self.source = source if source is not None else self.prbs
        self.aggressor = aggressor
        self.checker = checker

    # ------------------------------------------------------------------
    def sampling_phase(self) -> Optional[float]:
        """Current absolute sampling phase within the bit, or None when
        no clock reaches the sampler (dead VCDL / dead switch phase)."""
        tap = self._tap_phase()
        if tap is None:
            return None
        d = self.vcdl.delay(self.pump.vc)
        if d is None:
            return None
        return (tap + d) % self.params.bit_time

    def run(self, max_cycles: int = 20000,
            record_every: int = 8,
            stop_on_lock: bool = False) -> LoopResult:
        """Simulate up to *max_cycles* bit periods.

        Lock is declared after :data:`LOCK_QUIET_EVALS` consecutive
        in-window coarse evaluations with the PD dithering (not
        monotonically slewing).  The BIST verdict additionally applies
        the lock-detector bound and the 5000-cycle budget (Section III).

        The body is one hoisted per-bit kernel (DESIGN.md section 8):
        parameters and bound methods live in locals, the PD decision,
        pump step and eye-error wrap are inlined with the float
        expressions of :meth:`AlexanderPD.decide`,
        :meth:`ChargePumpBeh.step` and :func:`wrap_phase`, and the
        sampling phase is recomputed only when V_c or the selected tap
        moves.  The coarse loop stays :meth:`CoarseFSM.evaluate` and
        :meth:`WindowComparatorBeh.in_window`, called once every
        ``divider_ratio`` bits.  The run starts from, and leaves, the
        components' state (pump V_c, ring position, the PD's previous
        bit and RNG, FSM, lock detector, source, aggressor, checker)
        exactly as the per-component loop in
        ``tests/synchronizer/reference_loop.py`` does.
        """
        p = self.params
        dt = p.bit_time
        half = dt / 2.0
        eye_center = p.eye_center
        half_width = p.eye_half_width
        tol = LOCK_PHASE_TOL * p.bit_time
        ratio = p.divider_ratio
        dt_slow = ratio * dt
        divider_live = not p.divider_dead
        vcdl_live = not p.vcdl_dead
        vcdl_delay = p.vcdl_delay
        delay_offset = p.vcdl_delay_offset
        vdd = p.vdd
        jitter = p.sampling_jitter_rms
        pump, ring, fsm = self.pump, self.ring, self.fsm
        in_window = self.window.in_window
        evaluate = fsm.evaluate
        next_bit = self.source.next_bit
        gauss = self.pd.rng.gauss
        penalty = (self.aggressor.penalty if self.aggressor is not None
                   else None)
        push = self.checker.push if self.checker is not None else None
        # weak-pump V_c increments of ChargePumpBeh.step, per PD verdict
        d_hold = pump.increment(0, 0, dt)
        d_up = pump.increment(1, 0, dt)
        d_dn = pump.increment(0, 1, dt)
        # a stuck PD's fixed (up, dn, increment), or None for a live PD
        pd_forced = {"up": (1, 0, d_up), "dn": (0, 1, d_dn),
                     "quiet": (0, 0, d_hold)}.get(p.pd_stuck)

        trace = LoopTrace()
        t_time, t_vc = trace.time, trace.vc
        t_index, t_phase = trace.phase_index, trace.sampling_phase
        nan = float("nan")
        locked = False
        lock_cycle: Optional[int] = None
        divider_count = 0
        on_target_evals = 0
        ups_seen = 0
        dns_seen = 0
        errors_before = 0
        errors_after = 0

        vc = pump.vc
        prev_bit = self.pd.prev_bit
        track = fsm.state == "TRACK"
        position = ring.position
        tap = self._tap_phase()
        # V_c the cached phase was computed at; None forces a recompute
        phase_vc: Optional[float] = None
        phase: Optional[float] = None
        err = 0.0
        cycle = -1

        for cycle in range(max_cycles):
            bit = next_bit()
            if vc != phase_vc:
                # LinkParams.vcdl_delay is a pure function of V_c, so
                # the phase only moves when V_c or the tap does
                phase_vc = vc
                if tap is None or not vcdl_live:
                    phase = None
                else:
                    phase = (tap + (vcdl_delay(vc) + delay_offset)) % dt
                    err = (phase - eye_center + half) % dt - half
                    if err == -half:
                        err = half

            # data correctness: a sample outside the open eye region
            # resolves wrongly (or metastably) -- count it as an error
            if phase is None:
                sample_ok = False
            elif penalty is None:
                sample_ok = abs(err) < half_width
            else:
                sample_ok = abs(err) < half_width - penalty(p)
            if not sample_ok:
                if locked:
                    errors_after += 1
                else:
                    errors_before += 1
            if push is not None:
                # a bad sample resolves to the wrong value at the
                # receiver -- that is what the checker FSM sees
                push(bit if sample_ok else 1 - bit)

            if phase is None:
                # no sampling clock: PD sees no data, pump idles, and
                # the loop can never lock
                prev_bit = None
            elif track:
                if pd_forced is not None:
                    up, dn, d = pd_forced
                    ups_seen += up
                    dns_seen += dn
                    vc += d
                elif prev_bit is None or prev_bit == bit:
                    vc += d_hold
                else:
                    e = err
                    if jitter > 0.0:
                        e += gauss(0.0, jitter)
                    if e > 0.0:     # late -> UP (raise V_c)
                        ups_seen += 1
                        vc += d_up
                    elif e < 0.0:   # early -> DN
                        dns_seen += 1
                        vc += d_dn
                    else:
                        vc += d_hold
                prev_bit = bit
                if vc < 0.0:    # the rail clamp, min(max(vc, 0), vdd)
                    vc = 0.0
                if vc > vdd:
                    vc = vdd

            divider_count += 1
            if divider_live and divider_count >= ratio:
                divider_count = 0
                pump.vc = vc
                request, _ = evaluate(dt_slow)
                vc = pump.vc
                track = fsm.state == "TRACK"
                if ring.position != position:
                    position = ring.position
                    tap = self._tap_phase()
                    phase_vc = None
                if request:
                    trace.coarse_requests.append(cycle * dt)
                # lock criterion: sampling phase pinned to the eye
                # centre for several consecutive coarse evaluations,
                # the fine loop tracking (in window), and the PD
                # visibly dithering (both UP and DN seen -- evidence
                # the loop is regulating, not merely parked; a dead PD
                # never shows dither)
                if (track and phase is not None and abs(err) < tol
                        and in_window(vc)):
                    on_target_evals += 1
                else:
                    on_target_evals = 0
                    ups_seen = 0
                    dns_seen = 0
                if (not locked and on_target_evals >= LOCK_QUIET_EVALS
                        and ups_seen > 0 and dns_seen > 0):
                    locked = True
                    lock_cycle = cycle

            if cycle % record_every == 0:
                t_time.append(cycle * dt)
                t_vc.append(vc)
                t_index.append(position)
                t_phase.append(phase if phase is not None else nan)

            if locked and stop_on_lock:
                break

        pump.vc = vc
        self.pd.prev_bit = prev_bit
        lock_time = lock_cycle * dt if lock_cycle is not None else None
        final_phase = self.sampling_phase()
        final_err = (wrap_phase(final_phase - p.eye_center, p.bit_time)
                     if final_phase is not None else None)
        cycles_budget = int(2e-6 / dt)  # the paper's 2 us budget
        bist_pass = (locked
                     and lock_time is not None
                     and lock_time <= cycles_budget * dt
                     and self.lock_detector.count <= self.lock_detector.bound)
        return LoopResult(
            locked=locked, lock_time=lock_time,
            cycles_run=cycle + 1,
            coarse_corrections=self.lock_detector.count,
            final_vc=vc,
            final_phase_index=ring.position,
            final_sampling_phase=final_phase,
            phase_error=final_err, bist_pass=bist_pass, trace=trace,
            errors_before_lock=errors_before,
            errors_after_lock=errors_after,
            lock_cycles=lock_cycle)

    def _tap_phase(self) -> Optional[float]:
        """Phase of the tap the ring counter selects through the switch
        matrix, or None when no clock comes out."""
        sel = self.switch.select(self.ring.one_hot())
        return None if sel is None else self.dll.phase(sel)


def run_synchronizer(params: Optional[LinkParams] = None,
                     max_cycles: int = 20000, seed: int = 7) -> LoopResult:
    """Convenience wrapper: build and run a loop simulation."""
    return SynchronizerLoop(params=params, seed=seed).run(max_cycles=max_cycles)
