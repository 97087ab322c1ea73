"""Slow oracle for :meth:`repro.synchronizer.loop.SynchronizerLoop.run`.

This is the loop's original per-component body: every bit period it
asks the switch matrix for the selected tap through the ring counter's
one-hot vector, interpolates the VCDL curve, and calls
``AlexanderPD.decide`` and ``ChargePumpBeh.step``.  The product runs a
hoisted kernel instead; ``test_loop_kernel.py`` holds the two to the
same results, traces and post-run component state.

It differs from the original body only by what the kernel also
carries: ``max_cycles=0`` runs zero cycles instead of raising, the
result carries the bit period at which lock was declared,
``record_every=0`` records no trace, and the ``stop`` predicate that
replaced ``stop_on_lock`` is asked at the end of every full coarse
period (every ``divider_ratio`` bits from the run's start).  It still
reads the stimulus one ``next_bit()`` and one ``penalty()`` at a time.
:func:`result_diff` names what two runs' results disagree on, for the
kernel tests and ``scripts/loop_shadow.py``.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import List

from repro.link.alexander_pd import wrap_phase
from repro.synchronizer.loop import (LOCK_PHASE_TOL, LOCK_QUIET_EVALS,
                                     LoopResult, LoopTrace)


def reference_run(loop, max_cycles: int = 20000, record_every: int = 8,
                  stop=None) -> LoopResult:
    """Run *loop* (a ``SynchronizerLoop``) one component call at a time."""
    self = loop
    p = self.params
    dt = p.bit_time
    dt_slow = p.divider_ratio * dt

    trace = LoopTrace()
    locked = False
    lock_time = None
    lock_cycle = None
    divider_count = 0
    on_target_evals = 0
    tol = LOCK_PHASE_TOL * p.bit_time
    ups_seen = 0
    dns_seen = 0
    errors_before = 0
    errors_after = 0
    cycle = -1

    for cycle in range(max_cycles):
        t = cycle * dt
        bit = self.source.next_bit()
        phase = self.sampling_phase()

        # data correctness: a sample outside the open eye region
        # resolves wrongly (or metastably) -- count it as an error
        if phase is None:
            sample_ok = False
        else:
            e_sample = wrap_phase(phase - p.eye_center, p.bit_time)
            margin = p.eye_half_width
            if self.aggressor is not None:
                margin = margin - self.aggressor.penalty(p)
            sample_ok = abs(e_sample) < margin
        if not sample_ok:
            if locked:
                errors_after += 1
            else:
                errors_before += 1
        if self.checker is not None:
            # a bad sample resolves to the wrong value at the
            # receiver -- that is what the checker FSM sees
            self.checker.push(bit if sample_ok else 1 - bit)

        if phase is not None and self.fsm.state == "TRACK":
            up, dn = self.pd.decide(bit, phase)
            ups_seen += up
            dns_seen += dn
            self.pump.step(up, dn, dt)
        elif phase is None:
            # no sampling clock: PD sees no data, pump idles, and the
            # loop can never lock
            self.pd.reset()

        divider_count += 1
        if not p.divider_dead and divider_count >= p.divider_ratio:
            divider_count = 0
            request, _ = self.fsm.evaluate(dt_slow)
            if request and record_every:
                trace.coarse_requests.append(t)
            # lock criterion: sampling phase pinned to the eye centre
            # for several consecutive coarse evaluations, the fine
            # loop tracking (in window), and the PD visibly dithering
            if (self.fsm.state == "TRACK" and phase is not None
                    and abs(wrap_phase(phase - p.eye_center,
                                       p.bit_time)) < tol
                    and self.window.in_window(self.pump.vc)):
                on_target_evals += 1
            else:
                on_target_evals = 0
                ups_seen = 0
                dns_seen = 0
            if (not locked and on_target_evals >= LOCK_QUIET_EVALS
                    and ups_seen > 0 and dns_seen > 0):
                locked = True
                lock_time = t
                lock_cycle = cycle

        if record_every and cycle % record_every == 0:
            trace.time.append(t)
            trace.vc.append(self.pump.vc)
            trace.phase_index.append(self.ring.position)
            trace.sampling_phase.append(
                phase if phase is not None else float("nan"))

        if (stop is not None
                and (cycle + 1) % max(p.divider_ratio, 1) == 0
                and stop(cycle, lock_cycle, self.lock_detector.count,
                         errors_after)):
            break

    final_phase = self.sampling_phase()
    err = (wrap_phase(final_phase - p.eye_center, p.bit_time)
           if final_phase is not None else None)
    cycles_budget = int(2e-6 / dt)  # the paper's 2 us budget
    bist_pass = (locked
                 and lock_time is not None
                 and lock_time <= cycles_budget * dt
                 and self.lock_detector.count <= p.n_phases // 2)
    return LoopResult(
        locked=locked, lock_time=lock_time,
        cycles_run=cycle + 1,
        coarse_corrections=self.lock_detector.count,
        final_vc=self.pump.vc,
        final_phase_index=self.ring.position,
        final_sampling_phase=final_phase,
        phase_error=err, bist_pass=bist_pass, trace=trace,
        errors_before_lock=errors_before,
        errors_after_lock=errors_after,
        lock_cycles=lock_cycle)


def same(a, b) -> bool:
    """Equal values of one type, NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return type(a) is type(b) and a == b


def result_diff(got: LoopResult, want: LoopResult) -> List[str]:
    """Names of the result fields and trace lists that differ."""
    bad = [f.name for f in fields(got) if f.name != "trace"
           and not same(getattr(got, f.name), getattr(want, f.name))]
    for f in fields(got.trace):
        s1, s2 = getattr(got.trace, f.name), getattr(want.trace, f.name)
        if len(s1) != len(s2) or not all(map(same, s1, s2)):
            bad.append(f"trace.{f.name}")
    return bad
