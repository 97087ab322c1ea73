"""The hoisted loop kernel against the per-component oracle.

``SynchronizerLoop.run`` is one hoisted per-bit kernel; the loop body it
replaced lives on as :func:`reference_loop.reference_run`.  Every test
here builds two identical loops, runs one through each path, and
requires equal results: every ``LoopResult`` field, all five trace
lists (NaN-aware), and the component state a later run or
``run_background_through_drift`` resumes from -- pump V_c, ring
position, the PD's previous bit and RNG state, FSM state, lock-detector
count, the next 32 source bits and the checker tally.
"""

import math
from dataclasses import fields, replace

import pytest

from reference_loop import reference_run

from repro.faults.behavior_map import map_fault_to_knobs
from repro.link.params import LinkParams
from repro.patterns.campaign import (DEFAULT_CAMPAIGN_PATTERNS,
                                     bist_universe)
from repro.patterns.checker import PatternChecker
from repro.patterns.sources import (PRBSSource, build_stimulus,
                                    create_source)
from repro.synchronizer.loop import SynchronizerLoop

#: legacy construction (no source argument) plus the campaign stimuli
STIMULI = ("legacy",) + DEFAULT_CAMPAIGN_PATTERNS
#: the BIST tier's two worst-case startup phases
PHASES = (5, 6)
CYCLES = 3000


def _measured_curve(d_lo: float, d_hi: float):
    """A faulted VCDL curve the way ``BISTTest._vcdl_lock_verdict``
    builds one from a measured (d_lo, d_hi) pair."""
    p0 = LinkParams()
    lo_v, hi_v = p0.v_window_lo, p0.v_window_hi

    def faulted_curve(vc: float, _lo=d_lo, _hi=d_hi) -> float:
        if vc <= lo_v:
            return _lo
        if vc >= hi_v:
            return _hi
        f = (vc - lo_v) / (hi_v - lo_v)
        return _lo + f * (_hi - _lo)

    return faulted_curve


#: knob sets beyond the fault map, by name: (LinkParams knobs,
#: SwitchMatrix.stuck_phase)
EXTRA_KNOBS = {
    "healthy": ({}, None),
    "vcdl_dead": ({"vcdl_dead": True}, None),
    "pd_stuck_up": ({"pd_stuck": "up"}, None),
    "pd_stuck_dn": ({"pd_stuck": "dn"}, None),
    "pd_stuck_quiet": ({"pd_stuck": "quiet"}, None),
    "ring_stuck": ({"ring_counter_stuck": True}, None),
    "divider_dead": ({"divider_dead": True}, None),
    "strong_pumps_dead": ({"strong_up_dead": True,
                           "strong_dn_dead": True}, None),
    "window_hi_stuck": ({"window_hi_stuck": 1}, None),
    "switch_dead_phase": ({"switch_matrix_dead_phase": 3}, None),
    "switch_stuck_phase": ({}, 2),
    "jitter": ({"sampling_jitter_rms": 6e-12}, None),
    "leak": ({"leak_current": 0.05e-6}, None),
    "vcdl_offset": ({"vcdl_delay_offset": 40e-12}, None),
    "measured_curve": ({"vcdl_delay": _measured_curve(231e-12, 204e-12)},
                       None),
}


def _universe_knob_sets():
    """Every distinct ``map_fault_to_knobs`` set of the BIST universe."""
    seen = []
    for fault in bist_universe():
        knobs = map_fault_to_knobs(fault) or {}
        if knobs not in seen:
            seen.append(knobs)
    return seen


def _build(knobs, stimulus="legacy", checker=False, stuck_phase=None,
           phase=5):
    params = replace(LinkParams().with_faults(**knobs),
                     initial_phase_index=phase)
    if stimulus == "legacy":
        source, aggressor = None, None
        reference = PRBSSource(7) if checker else None
    else:
        source, aggressor = build_stimulus(stimulus)
        reference = create_source(stimulus) if checker else None
    check = None
    if reference is not None:
        check = PatternChecker(reference)
        check.start()
    loop = SynchronizerLoop(params=params, source=source,
                            aggressor=aggressor, checker=check)
    if stuck_phase is not None:
        loop.switch.stuck_phase = stuck_phase
    return loop


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return type(a) is type(b) and a == b


def _diff(kernel, oracle):
    """Names of the result fields, trace lists and state that differ."""
    (r1, loop1), (r2, loop2) = kernel, oracle
    bad = [f.name for f in fields(r1) if f.name != "trace"
           and not _same(getattr(r1, f.name), getattr(r2, f.name))]
    for f in fields(r1.trace):
        s1, s2 = getattr(r1.trace, f.name), getattr(r2.trace, f.name)
        if len(s1) != len(s2) or not all(map(_same, s1, s2)):
            bad.append(f"trace.{f.name}")
    state = {
        "pump.vc": lambda lp: lp.pump.vc,
        "ring.position": lambda lp: lp.ring.position,
        "pd.prev_bit": lambda lp: lp.pd.prev_bit,
        "pd.rng": lambda lp: lp.pd.rng.getstate(),
        "fsm.state": lambda lp: lp.fsm.state,
        "lock_detector.count": lambda lp: lp.lock_detector.count,
        "checker": lambda lp: (lp.checker.tally() if lp.checker
                               else None),
        "source": lambda lp: [lp.source.next_bit() for _ in range(32)],
    }
    for name, read in state.items():
        if not _same(read(loop1), read(loop2)):
            bad.append(name)
    return bad


def _compare(knobs, stimulus="legacy", checker=False, stuck_phase=None,
             phase=5, **run_kwargs):
    runs = []
    for run in (SynchronizerLoop.run, reference_run):
        loop = _build(knobs, stimulus, checker, stuck_phase, phase)
        runs.append((run(loop, **run_kwargs), loop))
    return _diff(*runs)


@pytest.mark.parametrize("name", sorted(EXTRA_KNOBS))
@pytest.mark.parametrize("stop_on_lock", [True, False])
def test_extra_knob_sets_match(name, stop_on_lock):
    knobs, stuck_phase = EXTRA_KNOBS[name]
    for phase in PHASES:
        assert _compare(knobs, stuck_phase=stuck_phase, phase=phase,
                        max_cycles=CYCLES,
                        stop_on_lock=stop_on_lock) == [], (name, phase)


def test_every_universe_knob_set_matches():
    mismatches = {}
    for knobs in _universe_knob_sets():
        for phase in PHASES:
            for stimulus, stop in (("legacy", True), ("aggressor", False)):
                bad = _compare(knobs, stimulus, phase=phase,
                               max_cycles=CYCLES, stop_on_lock=stop)
                if bad:
                    mismatches[(str(knobs), phase, stimulus)] = bad
    assert mismatches == {}


@pytest.mark.parametrize("stimulus", STIMULI)
@pytest.mark.parametrize("checker", [False, True])
@pytest.mark.parametrize("stop_on_lock", [True, False])
def test_stimuli_match(stimulus, checker, stop_on_lock):
    for knobs in ({}, EXTRA_KNOBS["jitter"][0]):
        assert _compare(knobs, stimulus, checker, max_cycles=CYCLES,
                        stop_on_lock=stop_on_lock) == []


@pytest.mark.parametrize("max_cycles", [0, 1])
@pytest.mark.parametrize("stimulus", ["legacy", "aggressor"])
def test_tiny_runs_match(max_cycles, stimulus):
    assert _compare({}, stimulus, checker=True,
                    max_cycles=max_cycles) == []


def test_resumed_run_matches():
    """A second run starts from the state the first one left."""
    runs = []
    for run in (SynchronizerLoop.run, reference_run):
        loop = _build({"sampling_jitter_rms": 6e-12}, "aggressor",
                      checker=True)
        run(loop, max_cycles=CYCLES, stop_on_lock=True)
        runs.append((run(loop, max_cycles=500), loop))
    assert _diff(*runs) == []


def test_zero_cycles_returns_an_unlocked_result():
    result = SynchronizerLoop().run(max_cycles=0)
    assert result.cycles_run == 0
    assert not result.locked and result.lock_time is None
    assert result.lock_cycles is None and not result.bist_pass
    assert result.trace.time == []


@pytest.mark.parametrize("start", [0, 2, 5, 6, 8])
def test_lock_cycles_counts_bit_periods(start):
    p = LinkParams(initial_phase_index=start)
    result = SynchronizerLoop(params=p).run(max_cycles=8000)
    assert result.locked
    assert result.lock_cycles == round(result.lock_time / p.bit_time)
