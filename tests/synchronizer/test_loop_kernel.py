"""The hoisted loop kernel against the per-component oracle.

``SynchronizerLoop.run`` is one hoisted kernel fed a coarse period of
stimulus at a time; the per-bit loop body it replaced lives on as
:func:`reference_loop.reference_run`.  Every test here builds two
identical loops, runs one through each path, and requires equal
results: every ``LoopResult`` field, all five trace lists (NaN-aware),
and the component state a later run or ``run_background_through_drift``
resumes from -- pump V_c, ring position, the PD's previous bit and RNG
state, FSM state, lock-detector count, the next 32 source bits, the
next 32 aggressor penalties and the checker tally.  The block reads the
kernel feeds on (``bits(n)``, ``penalties(params, n)``) are held to the
per-bit calls the oracle makes.
"""

from dataclasses import replace

import pytest

from reference_loop import reference_run, result_diff, same

from repro.faults.behavior_map import map_fault_to_knobs
from repro.link.params import LinkParams
from repro.link.prbs import PRBS, bit_reader
from repro.patterns.campaign import (DEFAULT_CAMPAIGN_PATTERNS,
                                     bist_universe)
from repro.patterns.checker import PatternChecker
from repro.patterns.sources import (BurstErrorSource, ClockSource,
                                    CrosstalkAggressor, PRBSSource,
                                    build_stimulus, create_source)
from repro.synchronizer.loop import (LockVerdict, SynchronizerLoop,
                                     stop_at_lock)

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
    # a block per bit, and a ratio the divider count always reaches
    "divide_by_one": ({"divider_ratio": 1}, None),
    "divider_ratio_zero": ({"divider_ratio": 0}, None),
    "measured_curve": ({"vcdl_delay": _measured_curve(231e-12, 204e-12)},
                       None),
    # a V_c set beyond a rail, which the first pump step clamps
    "vc_above_vdd": ({"vc_init": LinkParams().vdd + 0.1}, None),
    "vc_below_ground": ({"vc_init": -0.1}, None),
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


def _diff(kernel, oracle):
    """Names of the result fields, trace lists and state that differ."""
    (r1, loop1), (r2, loop2) = kernel, oracle
    bad = result_diff(r1, r2)
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
        "aggressor": lambda lp: ([lp.aggressor.penalty(lp.params)
                                  for _ in range(32)]
                                 if lp.aggressor else None),
    }
    for name, read in state.items():
        if not same(read(loop1), read(loop2)):
            bad.append(name)
    return bad


def _compare(knobs, stimulus="legacy", checker=False, stuck_phase=None,
             phase=5, **run_kwargs):
    runs = []
    for run in (SynchronizerLoop.run, reference_run):
        loop = _build(knobs, stimulus, checker, stuck_phase, phase)
        runs.append((run(loop, **run_kwargs), loop))
    return _diff(*runs)


def _traced(at_lock: bool):
    """Run options of a traced run: ended at lock, or to full length."""
    return {"stop": stop_at_lock} if at_lock else {}


def _verdict_stop(knobs, stimulus):
    """A lock-test ``stop`` for the loop ``_build`` makes: the default
    stimulus ends at lock, the others run on unless failed, against a
    budget that passes inside :data:`CYCLES` so every branch of the
    rule fires somewhere in the sweep."""
    params = LinkParams().with_faults(**knobs)
    if stimulus in ("legacy", "prbs7"):
        return LockVerdict.lock_test(params)
    dt, bound = params.bit_time, params.n_phases // 2
    return LockVerdict(CYCLES // 2 * dt, bound, dt, at_lock=False)


def _untraced_mismatches(knob_sets, stimulus):
    """Kernel vs oracle for every knob set and phase, untraced to full
    length and untraced under the lock-test ``stop``."""
    mismatches = {}
    for name, (knobs, stuck_phase) in knob_sets.items():
        for phase in PHASES:
            stop = _verdict_stop(knobs, stimulus)
            for label, kwargs in (("untraced", {}), ("stop", {"stop": stop})):
                bad = _compare(knobs, stimulus, stuck_phase=stuck_phase,
                               phase=phase, max_cycles=CYCLES,
                               record_every=0, **kwargs)
                if bad:
                    mismatches[(name, phase, label)] = bad
    return mismatches


@pytest.mark.parametrize("name", sorted(EXTRA_KNOBS))
@pytest.mark.parametrize("at_lock", [True, False])
def test_extra_knob_sets_match(name, at_lock):
    knobs, stuck_phase = EXTRA_KNOBS[name]
    for phase in PHASES:
        assert _compare(knobs, stuck_phase=stuck_phase, phase=phase,
                        max_cycles=CYCLES, **_traced(at_lock)) == [], (
                            name, phase)


def test_every_universe_knob_set_matches():
    mismatches = {}
    for knobs in _universe_knob_sets():
        for phase in PHASES:
            for stimulus, at_lock in (("legacy", True),
                                      ("aggressor", False)):
                bad = _compare(knobs, stimulus, phase=phase,
                               max_cycles=CYCLES, **_traced(at_lock))
                if bad:
                    mismatches[(str(knobs), phase, stimulus)] = bad
    assert mismatches == {}


@pytest.mark.parametrize("stimulus", STIMULI)
def test_untraced_universe_knob_sets_match(stimulus):
    knob_sets = {str(knobs): (knobs, None)
                 for knobs in _universe_knob_sets()}
    assert _untraced_mismatches(knob_sets, stimulus) == {}


@pytest.mark.parametrize("stimulus", STIMULI)
def test_untraced_extra_knob_sets_match(stimulus):
    assert _untraced_mismatches(EXTRA_KNOBS, stimulus) == {}


@pytest.mark.parametrize("stimulus", STIMULI)
@pytest.mark.parametrize("checker", [False, True])
@pytest.mark.parametrize("at_lock", [True, False])
def test_stimuli_match(stimulus, checker, at_lock):
    for knobs in ({}, EXTRA_KNOBS["jitter"][0]):
        assert _compare(knobs, stimulus, checker, max_cycles=CYCLES,
                        **_traced(at_lock)) == []


@pytest.mark.parametrize("stimulus", ["legacy", "aggressor"])
@pytest.mark.parametrize("checker", [False, True])
def test_untraced_stopped_runs_with_a_checker_match(stimulus, checker):
    """A checker (or a trace) keeps the kernel on its per-bit path."""
    stop = _verdict_stop({}, stimulus)
    assert _compare({}, stimulus, checker, max_cycles=CYCLES,
                    record_every=0, stop=stop) == []


@pytest.mark.parametrize("max_cycles", [0, 1])
@pytest.mark.parametrize("stimulus", ["legacy", "aggressor"])
def test_tiny_runs_match(max_cycles, stimulus):
    assert _compare({}, stimulus, checker=True,
                    max_cycles=max_cycles) == []


def _resumed(**first):
    runs = []
    for run in (SynchronizerLoop.run, reference_run):
        loop = _build({"sampling_jitter_rms": 6e-12}, "aggressor",
                      checker=True)
        run(loop, **first)
        runs.append((run(loop, max_cycles=500), loop))
    return _diff(*runs)


def test_resumed_run_matches():
    """A second run starts from the state the first one left."""
    assert _resumed(max_cycles=CYCLES, stop=stop_at_lock) == []


def test_run_resumed_inside_a_coarse_period_matches():
    """...also when the first run ended inside a coarse period: the
    second one starts a new divider count of its own."""
    assert _resumed(max_cycles=1000 + 5, record_every=0) == []


def test_stop_ends_on_a_coarse_period_boundary():
    """``stop`` is asked only at the end of a full coarse period, with
    the last bit period's index."""
    asked = []

    def stop(cycle, lock_cycle, corrections, errors_after_lock):
        asked.append(cycle)
        return cycle >= 100

    ratio = LinkParams().divider_ratio
    result = SynchronizerLoop().run(max_cycles=CYCLES, record_every=0,
                                    stop=stop)
    assert asked == list(range(ratio - 1, 100 + ratio, ratio))
    assert result.cycles_run == asked[-1] + 1


#: every block-reading stimulus and the ``bit_reader`` fallbacks, with
#: an ``n`` past one period (PRBS23/31: 70,009 bits, a fraction of
#: their 2^23 - 1 and 2^31 - 1 bit periods)
BLOCK_READS = {
    "prbs7": (lambda: create_source("prbs7"), 127 + 9),
    "prbs15": (lambda: create_source("prbs15"), 32767 + 9),
    "prbs23": (lambda: create_source("prbs23"), 70000 + 9),
    "prbs31": (lambda: create_source("prbs31"), 70000 + 9),
    "scrambler": (lambda: create_source("scrambler"), 65535 + 9),
    "isi": (lambda: create_source("isi"), 20 + 9),
    "aggressor": (lambda: create_source("aggressor"), 127 + 9),
    "legacy": (lambda: PRBS(order=7, seed=7), 127 + 9),
    "burst": (lambda: BurstErrorSource(PRBSSource(7)), 1000 + 9),
    "clock": (ClockSource, 2 + 1),
}


@pytest.mark.parametrize("name", sorted(BLOCK_READS))
def test_block_reads_equal_bit_reads(name):
    make, wrap = BLOCK_READS[name]
    block, single = make(), make()
    assert hasattr(block, "bits") == (name not in ("burst", "clock",
                                                    "scrambler"))
    for n in (0, 1, 16, wrap, 0, 7):
        assert bit_reader(block)(n) == [single.next_bit()
                                        for _ in range(n)], n
        assert [block.next_bit() for _ in range(64)] == \
            bit_reader(single)(64), n


@pytest.mark.parametrize("lane", ["clock", "prbs7"])
def test_block_penalties_equal_per_bit_penalties(lane):
    params = LinkParams().with_faults(sampling_jitter_rms=6e-12)
    pattern = {"clock": ClockSource, "prbs7": lambda: PRBSSource(7)}[lane]
    block = CrosstalkAggressor(pattern=pattern())
    single = CrosstalkAggressor(pattern=pattern())
    for n in (0, 1, 16, 127 + 9, 0, 5):
        assert block.penalties(params, n) == [single.penalty(params)
                                              for _ in range(n)], n
        assert [block.penalty(params) for _ in range(8)] == \
            single.penalties(params, 8), n


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
