"""The stopping tier stages against their full-pass oracles.

``ScanTest._run_receiver`` / ``_run_toggle`` and
``BISTTest._run_receiver_checks`` / ``_measure_faulted_vcdl`` /
``_measure_vcdl_delays`` end once their verdict is decided;
:mod:`reference_stages` runs the same stages to completion.  Each test
takes one fault of every (block, kind) the stage applies to -- the last
of its class in universe order -- plus the fault-free die where the
stage takes one, and requires the oracle's verdict and exactly the
oracle's samples up to the deciding one.  ``BISTTest._loop_passes``
ends its behavioural lock run at the coarse period where the verdict
is decided; its verdicts are held to the same loop run to full length.
``BISTTest._measure_window_thresholds`` solves the 0.6 V capture its
two bisection brackets share once; its thresholds are held to the
sweep that solves it twice.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import reference_stages as ref
from repro.dft import duts
from repro.dft.bist import LOCK_BUDGET, LOCK_TEST_CYCLES
from repro.dft.coverage import build_fault_universe
from repro.dft.golden import GoldenSignatures
from repro.dft.registry import create_tier
from repro.dft.scan_test import SCAN_CONDITIONS, TOGGLE_THRESHOLD
from repro.faults.behavior_map import map_fault_to_knobs
from repro.link.params import LinkParams
from repro.patterns.campaign import (DEFAULT_CAMPAIGN_PATTERNS,
                                     bist_universe)
from repro.synchronizer.loop import SynchronizerLoop, stop_at_lock

#: receiver-check groups in the order the stage runs them: the hold
#: point's V_p and slew flags, then each pump-current window
PUMP_WINDOWS = ("i_up_ok", "i_dn_ok", "i_up_st_ok", "i_dn_st_ok")


@pytest.fixture(scope="module")
def tiers():
    goldens = GoldenSignatures()
    return create_tier("scan", goldens), create_tier("bist", goldens)


def _class_faults(*blocks):
    last = {}
    for f in build_fault_universe():
        if f.block in blocks:
            last[(f.block, f.kind)] = f
    return [pytest.param(f, id=f"{f.block}-{f.kind.value}")
            for f in last.values()]


RECEIVER_FAULTS = _class_faults("cp", "window_comp") + [
    pytest.param(None, id="fault-free")]
TOGGLE_FAULTS = _class_faults("tx", "termination") + [
    pytest.param(None, id="fault-free")]
VCDL_FAULTS = _class_faults("vcdl")


def _through_first_difference(full, golden, groups):
    """*full* cut after the first group of keys that differs from
    *golden* (all of *full* when none does)."""
    out = {}
    for keys in groups:
        out.update((k, full[k]) for k in keys)
        if any(full[k] != golden.get(k) for k in keys):
            return out
    return full


@pytest.mark.parametrize("fault", RECEIVER_FAULTS)
def test_receiver_scan_stops_at_first_differing_capture(tiers, fault):
    scan, _ = tiers
    golden = scan.golden["receiver"]
    full = ref.run_receiver(scan, fault)
    got = scan._run_receiver(fault)
    assert (got != golden) == (full != golden)
    labels = [(label,) for label, _ in SCAN_CONDITIONS]
    assert got == _through_first_difference(full, golden, labels)


@pytest.mark.parametrize("fault", RECEIVER_FAULTS)
def test_receiver_checks_stop_at_first_differing_group(tiers, fault):
    _, bist = tiers
    golden = bist.golden["receiver_checks"]
    full = ref.run_receiver_checks(bist, fault)
    got = bist._run_receiver_checks(fault)
    assert (got != golden) == (full != golden)
    if full == {"converged": False}:
        return
    hold = [k for k in full if k == "vp_flag" or k.startswith("slew_")]
    groups = [hold] + [(k,) for k in PUMP_WINDOWS]
    assert got == _through_first_difference(full, golden, groups)


@pytest.mark.parametrize("fault", TOGGLE_FAULTS)
def test_toggle_stops_at_first_sample_over_threshold(tiers, fault):
    scan, _ = tiers
    tr, (vcm, vref) = ref.toggle_transient(scan, fault)
    excursion = np.abs(tr.vdiff(vcm, vref))
    masked = tr.time > 5e-9
    full = ref.run_toggle(scan, fault)
    got = scan._run_toggle(fault)
    assert (got > TOGGLE_THRESHOLD) == (full > TOGGLE_THRESHOLD)
    over = np.flatnonzero(masked & (excursion > TOGGLE_THRESHOLD))
    if len(over) == 0:
        assert got == full
    else:
        upto = np.arange(len(tr.time)) <= over[0]
        assert got == float(excursion[masked & upto].max())


@pytest.mark.parametrize("fault", VCDL_FAULTS)
def test_vcdl_delay_matches_the_whole_transient(tiers, fault):
    _, bist = tiers
    p0 = LinkParams()
    for vctl in (p0.v_window_lo, p0.v_window_hi):
        full = ref.measure_faulted_vcdl(bist, fault, vctl)
        got = bist._measure_faulted_vcdl(fault, vctl)
        if math.isnan(full):
            assert math.isnan(got)
        else:
            assert got == full


@pytest.mark.parametrize("fault", VCDL_FAULTS)
def test_vcdl_delay_pair_skips_high_bound_of_dead_line(tiers, fault):
    _, bist = tiers
    full = ref.measure_vcdl_delays(bist, fault)
    got = bist._measure_vcdl_delays(fault)
    assert bist._vcdl_lock_verdict(*got) == bist._vcdl_lock_verdict(*full)
    if math.isnan(full[0]):
        assert math.isnan(got[0]) and math.isnan(got[1])
        return
    assert got[0] == full[0]
    if math.isnan(full[1]):
        assert math.isnan(got[1])
    else:
        assert got[1] == full[1]


def test_screens_pass_the_fault_free_die(tiers):
    """The healthy-die screens run the stopping stages to the end and
    still pass the nominal die."""
    scan, bist = tiers
    assert scan.screen()
    assert bist.screen()


@pytest.mark.parametrize("fault", RECEIVER_FAULTS)
def test_window_thresholds_match_the_twice_solved_sweep(tiers, fault,
                                                        monkeypatch):
    _, bist = tiers
    solves = []
    solve = duts.ReceiverDUT.solve
    monkeypatch.setattr(duts.ReceiverDUT, "solve",
                        lambda dut: solves.append(1) or solve(dut))
    full = ref.measure_window_thresholds(bist, fault)
    full_solves = len(solves)
    del solves[:]
    assert bist._measure_window_thresholds(fault) == full
    assert len(solves) == full_solves - 1


def _universe_knob_sets():
    seen = []
    for fault in bist_universe():
        knobs = map_fault_to_knobs(fault) or {}
        if knobs not in seen:
            seen.append(knobs)
    return seen


@pytest.mark.parametrize("pattern", DEFAULT_CAMPAIGN_PATTERNS)
def test_lock_runs_stop_at_their_verdict(tiers, pattern, monkeypatch):
    """``_loop_passes`` with its ``stop`` against the same loop run to
    full length: ``LOCK_TEST_CYCLES`` x the stimulus scale, judged by
    the rule ``_loop_passes`` used to spell out, or for the default
    stimulus, whose verdict is ``bist_pass`` at lock, to lock."""
    _, bist = tiers
    tier = create_tier("bist" if pattern == "prbs7" else f"bist@{pattern}",
                       bist.goldens)
    cycles = []
    run = SynchronizerLoop.run

    def counted(loop, **kwargs):
        result = run(loop, **kwargs)
        cycles.append(result.cycles_run)
        return result

    monkeypatch.setattr(SynchronizerLoop, "run", counted)
    moved, stopped = [], 0
    for knobs in _universe_knob_sets():
        for phase in (5, 6):
            params = replace(LinkParams().with_faults(**knobs),
                             initial_phase_index=phase)
            del cycles[:]
            got = tier._loop_passes(params)
            loop, scale = tier._build_loop(params)
            if pattern == "prbs7":
                full = loop.run(max_cycles=LOCK_TEST_CYCLES,
                                stop=stop_at_lock)
                want = full.bist_pass
            else:
                full = loop.run(max_cycles=int(LOCK_TEST_CYCLES * scale))
                want = (full.locked and full.lock_time is not None
                        and full.lock_time <= LOCK_BUDGET * scale
                        and full.coarse_corrections <= params.n_phases // 2
                        and full.errors_after_lock == 0)
            if got != want:
                moved.append((knobs, phase))
            stopped += cycles[0] < cycles[1]
    assert moved == []
    assert stopped > 0
