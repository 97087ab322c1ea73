"""The stopping tier stages against their full-pass oracles.

``ScanTest._run_receiver`` / ``_run_toggle`` and
``BISTTest._run_receiver_checks`` / ``_measure_faulted_vcdl`` /
``_measure_vcdl_delays`` end once their verdict is decided;
:mod:`reference_stages` runs the same stages to completion.  Each test
takes one fault of every (block, kind) the stage applies to -- the last
of its class in universe order -- plus the fault-free die where the
stage takes one, and requires the oracle's verdict and exactly the
oracle's samples up to the deciding one.
"""

import math

import numpy as np
import pytest

import reference_stages as ref
from repro.dft.coverage import build_fault_universe
from repro.dft.golden import GoldenSignatures
from repro.dft.registry import create_tier
from repro.dft.scan_test import SCAN_CONDITIONS, TOGGLE_THRESHOLD
from repro.link.params import LinkParams

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
