"""The toggle transient starts from the link stage's data = 0 solve.

The toggle bench is the full link with clocks on the data sources whose
t = 0 values are those ``apply_data(0)`` sets, so the t = 0 operating
point the transient would solve for itself is the link static stage's
second solve.  When the run's stage memo already holds that stage, the
scan tier passes the solve as ``x0`` and runs no operating point of its
own; otherwise the transient solves its one t = 0 point, never the link
stage's two.  These tests hold the two start points equal, bit for bit,
on the healthy bench and every tx and termination fault of the
universe, nominal and under a Monte-Carlo die's mismatch.
"""

import importlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro.analog import dc_operating_point
from repro.analog.resilience import UnsolvableError
from repro.analog.solver import build_index
from repro.dft import duts
from repro.dft.coverage import build_fault_universe
from repro.dft.golden import GoldenSignatures
from repro.dft.registry import create_tiers
from repro.faults.collapse import stage_memo
from repro.faults.sampling import pick_die_fault
from repro.variation.context import DieContext, activated

# the module, not the function ``repro.analog`` exports under its name
transient_module = importlib.import_module("repro.analog.transient")


@pytest.fixture(scope="module")
def goldens():
    return GoldenSignatures()


def _toggle_operating_point(goldens, fault):
    circuit = duts.bench("T", goldens, fault).circuit
    return circuit, dc_operating_point(circuit).x


def _link_bit0_solve(goldens, fault):
    link = duts.bench("L", goldens, fault)
    return link.circuit, duts.run_link_static(link)[2][1].x


def test_link_bit0_solve_is_the_toggle_operating_point(goldens):
    faults = [f for f in build_fault_universe()
              if f.block in ("tx", "termination")]
    assert len(faults) == 100
    for fault in [None] + faults:
        circuit, want = _toggle_operating_point(goldens, fault)
        link, got = _link_bit0_solve(goldens, fault)
        assert build_index(link) == build_index(circuit), fault
        assert got.tobytes() == want.tobytes(), fault


def _count_operating_points(monkeypatch):
    """Names of the circuits ``transient`` solves a t = 0 point for."""
    solved = []
    original = transient_module.dc_operating_point

    def counted(circuit, *args, **kwargs):
        solved.append(circuit.name)
        return original(circuit, *args, **kwargs)

    monkeypatch.setattr(transient_module, "dc_operating_point", counted)
    return solved


def test_the_toggle_solves_no_operating_point(goldens, monkeypatch):
    """Under one run's memo the scan tier's toggle reads the link stage
    the DC tier left and solves no t = 0 point."""
    dc, scan = create_tiers(("dc", "scan"), goldens)
    fault = next(f for f in build_fault_universe()
                 if f.block == "termination")
    solved = _count_operating_points(monkeypatch)
    with stage_memo():
        dc.detect(fault)
        scan.detect(fault)
    assert solved == []


def _count_link_stages(monkeypatch):
    """Links the link static stage runs on."""
    stages = []
    original = duts.run_link_static

    def counted(link):
        stages.append(link)
        return original(link)

    monkeypatch.setattr(duts, "run_link_static", counted)
    return stages


@pytest.mark.parametrize("memo", [nullcontext, stage_memo],
                         ids=["direct", "scan-only-run"])
def test_without_a_link_stage_the_toggle_solves_its_own_start(
        goldens, monkeypatch, memo):
    """A direct ``detect`` has no memo, and a run without the DC tier
    holds no link stage for a termination fault: the toggle then solves
    its one t = 0 point and never runs the link stage's two solves."""
    scan, = create_tiers(("scan",), goldens)
    fault = next(f for f in build_fault_universe()
                 if f.block == "termination")
    stages = _count_link_stages(monkeypatch)
    solved = _count_operating_points(monkeypatch)
    with memo():
        scan.detect(fault)
    assert stages == []
    assert len(solved) == 1 and solved[0].startswith("toggle_dut")


def test_a_raising_link_stage_leaves_the_start_to_the_transient(
        goldens, monkeypatch):
    """A link static stage that raised stored nothing, so the toggle
    solves its own t = 0 point and reports its own outcome."""
    _, scan = create_tiers(("dc", "scan"), goldens)

    def unsolvable(link):
        raise UnsolvableError("link unsolvable")

    monkeypatch.setattr(duts, "run_link_static", unsolvable)
    solved = _count_operating_points(monkeypatch)
    fault = next(f for f in build_fault_universe()
                 if f.block == "termination")
    with stage_memo():
        with pytest.raises(UnsolvableError):
            duts.link_static(goldens, fault)
        excursion = scan._run_toggle(fault)
    assert len(solved) == 1 and solved[0].startswith("toggle_dut")
    assert np.isfinite(excursion)


@pytest.mark.parametrize("die", [0, 1, 5])
def test_the_start_points_agree_under_a_die_mismatch(goldens, die):
    """The die context caches and retunes the link and toggle benches
    apart; on each die the link's data = 0 solve still is the toggle's
    t = 0 point, healthy and with the die's own fault (seed 2: die 0
    termination, die 5 tx), a tx fault and a termination fault."""
    universe = build_fault_universe()
    nominal = _link_bit0_solve(goldens, None)[1]
    faults = [None, pick_die_fault(universe, 2, die),
              next(f for f in universe if f.block == "tx"),
              next(f for f in universe if f.block == "termination")]
    ctx = DieContext(seed=2)
    with activated(ctx):
        ctx.set_die(die)
        for fault in faults:
            if fault is not None and fault.block not in ("tx",
                                                         "termination"):
                continue
            _circuit, want = _toggle_operating_point(goldens, fault)
            got = _link_bit0_solve(goldens, fault)[1]
            assert got.tobytes() == want.tobytes(), (die, fault)
            if fault is None:
                # the die's mismatch is live: it moves the solve
                assert got.tobytes() != nominal.tobytes()
