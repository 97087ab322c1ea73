"""Each Monte-Carlo die runs under a stage memo of its own.

The DC and scan screens of a healthy die read one ``link_static`` stage
(two link solves, one per data bit), the toggle screen starts from its
data = 0 solve (no t = 0 solve of the toggle bench), and a faulted
link is solved once for the DC and scan tiers.  The memo lives for one
die, so the records of a run are those of a run with no memo at all.
"""

import importlib
from contextlib import nullcontext

import pytest

import repro.variation.campaign as mc_campaign
from repro.dft import duts
from repro.variation import MonteCarloCampaign

# the module, not the function ``repro.analog`` exports under its name
transient_module = importlib.import_module("repro.analog.transient")


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(circuit, *args, **kwargs):
        calls.append(circuit.name)
        return original(circuit, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _link_solves(monkeypatch):
    """Names of the full-link netlists the bench module solves."""
    solved = _count(monkeypatch, duts, "dc_operating_point")
    return lambda: [n for n in solved if n.startswith("full_link")]


def test_healthy_die_solves_the_link_twice_and_no_toggle_start(
        monkeypatch):
    """Seed 1 die 0 carries a window-comparator fault, so every link
    and toggle solve of it belongs to the healthy screens."""
    campaign = MonteCarloCampaign(seed=1)
    link_solves = _link_solves(monkeypatch)
    starts = _count(monkeypatch, transient_module, "dc_operating_point")
    record = campaign.evaluate_die(0)
    assert record.fault.block == "window_comp"
    assert len(link_solves()) == 2
    assert "toggle_dut" not in starts


def test_faulted_link_is_solved_once_for_dc_and_scan(monkeypatch):
    """Seed 2 die 0 carries a termination fault: two healthy and two
    faulted link solves in all."""
    campaign = MonteCarloCampaign(seed=2)
    link_solves = _link_solves(monkeypatch)
    record = campaign.evaluate_die(0)
    assert record.fault.block == "termination"
    assert len(link_solves()) == 4


@pytest.mark.parametrize("seed", [2, 4])
def test_records_equal_a_memo_free_run(monkeypatch, seed):
    """Eight dies (tx and termination faults among them) give the same
    records with and without the per-die memo; without it every toggle
    solves its own t = 0 point, so this also holds the link's start
    point equal to the toggle's own under each die's mismatch."""
    with_memo = MonteCarloCampaign(seed=seed).run(8, workers=1)
    monkeypatch.setattr(mc_campaign, "stage_memo",
                        lambda: nullcontext())
    without = MonteCarloCampaign(seed=seed).run(8, workers=1)
    assert with_memo.to_json() == without.to_json()
