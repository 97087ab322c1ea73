"""The per-run stage memo of :mod:`repro.faults.collapse`.

A campaign run activates a fresh :class:`~repro.faults.collapse.StageMemo`
and each tier stage looks its result up there, keyed by the structural
digest of the circuit it simulates.  Outside a run no memo is active,
so a direct ``detect`` simulates every stage; each Monte-Carlo die runs
under a memo of its own.  Pairs of faults (and dies) below are chosen
for equal digests, so a memo that leaked across runs or dies, or
outside a run, would show as a reused result.
"""

import pytest

from repro.core.profiling import profiled
from repro.dft.coverage import build_fault_universe
from repro.dft.golden import GoldenSignatures
from repro.dft.registry import create_tiers
from repro.faults import CampaignResult, FaultCampaign
from repro.faults.collapse import FaultCollapser, stage_memo, stage_result

COUNTS = ("classes", "collapse_rep_evals", "class_hits")


@pytest.fixture(scope="module")
def goldens():
    return GoldenSignatures()


@pytest.fixture(scope="module")
def termination():
    return [f for f in build_fault_universe() if f.block == "termination"]


@pytest.fixture(scope="module")
def pair(goldens, termination):
    """Two termination faults with one link-context digest."""
    collapser = FaultCollapser(goldens)
    seen = {}
    for fault in termination:
        first = seen.setdefault(collapser.digest(fault, "L"), fault)
        if first is not fault:
            return first, fault
    raise AssertionError("no two termination faults share a link digest")


def _counts(counters):
    snap = counters.snapshot()
    return {name: snap[name] for name in COUNTS}


def _link_static_calls(monkeypatch):
    """Count the link-stage simulations of faulted netlists (each one
    takes its faulted link bench first)."""
    import repro.dft.duts as duts

    calls = []
    original = duts.bench

    def counted(tag, goldens, fault=None, *args):
        if tag == "L" and fault is not None:
            calls.append(fault)
        return original(tag, goldens, fault, *args)

    monkeypatch.setattr(duts, "bench", counted)
    return calls


class TestInactiveOutsideARun:
    def test_direct_detect_simulates_every_fault(self, goldens, pair,
                                                 monkeypatch):
        calls = _link_static_calls(monkeypatch)
        dc, = create_tiers(("dc",), goldens)
        with profiled() as counters:
            for fault in pair:
                dc.detect(fault)
            counts = _counts(counters)
        assert calls == list(pair)
        assert counts == dict.fromkeys(COUNTS, 0)

    def test_the_same_pair_in_a_run_simulates_once(self, goldens, pair,
                                                   monkeypatch):
        calls = _link_static_calls(monkeypatch)
        campaign = FaultCampaign()
        campaign.add_tier(create_tiers(("dc",), goldens)[0])
        with profiled() as counters:
            campaign.run(pair, workers=1)
            counts = _counts(counters)
        assert calls == [pair[0]]
        assert counts["collapse_rep_evals"] == 1
        assert counts["class_hits"] == 1

    def test_monte_carlo_dies_reuse_nothing(self):
        """Dies 0 and 11 of seed 14 draw the same fault: each die's own
        memo meets the fault's class and simulates its stages, so the
        pair counts twice what die 0 alone counts."""
        from repro.variation import MonteCarloCampaign

        with profiled() as counters:
            result = MonteCarloCampaign(seed=14).run([0, 11], workers=1)
            counts = _counts(counters)
        with profiled() as counters:
            MonteCarloCampaign(seed=14).run([0], workers=1)
            alone = _counts(counters)
        assert result.records[0].fault == result.records[1].fault
        assert alone["classes"] == 1
        assert counts == {name: 2 * n for name, n in alone.items()}


class TestFreshMemoPerRun:
    def test_two_runs_read_the_same_counts(self, goldens, termination):
        campaign = FaultCampaign()
        campaign.add_tier(create_tiers(("dc",), goldens)[0])
        runs = []
        for _ in range(2):
            with profiled() as counters:
                result = campaign.run(termination, workers=1)
                runs.append((_counts(counters), result.to_json()))
        assert runs[0] == runs[1]
        assert runs[0][0]["collapse_rep_evals"] > 0
        assert runs[0][0]["class_hits"] > 0


class TestStageResults:
    def test_raising_stage_stores_nothing(self, goldens, pair):
        calls = []

        def failing(fault):
            calls.append(fault)
            raise RuntimeError("stage failed")

        with stage_memo():
            for fault in pair:
                with pytest.raises(RuntimeError, match="stage failed"):
                    stage_result(goldens, "stage", fault, ("L",), failing)
            assert calls == list(pair)
            assert stage_result(goldens, "stage", pair[0], ("L",),
                                lambda fault: "ok") == "ok"
            assert stage_result(goldens, "stage", pair[1], ("L",),
                                failing) == "ok"
        assert calls == list(pair)

    def test_only_the_outermost_lookup_counts(self, goldens, pair):
        """A stage memoized inside another stage's computation reuses
        results but ticks no counter; looked up on its own it does."""
        def inner(fault):
            return stage_result(goldens, "inner", fault, ("L",),
                                lambda f: "measured")

        with profiled() as counters, stage_memo():
            for fault in pair:
                stage_result(goldens, "outer", fault, ("L",), inner,
                             extra="prbs7")
            stage_result(goldens, "outer", pair[1], ("L",), inner,
                         extra="isi")
            stage_result(goldens, "inner", pair[1], ("L",),
                         lambda f: pytest.fail("inner result not reused"))
            counts = _counts(counters)
        assert counts["collapse_rep_evals"] == 2
        assert counts["class_hits"] == 2
        collapser = FaultCollapser(goldens)
        assert counts["classes"] == len({collapser.class_key(f)
                                         for f in pair})

    @pytest.mark.parametrize("device", ["win_hi_MINP", "vcdl_MBN"])
    def test_lock_keys_hold_the_stimulus(self, goldens, device):
        """The ``win_lock`` and ``vcdl_lock`` verdicts of one fault under
        two stimuli are two representative evaluations, not a class hit,
        although every window and VCDL verdict happens to agree across
        the default stimuli."""
        from repro.dft.bist import BISTTest
        from repro.faults import FaultKind

        fault, = [f for f in build_fault_universe() if f.device == device
                  and f.kind is FaultKind.GATE_OPEN]
        with profiled() as counters, stage_memo():
            for pattern in ("prbs7", "isi"):
                BISTTest(goldens, pattern=pattern).at_speed_detect(fault)
            counts = _counts(counters)
        assert counts["collapse_rep_evals"] == 2
        assert counts["class_hits"] == 0

    def test_key_includes_extra_inputs(self, goldens, pair):
        with stage_memo():
            assert stage_result(goldens, "lock", pair[0], ("L",),
                                lambda f: "prbs7", extra="prbs7") == "prbs7"
            assert stage_result(goldens, "lock", pair[1], ("L",),
                                lambda f: "isi", extra="isi") == "isi"
            assert stage_result(goldens, "lock", pair[1], ("L",),
                                lambda f: "again", extra="prbs7") == "prbs7"


class TestPatternCampaignReuse:
    def test_in_process_run_matches_the_per_fault_oracle(self):
        """The sweep's stages reuse results across faults (class hits
        > 0) and its export is the bytes of every fault evaluated with
        no run active."""
        from repro.patterns.campaign import (PatternCampaign,
                                             PatternCampaignResult,
                                             bist_universe)

        by_block = {}
        for fault in bist_universe():
            by_block.setdefault(fault.block, []).append(fault)
        # window faults 1/2 and 7/8 share receiver digests, cp faults
        # 3/4 a knob set, vcdl faults 0..5 hold a shared digest too
        universe = ([by_block["window_comp"][i] for i in (1, 2, 7, 8)]
                    + [by_block["cp"][i] for i in (3, 4)]
                    + by_block["vcdl"][:6])
        sweep = PatternCampaign(patterns=("prbs7", "scrambler"))
        with profiled() as counters:
            run = sweep.run(universe, workers=1)
            counts = _counts(counters)
        assert counts["class_hits"] > 0

        campaign = sweep.build()
        oracle = PatternCampaignResult(
            result=CampaignResult([campaign.evaluate(f) for f in universe],
                                  campaign.tier_names),
            patterns=sweep.patterns, lock_summary=run.lock_summary)
        assert run.to_json() == oracle.to_json()
