"""End-to-end Monte-Carlo campaign guarantees.

The expensive reproducibility claims (worker-count invariance,
checkpoint resume, screen behaviour under zero and absurd mismatch) on
deliberately small die counts — the properties are per-die, so a small
population exercises them fully.
"""


import json
import multiprocessing
import os
import time

import pytest

from repro.dft.coverage import build_fault_universe
from repro.faults.sampling import pick_die_fault
from repro.variation import MismatchModel, MonteCarloCampaign
from repro.variation.campaign import DieRecord, MCResult

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="fork start method required")


@pytest.fixture(scope="module")
def universe():
    return build_fault_universe()


class TestPickDieFault:
    def test_deterministic_and_in_universe(self, universe):
        a = [pick_die_fault(universe, 7, i) for i in range(20)]
        b = [pick_die_fault(universe, 7, i) for i in range(20)]
        assert a == b
        assert all(f in universe for f in a)

    def test_seed_and_die_both_matter(self, universe):
        picks = {pick_die_fault(universe, 7, i) for i in range(30)}
        assert len(picks) > 1          # not stuck on one fault
        assert (pick_die_fault(universe, 7, 0)
                != pick_die_fault(universe, 8, 0)
                or pick_die_fault(universe, 7, 1)
                != pick_die_fault(universe, 8, 1))

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            pick_die_fault([], 7, 0)


class TestScreens:
    def test_zero_sigma_die_passes_every_screen(self):
        mc = MonteCarloCampaign(seed=7, model=MismatchModel(
            sigma_vt=0.0, sigma_kp_rel=0.0))
        rec = mc.evaluate_die(0)
        assert rec.healthy_pass
        assert rec.errors == []

    def test_absurd_sigma_fails_dc_screen(self):
        """A 300 mV V_T sigma must push DC observables off the goldens —
        proof the die transform actually reaches the netlists."""
        mc = MonteCarloCampaign(tiers=("dc",), seed=7,
                                model=MismatchModel(sigma_vt=0.3))
        fails = [not mc.evaluate_die(i).healthy["dc"] for i in range(4)]
        assert any(fails)

    def test_die_record_is_order_independent(self):
        """Evaluating a die cold equals evaluating it after others."""
        mc1 = MonteCarloCampaign(tiers=("dc",), seed=7)
        for i in range(3):
            mc1.evaluate_die(i)
        warm = mc1.evaluate_die(3)
        cold = MonteCarloCampaign(tiers=("dc",), seed=7).evaluate_die(3)
        assert warm == cold


class TestRunParity:
    def test_workers_do_not_change_the_result(self):
        mc = MonteCarloCampaign(seed=7)
        serial = mc.run(3)
        parallel = MonteCarloCampaign(seed=7).run(3, workers=2)
        assert serial.to_json(indent=2) == parallel.to_json(indent=2)

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path):
        ck = str(tmp_path / "mc.jsonl")
        # "interrupt" after 3 of 6 dies, then resume the full run
        MonteCarloCampaign(tiers=("dc",), seed=7).run(3, checkpoint=ck)
        with open(ck) as fh:
            assert len(fh.readlines()) == 4          # header + 3 records
        resumed = MonteCarloCampaign(tiers=("dc",), seed=7).run(
            6, checkpoint=ck, workers=2)
        fresh = MonteCarloCampaign(tiers=("dc",), seed=7).run(6)
        assert resumed.to_json(indent=2) == fresh.to_json(indent=2)

    def test_checkpoint_config_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "mc.jsonl")
        MonteCarloCampaign(tiers=("dc",), seed=7).run(1, checkpoint=ck)
        with pytest.raises(ValueError, match="config"):
            MonteCarloCampaign(tiers=("dc",), seed=8).run(1, checkpoint=ck)

    def test_checkpoint_truncated_tail_is_discarded(self, tmp_path):
        ck = str(tmp_path / "mc.jsonl")
        MonteCarloCampaign(tiers=("dc",), seed=7).run(2, checkpoint=ck)
        with open(ck) as fh:
            lines = fh.readlines()
        with open(ck, "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])    # torn write
        resumed = MonteCarloCampaign(tiers=("dc",), seed=7).run(
            2, checkpoint=ck)
        fresh = MonteCarloCampaign(tiers=("dc",), seed=7).run(2)
        assert resumed.to_json() == fresh.to_json()

    def test_record_that_lost_only_its_newline_is_rerun(self, tmp_path):
        """A final die record missing just its newline is torn: it is
        re-run, and the next append starts on a line of its own — the
        load after that must not see a glued, corrupt line."""
        ck = str(tmp_path / "mc.jsonl")
        MonteCarloCampaign(tiers=("dc",), seed=7).run(2, checkpoint=ck)
        with open(ck, "rb") as fh:
            data = fh.read()
        with open(ck, "wb") as fh:
            fh.write(data[:-1])
        resumed = MonteCarloCampaign(tiers=("dc",), seed=7).run(
            3, checkpoint=ck)
        again = MonteCarloCampaign(tiers=("dc",), seed=7).run(
            3, checkpoint=ck)
        fresh = MonteCarloCampaign(tiers=("dc",), seed=7).run(3)
        assert resumed.to_json() == again.to_json() == fresh.to_json()
        with open(ck, "rb") as fh:
            assert fh.read().startswith(data)

    def test_progress_reports_resumed_base(self, tmp_path):
        ck = str(tmp_path / "mc.jsonl")
        MonteCarloCampaign(tiers=("dc",), seed=7).run(2, checkpoint=ck)
        calls = []
        MonteCarloCampaign(tiers=("dc",), seed=7).run(
            4, checkpoint=ck, progress=lambda i, n: calls.append((i, n)))
        assert calls == [(3, 4), (4, 4)]

    def test_checkpoint_corrupted_middle_line_raises(self, tmp_path):
        """A malformed line *before* valid records is mid-file
        corruption — resuming would drop the later records and append
        duplicates, so the run must refuse."""
        ck = str(tmp_path / "mc.jsonl")
        MonteCarloCampaign(tiers=("dc",), seed=7).run(3, checkpoint=ck)
        with open(ck) as fh:
            lines = fh.readlines()
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        with open(ck, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError, match="corrupted"):
            MonteCarloCampaign(tiers=("dc",), seed=7).run(
                3, checkpoint=ck)
        with open(ck) as fh:
            assert fh.readlines() == lines      # untouched, no appends

    def test_torn_tail_is_physically_truncated(self, tmp_path):
        """The discarded torn tail must leave the file, so the resumed
        run's append lands on a clean boundary instead of gluing onto
        the fragment (which lost both records)."""
        ck = str(tmp_path / "mc.jsonl")
        MonteCarloCampaign(tiers=("dc",), seed=7).run(3, checkpoint=ck)
        with open(ck) as fh:
            lines = fh.readlines()
        with open(ck, "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])
        MonteCarloCampaign(tiers=("dc",), seed=7).run(3, checkpoint=ck)
        with open(ck) as fh:
            dies = [json.loads(line)["die"]
                    for line in fh.readlines()[1:]]
        assert sorted(dies) == [0, 1, 2]


class _PoisonedMC(MonteCarloCampaign):
    """Cheap synthetic die evaluation with designated hang/kill dies.

    Exercises the supervision path through the real ``run`` machinery
    (checkpoints, fallback records, trace) without paying for actual
    tier simulations per die."""

    def __init__(self, hang=(), kill=(), **kwargs):
        super().__init__(tiers=("dc",), seed=7, **kwargs)
        self.hang_dies = frozenset(hang)
        self.kill_dies = frozenset(kill)

    def evaluate_die(self, die_index):
        if die_index in self.hang_dies:
            time.sleep(120)
        if die_index in self.kill_dies:
            os._exit(1)
        fault = pick_die_fault(self.universe, self.seed, die_index)
        return DieRecord(die=die_index, fault=fault,
                         healthy={"dc": True},
                         detected={"dc": die_index % 2 == 0})


@needs_fork
class TestSupervisedMC:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_poisoned_population_completes(self, workers):
        mc = _PoisonedMC(hang=[3], kill=[5])
        result = mc.run(8, workers=workers, timeout=1.5)
        assert result.total == 8
        by_die = {r.die: r for r in result.records}
        assert by_die[3].outcome == "timeout"
        assert by_die[5].outcome == "quarantined"
        assert result.outcome_counts() == {"ok": 6, "timeout": 1,
                                           "quarantined": 1}
        assert {r.die for r in result.unevaluated()} == {3, 5}
        # conservative in both directions: screens failed, nothing hit
        for die in (3, 5):
            assert not by_die[die].healthy_pass
            assert by_die[die].escaped

    def test_healthy_dies_identical_to_unpoisoned_run(self):
        poisoned = _PoisonedMC(hang=[3], kill=[5]).run(
            8, workers=4, timeout=1.5)
        clean = _PoisonedMC().run(8)
        for bad, ref in zip(poisoned.records, clean.records):
            if bad.die in (3, 5):
                continue
            assert json.dumps(bad.to_dict()) == json.dumps(ref.to_dict())

    def test_outcomes_round_trip_and_render(self):
        from repro.variation.report import format_mc_report

        result = _PoisonedMC(hang=[3], kill=[5]).run(
            8, workers=4, timeout=1.5)
        back = MCResult.from_json(result.to_json())
        assert back.records == result.records
        assert back.outcome_counts() == result.outcome_counts()
        report = format_mc_report(back)
        assert "supervisor:" in report
        assert "1 die(s) quarantined" in report
        assert "1 die(s) timeout" in report

    def test_trace_and_checkpoint_capture_bad_dies(self, tmp_path):
        trace = str(tmp_path / "mc.trace.jsonl")
        ck = str(tmp_path / "mc.ckpt")
        _PoisonedMC(hang=[3], kill=[5]).run(
            8, workers=4, timeout=1.5, checkpoint=ck, trace=trace)
        events = [json.loads(line) for line in open(trace)]
        names = [e["event"] for e in events]
        for expected in ("run_start", "timeout", "quarantine",
                         "checkpoint_write", "run_end"):
            assert expected in names
        # resume skips even the poison dies: their outcome records are
        # checkpointed, so the rerun never hangs or forks again
        resumed = _PoisonedMC(hang=[3], kill=[5]).run(8, checkpoint=ck)
        assert resumed.outcome_counts() == {"ok": 6, "timeout": 1,
                                            "quarantined": 1}


class TestContextHygiene:
    def test_campaign_leaves_nominal_flows_untouched(self):
        """After a campaign, the undecorated world still sees nominal
        netlists (the context deactivates, builders pass through)."""
        from repro.circuits.full_link import build_full_link
        from repro.dft.golden import GoldenSignatures

        before = build_full_link().run_dc_test()
        mc = MonteCarloCampaign(tiers=("dc",), seed=7,
                                model=MismatchModel(sigma_vt=0.3))
        mc.run(2)
        after = build_full_link().run_dc_test()
        assert after == before == GoldenSignatures().dc_link
