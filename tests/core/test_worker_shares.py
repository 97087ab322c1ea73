"""Campaigns on every CPU: the default worker count, key-ordered worker
shares, counters that come home from forked workers, and checkpoints
that a forked run leaves in item order.

* ``workers=None`` resolves to the CPUs this process may run on, and to
  1 with one CPU, without fork, or inside a supervised worker; a
  service shard's campaign spawns no process.
* With two or more workers each worker owns one contiguous share of the
  items in key order; an idle worker takes the last item of the longest
  share; a respawned worker takes over the share of the one it
  replaces; records come back in item order.
* Each forked item's counter deltas are added in the parent and written
  on its ``item_done`` event.
* A forked run's checkpoint is byte-identical to a one-worker run's; an
  interrupted one keeps its append-only file and resumes from it.
"""

import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.core import supervisor
from repro.core.jsonl import JsonlCheckpoint, read_events
from repro.core.profiling import COUNTERS, profiled
from repro.core.supervisor import (ITEM_COUNTERS, RunTrace,
                                   SupervisorError, SupervisorPolicy,
                                   _Supervision, default_workers,
                                   resolve_workers, run_checkpointed,
                                   run_supervised)
from repro.faults import FaultCampaign, FaultKind, StructuralFault
from repro.service.shard import ShardedJob

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required")


def fallback(item, outcome, detail):
    return {"item": item, "outcome": outcome}


def faults(n):
    kinds = list(FaultKind)
    return [StructuralFault(f"d{i}", kinds[i % len(kinds)], "cp", "")
            for i in range(n)]


class TestDefaultWorkers:
    def test_every_cpu_of_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert default_workers() == 3
        assert resolve_workers(None, 10) == 3
        assert resolve_workers(None, 2) == 2     # clamped to the items

    def test_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert resolve_workers(None, 10) == 1

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_workers() == 6

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert default_workers() == 1

    def test_one_inside_a_supervised_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "parent_process",
                            lambda: object())
        assert default_workers() == 1

    @needs_fork
    def test_a_forked_worker_resolves_to_one(self):
        assert run_supervised([0, 1], lambda i: default_workers(),
                              workers=2, fallback=fallback) == [1, 1]

    def test_explicit_counts_are_clamped(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(0, 5) == 1
        assert resolve_workers(None, 0) == 1

    def test_a_shards_campaign_spawns_no_process(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(supervisor, "default_workers", lambda: 4)
        campaign = FaultCampaign()
        campaign.add_tier("alpha", lambda f: f.device in ("d0", "d3"))
        job = ShardedJob()
        job.campaign, job.axis = campaign, faults(6)
        job.keys = [f.key() for f in job.axis]
        trace = str(tmp_path / "shard.trace.jsonl")
        with profiled() as counters:
            job.run_shard(1, 5, str(tmp_path / "shard.ckpt"), trace=trace)
        assert counters.supervisor_spawns == 0
        start = [e for e in read_events(trace) if e["event"] == "run_start"]
        assert [(e["mode"], e["workers"]) for e in start] == [("serial", 1)]


class TestShares:
    @staticmethod
    def supervision(items, workers, key=None):
        return _Supervision(items, lambda i: i, workers, SupervisorPolicy(),
                            fallback, None, None, key)

    def test_contiguous_in_key_order(self):
        items = [7, 3, 9, 0, 5, 8, 1, 6, 2, 4]
        run = self.supervision(items, 3, key=lambda i: i)
        shares = [[items[i] for i in share] for share in run.shares]
        assert shares == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_one_worker_or_no_key_keeps_item_order(self):
        items = [7, 3, 9, 0]
        assert [list(s) for s in
                self.supervision(items, 1, key=lambda i: i).shares] == \
            [[0, 1, 2, 3]]
        assert [list(s) for s in self.supervision(items, 2).shares] == \
            [[0, 1], [2, 3]]

    def test_an_idle_worker_takes_the_last_item_of_the_longest_share(self):
        run = self.supervision(list(range(9)), 3)
        run.shares = [deque(), deque([3, 4]), deque([5, 6, 7])]
        assert run._take(0) == 7
        assert run._take(1) == 3            # its own share first
        assert run._take(0) in (4, 6)       # a tie: both hold one
        run.shares = [deque(), deque(), deque()]
        assert run._take(2) is None

    @needs_fork
    def test_a_respawned_worker_takes_over_the_share(self, tmp_path):
        """Item 0 kills its first worker.  The replacement, in the same
        slot, retries it and works through the rest of that share, then
        takes the last item of the other (slow) share; the other worker
        keeps the front of its own share.  Records come back in item
        order."""
        marker = tmp_path / "died"

        def evaluate(i):
            if i == 0 and not marker.exists():
                marker.write_text("once")
                os._exit(9)
            if i >= 3:
                time.sleep(0.6)
            return (i, os.getpid())

        items = list(range(6))
        path = str(tmp_path / "run.trace.jsonl")
        with RunTrace(path) as trace:
            out = run_supervised(items, evaluate, workers=2,
                                 policy=SupervisorPolicy(max_retries=1),
                                 fallback=fallback, trace=trace,
                                 key=lambda i: i)
        assert [i for i, _ in out] == items
        pid = dict(out)
        deaths = [e for e in read_events(path)
                  if e["event"] == "worker_death"]
        assert [e["item"] for e in deaths] == [0]
        replacement, other = pid[0], pid[3]
        assert deaths[0]["pid"] not in (replacement, other)
        assert [i for i in items if pid[i] == replacement] == [0, 1, 2, 5]
        assert [i for i in items if pid[i] == other] == [3, 4]


@dataclass(frozen=True)
class Rec:
    item: int
    value: int

    def to_dict(self):
        return {"item": self.item, "value": self.value}

    @classmethod
    def from_dict(cls, data):
        return cls(data["item"], data["value"])


CHECKPOINTS = JsonlCheckpoint({"format": "test-shares"}, Rec.from_dict,
                              lambda rec: rec.item)


def run_items(items, evaluate, path, workers, trace=None):
    return run_checkpointed(
        items, evaluate, key=lambda i: i, label=lambda i: {"i": i},
        fallback=lambda i, outcome, detail: Rec(i, -1),
        checkpoints=CHECKPOINTS, checkpoint=path, workers=workers,
        trace=trace)


def square(i):
    time.sleep(0.01)
    return Rec(i, i * i)


@needs_fork
class TestCheckpointOrder:
    def test_a_forked_run_leaves_a_one_worker_runs_bytes(self, tmp_path):
        """Keys run against item order, so the two shares settle
        interleaved, from opposite ends of the item list; the file is
        rewritten in item order once all have settled."""
        items = list(range(9, -1, -1))
        one, two = str(tmp_path / "w1.ckpt"), str(tmp_path / "w2.ckpt")
        trace = str(tmp_path / "w2.trace.jsonl")
        assert run_items(items, square, one, 1) == \
            run_items(items, square, two, 2, trace) == \
            [Rec(i, i * i) for i in items]
        settled = [e["i"] for e in read_events(trace)
                   if e["event"] == "checkpoint_write"]
        assert settled != items              # appended out of item order
        with open(one, "rb") as a, open(two, "rb") as b:
            assert a.read() == b.read()
        assert sorted(os.listdir(tmp_path)) == ["w1.ckpt", "w2.ckpt",
                                                "w2.trace.jsonl"]

    def test_an_interrupted_run_keeps_its_appended_lines(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        trace = str(tmp_path / "run.trace.jsonl")

        def crash_at_3(i):
            if i == 3:
                time.sleep(0.2)
                raise RuntimeError("evaluate bug")
            return square(i)

        items = list(range(8))
        with pytest.raises(SupervisorError, match="evaluate bug"):
            run_items(items, crash_at_3, path, 2, trace)
        with open(path, "rb") as fh:
            interrupted = fh.read()
        lines = [json.loads(line) for line in interrupted.splitlines()]
        settled = [e["i"] for e in read_events(trace)
                   if e["event"] == "checkpoint_write"]
        assert [rec["item"] for rec in lines[1:]] == settled
        assert {0, 1, 2} <= set(settled) and 3 not in settled

        assert run_items(items, square, path, 2) == \
            [Rec(i, i * i) for i in items]
        with open(path, "rb") as fh:
            resumed = fh.read()
        assert resumed.startswith(interrupted)
        rest = [json.loads(line)["item"]
                for line in resumed[len(interrupted):].splitlines()]
        assert rest == [i for i in items if i not in settled]


def bumps(fault):
    """The counters a fault's evaluation moves, by its device number."""
    n = int(fault.device[1:])
    return {"newton_iterations": 10 + n, "lu_factor": 2 * n,
            "class_hits": n % 2, "mc_dies": 1}


def counting_campaign():
    def detect(fault):
        for name, value in bumps(fault).items():
            setattr(COUNTERS, name, getattr(COUNTERS, name) + value)
        return fault.device.endswith("3")

    campaign = FaultCampaign()
    campaign.add_tier("alpha", detect)
    return campaign


@needs_fork
class TestCountersComeHome:
    def test_forked_items_add_their_counters_and_trace_them(self, tmp_path):
        universe = faults(9)
        path = str(tmp_path / "run.trace.jsonl")
        with profiled() as counters:
            counting_campaign().run(universe, workers=2, trace=path)
        assert counters.campaign_faults == len(universe)
        assert counters.supervisor_spawns == 2
        for name in ("newton_iterations", "lu_factor", "class_hits",
                     "mc_dies"):
            assert getattr(counters, name) == \
                sum(bumps(f)[name] for f in universe), name
        done = {e["item"]: e for e in read_events(path)
                if e["event"] == "item_done"}
        assert sorted(done) == list(range(len(universe)))
        for item, event in done.items():
            want = bumps(universe[item])
            assert {k: event[k] for k in ITEM_COUNTERS} == \
                {k: want[k] for k in ITEM_COUNTERS}

    def test_in_process_items_trace_the_same_fields(self, tmp_path):
        universe = faults(4)
        path = str(tmp_path / "run.trace.jsonl")
        counting_campaign().run(universe, workers=1, trace=path)
        done = [e for e in read_events(path) if e["event"] == "item_done"]
        assert [e["newton_iterations"] for e in done] == \
            [bumps(f)["newton_iterations"] for f in universe]


def campaign_counts(args):
    with profiled() as counters:
        assert main(["campaign", "--sample", "8", "--seed", "5", *args]) == 0
    return counters.newton_iterations, counters.lu_factor


@needs_fork
class TestRealCampaigns:
    def test_exports_and_checkpoints_match_for_every_count(self, tmp_path,
                                                           capsys):
        files = {}
        for label, flags in (("1", ["--workers", "1"]),
                             ("2", ["--workers", "2"]),
                             ("4", ["--workers", "4"]),
                             ("default", [])):
            export = tmp_path / f"w{label}.json"
            ckpt = tmp_path / f"w{label}.ckpt"
            assert main(["campaign", "--sample", "24", *flags,
                         "--export", str(export),
                         "--resume", str(ckpt)]) == 0
            files[label] = (export.read_bytes(), ckpt.read_bytes())
        capsys.readouterr()
        assert files["2"] == files["1"]
        assert files["4"] == files["1"]
        assert files["default"] == files["1"]

    def test_a_supervised_worker_counts_what_the_process_counts(self,
                                                                capsys):
        """One worker under a timeout evaluates in item order with one
        stage memo, so its counters, sent home, are the in-process
        run's exactly."""
        in_process = campaign_counts(["--workers", "1"])
        supervised = campaign_counts(["--workers", "1", "--timeout", "600"])
        capsys.readouterr()
        assert in_process[0] > 0
        assert supervised == in_process
