"""Durability tests for the shared JSONL writer and its consumers.

The checkpoint writers and the run trace used to ``flush()`` only —
data in the kernel page cache survives the process dying, but not
power loss.  These tests pin the fsync contract of
:class:`repro.core.jsonl.DurableJsonlWriter` (on close, and every
``FSYNC_EVERY_LINES`` lines) and the end-to-end regression the bug
motivated: a campaign process killed mid-checkpoint leaves a complete,
durable prefix that a fresh process resumes to the same result as an
uninterrupted run.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.core.jsonl import FSYNC_EVERY_LINES, DurableJsonlWriter
from repro.faults import FaultCampaign, FaultKind, StructuralFault


def F(dev, kind=FaultKind.DRAIN_OPEN, block="cp", role=""):
    return StructuralFault(dev, kind, block, role)


def make_universe(n=12):
    kinds = list(FaultKind)
    return [F(f"d{i}", kinds[i % len(kinds)]) for i in range(n)]


def make_campaign(kill_on=None):
    """Synthetic two-tier campaign; optionally SIGKILLs its own process
    when the ``beta`` tier reaches device *kill_on*."""
    campaign = FaultCampaign()
    campaign.add_tier("alpha", lambda f: f.device in ("d0", "d3"))

    def beta(fault):
        if kill_on is not None and fault.device == kill_on:
            os.kill(os.getpid(), signal.SIGKILL)
        return fault.kind.is_short

    campaign.add_tier("beta", beta)
    return campaign


class TestDurableJsonlWriter:
    def test_lines_round_trip(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        with DurableJsonlWriter(path) as out:
            for i in range(5):
                out.write_line({"i": i})
        lines = [json.loads(x) for x in open(path)]
        assert lines == [{"i": i} for i in range(5)]

    def test_fresh_only_on_empty_file(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        first = DurableJsonlWriter(path)
        assert first.fresh
        first.write_line({"header": True})
        first.close()
        second = DurableJsonlWriter(path)
        assert not second.fresh        # append mode: header stays
        second.close()
        assert sum(1 for _ in open(path)) == 1

    def test_fsync_every_k_lines_and_on_close(self, tmp_path, monkeypatch):
        """The durability barrier fires every K lines and once more on
        close when lines are pending — never per line."""
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr("repro.core.jsonl.os.fsync",
                            lambda fd: (calls.append(fd), real_fsync(fd)))
        out = DurableJsonlWriter(str(tmp_path / "out.jsonl"))
        n = 2 * FSYNC_EVERY_LINES + 3
        for i in range(n):
            out.write_line({"i": i})
        assert len(calls) == 2          # at lines K and 2K only
        out.close()
        assert len(calls) == 3          # the 3 pending lines sync on close
        out.close()                     # idempotent, no extra barrier
        assert len(calls) == 3

    def test_no_double_sync_when_close_lands_on_boundary(self, tmp_path,
                                                         monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr("repro.core.jsonl.os.fsync",
                            lambda fd: (calls.append(fd), real_fsync(fd)))
        out = DurableJsonlWriter(str(tmp_path / "out.jsonl"),
                                 fsync_every=4)
        for i in range(8):
            out.write_line({"i": i})
        out.close()
        assert len(calls) == 2

    def test_append_after_a_torn_line_starts_a_new_line(self, tmp_path):
        """No append ever starts on an unterminated line: a reopened
        writer ends the torn line first, so both survive as lines."""
        path = str(tmp_path / "out.jsonl")
        with open(path, "w") as fh:
            fh.write('{"i": 0}\n{"i": 1}')          # lost its newline
        with DurableJsonlWriter(path) as out:
            assert not out.fresh
            out.write_line({"i": 2})
        assert [json.loads(x) for x in open(path)] == \
            [{"i": 0}, {"i": 1}, {"i": 2}]

    def test_reopened_trace_keeps_its_first_event(self, tmp_path):
        """A RunTrace reopened after a torn tail used to glue its
        ``trace_open`` event onto the fragment, losing it."""
        from repro.core.jsonl import read_events
        from repro.core.supervisor import RunTrace

        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path) as trace:
            trace.emit("step", i=0)
        with open(path, "a") as fh:
            fh.write('{"event": "st')                # torn mid-line
        with RunTrace(path) as trace:
            trace.emit("step", i=1)
        assert [e["event"] for e in read_events(path)] == \
            ["trace_open", "step", "trace_open", "step"]

    def test_rejects_nonpositive_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            DurableJsonlWriter(str(tmp_path / "out.jsonl"), fsync_every=0)


class TestCheckpointKillResume:
    def test_killed_campaign_resumes_to_uninterrupted_result(self, tmp_path):
        """The regression the fsync bug motivated: SIGKILL a campaign
        process mid-checkpoint, then resume in a fresh process — the
        checkpoint prefix must be complete and the resumed result must
        equal an uninterrupted run's."""
        path = str(tmp_path / "ckpt.jsonl")
        universe = make_universe()

        def crash():
            make_campaign(kill_on="d7").run(universe, checkpoint=path)

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=crash)
        proc.start()
        proc.join(30)
        assert proc.exitcode == -signal.SIGKILL

        # complete prefix: header + the records settled before the kill
        lines = [json.loads(x) for x in open(path)]
        assert lines[0]["format"].startswith("repro-campaign-checkpoint")
        settled = {rec["fault"]["device"] for rec in lines[1:]}
        assert settled == {f"d{i}" for i in range(7)}

        resumed = make_campaign().run(universe, checkpoint=path)
        direct = make_campaign().run(universe)
        assert resumed.records == direct.records
        assert resumed.to_json() == direct.to_json()

    def test_trace_survives_kill_with_parseable_lines(self, tmp_path):
        """RunTrace rides the same writer: a killed process leaves a
        parseable event stream (no torn line before the last flush)."""
        trace_path = str(tmp_path / "trace.jsonl")

        def crash():
            from repro.core.supervisor import RunTrace

            trace = RunTrace(trace_path, context={"job": "j1"})
            for i in range(5):
                trace.emit("step", i=i)
            os.kill(os.getpid(), signal.SIGKILL)

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=crash)
        proc.start()
        proc.join(30)
        assert proc.exitcode == -signal.SIGKILL
        events = [json.loads(x) for x in open(trace_path)]
        assert [e["event"] for e in events] == \
            ["trace_open"] + ["step"] * 5
        assert all(e["job"] == "j1" for e in events[1:])
