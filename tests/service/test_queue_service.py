"""The job queue, serve loop, coordinator and service CLI commands.

Fast paths use a tiny sampled fault campaign; progress/ETA logic is
tested against synthetic traces so no timing races are involved.
"""

import json
import os
import time

import pytest

from repro.core.profiling import COUNTERS
from repro.service import (CampaignSpec, Coordinator, JobQueue,
                           derive_progress, serve)
from repro.service.client import JobError, format_result


def small_spec(**kw):
    kw.setdefault("kind", "campaign")
    kw.setdefault("sample", 6)
    return CampaignSpec(**kw)


class TestDeriveProgress:
    def _trace(self, tmp_path, events):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
        return path

    def test_missing_trace_is_unknown(self, tmp_path):
        p = derive_progress(str(tmp_path / "nope.jsonl"))
        assert p == {"shards_total": 0, "shards_done": 0,
                     "elapsed_s": 0.0, "eta_s": None,
                     "state": "unknown"}

    def test_none_path_is_unknown(self):
        assert derive_progress(None)["state"] == "unknown"

    def test_binary_garbage_is_unknown_not_a_crash(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"\x00\xff\xfe garbage \x80\x81\n\x00")
        p = derive_progress(path)
        assert p["state"] == "unknown"
        assert (p["shards_total"], p["shards_done"]) == (0, 0)

    def test_surviving_events_reported_despite_garbage(self, tmp_path):
        """Torn/corrupt lines are skipped; whatever parses still
        yields progress, with state ok."""
        path = str(tmp_path / "trace.jsonl")
        with open(path, "wb") as fh:
            fh.write(json.dumps(
                {"event": "run_start", "t": 0.0, "items": 4}
            ).encode() + b"\n")
            fh.write(b"\xc3(not json\n")          # invalid utf-8 line
            fh.write(json.dumps(
                {"event": "item_done", "t": 1.0}).encode() + b"\n")
            fh.write(b'{"event": "item_do')       # torn tail
        p = derive_progress(path)
        assert p["state"] == "ok"
        assert (p["shards_total"], p["shards_done"]) == (4, 1)

    def test_non_dict_and_bad_field_events_are_skipped(self, tmp_path):
        path = self._trace(tmp_path, [
            {"event": "run_start", "t": "bogus", "items": "many"},
            {"event": "item_done", "t": 1.0},
        ])
        with open(path, "a") as fh:
            fh.write(json.dumps([1, 2, 3]) + "\n")
        p = derive_progress(path)
        assert p["state"] == "ok"
        assert (p["shards_total"], p["shards_done"]) == (0, 1)

    def test_eta_projected_from_rate(self, tmp_path):
        path = self._trace(tmp_path, [
            {"event": "run_start", "t": 1.0, "items": 4},
            {"event": "item_done", "t": 2.0, "item": 0},
            {"event": "item_done", "t": 3.0, "item": 1},
        ])
        p = derive_progress(path)
        assert (p["shards_total"], p["shards_done"]) == (4, 2)
        assert p["elapsed_s"] == 2.0
        assert p["eta_s"] == pytest.approx(2.0)   # 2 left at 1s each

    def test_no_done_items_means_unknown_eta(self, tmp_path):
        path = self._trace(tmp_path, [
            {"event": "run_start", "t": 0.0, "items": 4},
            {"event": "dispatch", "t": 0.5, "item": 0},
        ])
        assert derive_progress(path)["eta_s"] is None

    def test_finished_run_reports_zero_eta(self, tmp_path):
        path = self._trace(tmp_path, [
            {"event": "run_start", "t": 0.0, "items": 2},
            {"event": "item_done", "t": 1.0},
            {"event": "timeout", "t": 2.0},
        ])
        p = derive_progress(path)
        assert (p["shards_done"], p["eta_s"]) == (2, 0.0)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = self._trace(tmp_path, [
            {"event": "run_start", "t": 0.0, "items": 3},
            {"event": "item_done", "t": 1.0},
        ])
        with open(path, "a") as fh:
            fh.write('{"event": "item_do')       # mid-write
        assert derive_progress(path)["shards_done"] == 1

    def test_latest_run_start_wins(self, tmp_path):
        """A retried job re-opens the trace: progress reflects the
        newest run, not the sum of every attempt."""
        path = self._trace(tmp_path, [
            {"event": "run_start", "t": 0.0, "items": 4},
            {"event": "item_done", "t": 1.0},
            {"event": "run_start", "t": 5.0, "items": 4},
            {"event": "item_done", "t": 6.0},
        ])
        p = derive_progress(path)
        assert p["shards_done"] == 1
        assert p["elapsed_s"] == 1.0


class TestCoordinator:
    def test_sharded_job_then_cache_hit(self, tmp_path):
        from repro.service import ResultStore

        store = ResultStore(str(tmp_path / "store"))
        coordinator = Coordinator(store)
        spec = small_spec(shards=3)
        jobs0 = COUNTERS.service_jobs
        shards0 = COUNTERS.service_shards

        out = coordinator.run_spec(
            spec, shards_dir=str(tmp_path / "shards"),
            trace_path=str(tmp_path / "trace.jsonl"))
        assert out.state == "done" and not out.cache_hit
        assert out.shards_run == 3
        assert COUNTERS.service_jobs - jobs0 == 1
        assert COUNTERS.service_shards - shards0 == 3

        # trace carries the job context and the shard plan
        events = [json.loads(x)
                  for x in open(str(tmp_path / "trace.jsonl"))]
        names = [e["event"] for e in events]
        assert "job_start" in names and "job_end" in names
        assert names.count("shard_plan") == 3
        assert all(e["job"] == out.job_id for e in events
                   if e["event"] != "trace_open")

        # resubmission (different execution knobs): zero shards run
        hits0 = COUNTERS.store_hits
        again = coordinator.run_spec(spec.with_execution(shards=1))
        assert again.cache_hit and again.shards_run == 0
        assert again.result == out.result
        assert COUNTERS.store_hits - hits0 == 1
        assert COUNTERS.service_shards == shards0 + 3  # unchanged

    def test_status_callback_sees_every_shard(self, tmp_path):
        from repro.service import ResultStore

        seen = []
        coordinator = Coordinator(ResultStore(str(tmp_path / "store")))
        coordinator.run_spec(
            small_spec(shards=3), shards_dir=str(tmp_path / "shards"),
            trace_path=str(tmp_path / "trace.jsonl"),
            on_status=lambda done, total, eta: seen.append((done, total)))
        assert len(seen) == 3
        assert seen[-1] == (3, 3)
        assert all(total == 3 for _, total in seen)


class TestJobQueue:
    def test_submit_claim_status(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        job_id = queue.submit(small_spec())
        assert queue.status(job_id)["state"] == "queued"
        claimed = queue.claim()
        assert claimed is not None
        got_id, got_spec = claimed
        assert got_id == job_id and got_spec == small_spec()
        assert queue.claim() is None           # queue drained

    def test_duplicate_submission_gets_fresh_id(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        a = queue.submit(small_spec())
        b = queue.submit(small_spec())
        assert a != b and b.startswith(a)

    def test_unknown_job_is_loud(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        with pytest.raises(JobError, match="unknown job"):
            queue.status("nope")

    def test_result_of_unfinished_job_is_loud(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        job_id = queue.submit(small_spec())
        with pytest.raises(JobError, match="not done"):
            queue.result(job_id)

    def test_serve_once_runs_and_then_hits(self, tmp_path):
        root = str(tmp_path / "svc")
        queue = JobQueue(root)
        first = queue.submit(small_spec(shards=2))
        assert serve(root, once=True) == 1
        doc = queue.status(first)
        assert doc["state"] == "done" and not doc["cache_hit"]
        kind, result = queue.result(first)
        assert kind == "campaign" and len(result["records"]) == 6

        second = queue.submit(small_spec(shards=4))
        assert serve(root, once=True) == 1
        doc = queue.status(second)
        assert doc["cache_hit"] and doc["shards_run"] == 0
        assert queue.result(second)[1] == result

    def test_unparsable_queued_spec_fails_and_serve_goes_on(self,
                                                            tmp_path):
        """A queued spec edited into one that no longer parses settles
        its job as failed (the parse error in its status), keeps no
        lease, is never reclaimed, and serve runs the next job."""
        root = str(tmp_path / "svc")
        queue = JobQueue(root)
        bad = queue.submit(small_spec())
        good = queue.submit(small_spec(seed=7))
        path = os.path.join(root, "queue", f"{bad}.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc["shards"] = 0
        with open(path, "w") as fh:
            json.dump(doc, fh)
        os.utime(path, (1, 1))          # the oldest: claimed first
        assert serve(root, once=True) == 1
        status = queue.status(bad)
        assert status["state"] == "failed"
        assert "shards must be >= 1" in status["error"]
        assert not os.path.exists(queue.lease_path(bad))
        assert queue.status(good)["state"] == "done"
        assert queue.reclaim_expired(now=time.time() + 3600) == []
        assert serve(root, once=True) == 0

    def test_jobs_lists_everything(self, tmp_path):
        root = str(tmp_path / "svc")
        queue = JobQueue(root)
        ids = [queue.submit(small_spec(seed=s)) for s in (1, 2)]
        assert [d["id"] for d in queue.jobs()] == ids


class TestServiceCli:
    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_full_flow_matches_direct_export(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        code, out = self._run(
            capsys, "submit", "campaign", "--sample", "6",
            "--shards", "3", "--root", root)
        assert code == 0
        job_id = out.split()[1]

        code, out = self._run(capsys, "serve", "--root", root, "--once")
        assert code == 0 and "processed 1 job(s)" in out

        service_path = str(tmp_path / "service.json")
        code, _ = self._run(capsys, "result", job_id, "--root", root,
                            "-o", service_path)
        assert code == 0

        direct_path = str(tmp_path / "direct.json")
        code, _ = self._run(capsys, "campaign", "--sample", "6",
                            "--export", direct_path)
        assert code == 0
        assert open(service_path, "rb").read() == \
            open(direct_path, "rb").read()

        code, out = self._run(capsys, "status", "--root", root)
        assert code == 0 and job_id in out and "done" in out

        code, out = self._run(capsys, "status", job_id, "--root", root,
                              "--json")
        assert json.loads(out)["state"] == "done"

    @pytest.mark.parametrize("flags", [["--strict-numerics"],
                                       ["--patterns", ","]])
    def test_submit_refuses_patterns_knobs(self, tmp_path, capsys, flags):
        """The pattern campaign cannot honour these (strict numerics,
        an empty stimulus list), so the spec is refused instead of
        published under a key that promises them."""
        from repro.cli import main

        root = str(tmp_path / "svc")
        assert main(["submit", "patterns", "--root", root, *flags]) == 1
        assert "invalid spec:" in capsys.readouterr().err
        assert not os.path.exists(root)     # nothing was enqueued

    @pytest.mark.parametrize("kind", ["campaign", "mc"])
    def test_submit_refuses_an_empty_tier_list(self, tmp_path, capsys,
                                               kind):
        """``--tiers ,`` names no tier: refused at submit, instead of
        the serve loop running the default three tiers."""
        from repro.cli import main

        root = str(tmp_path / "svc")
        assert main(["submit", kind, "--root", root, "--tiers", ","]) == 1
        assert "invalid spec:" in capsys.readouterr().err
        assert not os.path.exists(root)     # nothing was enqueued

    @pytest.mark.parametrize("argv", [
        ["patterns", "--patterns", "morse"],
        ["patterns", "--patterns", "prbs7,prbs7"],
        ["campaign", "--tiers", "nope"],
        ["campaign", "--tiers", "dc,dc"],
        ["mc", "--tiers", "bist@morse"],
    ], ids=["unknown-pattern", "duplicate-pattern", "unknown-tier",
            "duplicate-tier", "unknown-tier-pattern"])
    def test_submit_refuses_unknown_or_repeated_names(self, tmp_path, capsys,
                                                      argv):
        """Refused at submit with one line: a queued job would only
        die in the serve loop and stay listed as running."""
        from repro.cli import main

        root = str(tmp_path / "svc")
        assert main(["submit", argv[0], "--root", root, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:") and err.count("\n") == 1
        assert not os.path.exists(root)     # nothing was enqueued

    def test_result_of_unknown_job_exits_nonzero(self, tmp_path, capsys):
        code, _ = self._run(capsys, "result", "nope", "--root",
                            str(tmp_path / "svc"))
        assert code == 1

    def test_format_result_patterns_shape(self):
        text = format_result("patterns", {"z": 1, "a": 2})
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["ber_sweep"] == []
        assert list(payload) == ["a", "ber_sweep", "z"]  # sort_keys

    def test_format_result_campaign_preserves_order(self):
        text = format_result("campaign", {"z": 1, "a": 2})
        assert not text.endswith("\n")
        assert list(json.loads(text)) == ["z", "a"]
