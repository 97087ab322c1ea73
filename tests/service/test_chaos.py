"""Crash resilience: leases, reclaim, shard resume, retry, chaos.

Fast paths exercise the lease/reclaim state machine and the
coordinator's resume/retry logic directly (tiny TTLs, stub jobs, no
timing races on the assertions); one end-to-end case forks a real
serve loop and SIGKILLs it at a seeded breakpoint via the chaos
harness beside this file (``chaos.py``).
"""

import json
import multiprocessing
import os
import time

import pytest
from chaos import (reference_artifact, run_chaos_case, seeded_kill_matrix,
                   stale_lease_demo)

from repro.core.profiling import COUNTERS
from repro.service import (CampaignSpec, Coordinator, JobQueue,
                           ResultStore, serve)
from repro.service.shard import ShardedJob

fork_available = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


def small_spec(**kw):
    kw.setdefault("kind", "campaign")
    kw.setdefault("sample", 6)
    return CampaignSpec(**kw)


class TestLeases:
    def test_claim_writes_a_lease(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        job_id = queue.submit(small_spec())
        queue.claim(owner="me", lease_ttl_s=5.0)
        lease = queue.read_lease(job_id)
        assert lease["owner"] == "me"
        assert lease["ttl_s"] == 5.0
        assert lease["pid"] == os.getpid()

    def test_heartbeat_refreshes_release_removes(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        job_id = queue.submit(small_spec())
        queue.claim(lease_ttl_s=5.0)
        t0 = queue.read_lease(job_id)["t"]
        time.sleep(0.01)
        queue.heartbeat(job_id, 5.0)
        assert queue.read_lease(job_id)["t"] > t0
        queue.release(job_id)
        assert queue.read_lease(job_id) is None

    def test_garbled_lease_reads_as_absent(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        job_id = queue.submit(small_spec())
        queue.claim()
        with open(queue.lease_path(job_id), "w") as fh:
            fh.write("not json {")
        assert queue.read_lease(job_id) is None


class TestReclaim:
    def test_fresh_lease_is_not_reclaimed(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        queue.submit(small_spec())
        queue.claim(lease_ttl_s=60.0)
        assert queue.reclaim_expired() == []

    def test_expired_lease_is_reclaimed(self, tmp_path):
        root = str(tmp_path / "svc")
        queue = JobQueue(root)
        job_id = queue.submit(small_spec())
        queue.claim(owner="crashed", lease_ttl_s=0.02)
        time.sleep(0.05)
        before = COUNTERS.service_lease_reclaims
        other = JobQueue(root)              # a second coordinator
        assert other.reclaim_expired() == [job_id]
        assert COUNTERS.service_lease_reclaims - before == 1
        doc = other.status(job_id)
        assert doc["state"] == "queued"
        assert doc["reclaims"] == 1
        assert other.read_lease(job_id) is None
        # the job is claimable again
        reclaimed = other.claim(owner="rescuer")
        assert reclaimed is not None and reclaimed[0] == job_id

    def test_missing_lease_on_running_job_is_reclaimed(self, tmp_path):
        """Legacy roots (claims from before leases existed) heal too."""
        queue = JobQueue(str(tmp_path / "svc"))
        job_id = queue.submit(small_spec())
        queue.claim(lease_ttl_s=60.0)
        os.remove(queue.lease_path(job_id))
        assert queue.reclaim_expired() == [job_id]

    def test_finished_job_is_never_reclaimed(self, tmp_path):
        """Done/failed jobs keep their spec in active/ (result() reads
        it); an expired lease there means nothing."""
        queue = JobQueue(str(tmp_path / "svc"))
        job_id = queue.submit(small_spec())
        queue.claim(lease_ttl_s=0.02)
        queue.write_status(job_id, {"id": job_id, "state": "done"})
        time.sleep(0.05)
        assert queue.reclaim_expired() == []
        assert os.path.exists(
            os.path.join(queue.root, "active", f"{job_id}.json"))

    def test_reclaim_count_accumulates(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        job_id = queue.submit(small_spec())
        for expected in (1, 2):
            queue.claim(lease_ttl_s=0.01)
            time.sleep(0.03)
            assert queue.reclaim_expired() == [job_id]
            assert queue.status(job_id)["reclaims"] == expected


class TestReferencedDigests:
    def test_queued_and_active_specs_are_referenced(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        a, b = small_spec(seed=1), small_spec(seed=2)
        queue.submit(a)
        queue.submit(b)
        queue.claim()                       # a moves to active/
        assert queue.referenced_digests() == {a.digest(), b.digest()}

    def test_empty_root_references_nothing(self, tmp_path):
        assert JobQueue(str(tmp_path / "svc")).referenced_digests() \
            == set()


class TestShardResume:
    def test_restart_skips_completed_shards(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        shards_dir = str(tmp_path / "shards")
        spec = small_spec(shards=3)
        first = Coordinator(store).run_spec(
            spec, shards_dir=shards_dir,
            trace_path=str(tmp_path / "t1.jsonl"))
        assert first.state == "done" and first.shards_resumed == 0

        # simulate a crash after two shards: drop the published entry
        # and one shard's checkpoint, then run the job again
        os.remove(store.path_for(spec.digest()))
        os.remove(os.path.join(shards_dir, "shard-002.jsonl"))
        resumed0 = COUNTERS.service_shards_resumed
        second = Coordinator(store).run_spec(
            spec, shards_dir=shards_dir,
            trace_path=str(tmp_path / "t2.jsonl"))
        assert second.state == "done"
        assert second.shards_resumed == 2
        assert second.shards_run == 1
        assert COUNTERS.service_shards_resumed - resumed0 == 2
        assert second.result == first.result
        events = [json.loads(x)
                  for x in open(str(tmp_path / "t2.jsonl"))]
        resumes = [e for e in events if e["event"] == "shard_resume"]
        assert len(resumes) == 2
        assert all(e["complete"] for e in resumes)

    def test_record_that_lost_only_its_newline_resumes(self, tmp_path):
        """A shard checkpoint cut to its header plus three records, the
        last without its newline: the resume re-runs the torn record
        and the rest, and the merge reads one clean file."""
        store = ResultStore(str(tmp_path / "store"))
        shards_dir = str(tmp_path / "shards")
        spec = small_spec(tiers=("dc",), shards=1)
        first = Coordinator(store).run_spec(spec, shards_dir=shards_dir)
        os.remove(store.path_for(spec.digest()))
        target = os.path.join(shards_dir, "shard-000.jsonl")
        with open(target, "rb") as fh:
            data = fh.read()
        lines = data.split(b"\n")
        with open(target, "wb") as fh:
            fh.write(b"\n".join(lines[:4]))
        second = Coordinator(store).run_spec(spec, shards_dir=shards_dir)
        assert second.state == "done"
        assert second.shards_run == 1
        assert second.result == first.result
        with open(target, "rb") as fh:
            assert fh.read() == data
        assert not os.path.exists(f"{target}.corrupt")

    def test_corrupt_checkpoint_is_quarantined_and_rerun(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        shards_dir = str(tmp_path / "shards")
        spec = small_spec(shards=2)
        first = Coordinator(store).run_spec(spec, shards_dir=shards_dir)
        os.remove(store.path_for(spec.digest()))

        # corrupt a *mid-file* line: resume must not trust the file
        target = os.path.join(shards_dir, "shard-000.jsonl")
        lines = open(target).read().splitlines(keepends=True)
        assert len(lines) >= 3
        lines[1] = "definitely-not-json\n"
        with open(target, "w") as fh:
            fh.writelines(lines)

        second = Coordinator(store).run_spec(
            spec, shards_dir=shards_dir,
            trace_path=str(tmp_path / "t.jsonl"))
        assert second.state == "done"
        assert second.result == first.result
        assert os.path.exists(f"{target}.corrupt")
        events = [json.loads(x)
                  for x in open(str(tmp_path / "t.jsonl"))]
        assert any(e["event"] == "shard_checkpoint_corrupt"
                   for e in events)


class _FlakyJob(ShardedJob):
    """Stub job: one shard hangs past the timeout until a marker file
    says it already cost an attempt (state must live on disk — retries
    run in freshly forked workers)."""

    def __init__(self, spec, marker_dir, flaky_shard_lo=0,
                 hang_attempts=1):
        self.spec = spec
        self.marker_dir = marker_dir
        self.flaky_shard_lo = flaky_shard_lo
        self.hang_attempts = hang_attempts

    @property
    def items(self):
        return 4

    def run_shard(self, lo, hi, checkpoint, trace=None):
        if lo == self.flaky_shard_lo:
            marker = os.path.join(self.marker_dir, f"attempts-{lo}")
            with open(marker, "a") as fh:
                fh.write("x")
            if os.path.getsize(marker) <= self.hang_attempts:
                time.sleep(60)
        with open(checkpoint, "w") as fh:
            for i in range(lo, hi):
                fh.write(json.dumps({"item": i}) + "\n")

    def completed_items(self, lo, hi, checkpoint):
        try:
            with open(checkpoint) as fh:
                done = {json.loads(x)["item"] for x in fh}
        except OSError:
            return 0
        return sum(1 for i in range(lo, hi) if i in done)

    def merge(self, checkpoints):
        items = []
        for path in checkpoints:
            with open(path) as fh:
                items.extend(json.loads(x)["item"] for x in fh)
        return {"items": sorted(items)}


@fork_available
class TestShardRetry:
    def _coordinator(self, tmp_path, **kw):
        kw.setdefault("shard_timeout", 0.5)
        kw.setdefault("retry_backoff_s", 0.01)
        return Coordinator(ResultStore(str(tmp_path / "store")), **kw)

    def _flaky(self, tmp_path, monkeypatch, hang_attempts):
        marker_dir = str(tmp_path / "markers")
        os.makedirs(marker_dir, exist_ok=True)
        monkeypatch.setattr(
            "repro.service.coordinator.build_job",
            lambda spec: _FlakyJob(spec, marker_dir,
                                   hang_attempts=hang_attempts))

    def test_failed_shard_retried_and_job_succeeds(
            self, tmp_path, monkeypatch):
        self._flaky(tmp_path, monkeypatch, hang_attempts=1)
        retries0 = COUNTERS.service_shard_retries
        out = self._coordinator(tmp_path, shard_retries=2).run_spec(
            small_spec(shards=2),
            shards_dir=str(tmp_path / "shards"),
            trace_path=str(tmp_path / "t.jsonl"))
        assert out.state == "done"
        assert out.result == {"items": [0, 1, 2, 3]}
        assert COUNTERS.service_shard_retries - retries0 == 1
        events = [json.loads(x) for x in open(str(tmp_path / "t.jsonl"))]
        waits = [e for e in events if e["event"] == "shard_retry_wait"]
        assert len(waits) == 1 and waits[0]["attempt"] == 1

    def test_exhausted_retries_escalate_to_failed(
            self, tmp_path, monkeypatch):
        self._flaky(tmp_path, monkeypatch, hang_attempts=99)
        out = self._coordinator(tmp_path, shard_retries=1).run_spec(
            small_spec(shards=2),
            shards_dir=str(tmp_path / "shards"))
        assert out.state == "failed"
        assert out.shards_run == 1          # the healthy shard landed
        assert "timeout" in out.error
        # per-shard provenance: one entry per failed attempt
        assert [f["attempt"] for f in out.shard_failures] == [1, 2]
        assert all(f["shard"] == 0 for f in out.shard_failures)
        assert out.to_dict()["shard_failures"] == out.shard_failures

    def test_retry_resumes_checkpoints_not_rerun(
            self, tmp_path, monkeypatch):
        """The healthy shard finishes in round one; round two must
        dispatch only the failed shard."""
        self._flaky(tmp_path, monkeypatch, hang_attempts=1)
        out = self._coordinator(tmp_path, shard_retries=1).run_spec(
            small_spec(shards=2),
            shards_dir=str(tmp_path / "shards"),
            trace_path=str(tmp_path / "t.jsonl"))
        assert out.state == "done"
        events = [json.loads(x) for x in open(str(tmp_path / "t.jsonl"))]
        waits = [e for e in events if e["event"] == "shard_retry_wait"]
        assert waits[0]["shards"] == [0]


class TestBackoff:
    def test_deterministic_per_digest_and_attempt(self, tmp_path):
        c = Coordinator(ResultStore(str(tmp_path)), retry_backoff_s=0.5)
        assert c.backoff_delay("d1", 1) == c.backoff_delay("d1", 1)
        assert c.backoff_delay("d1", 1) != c.backoff_delay("d2", 1)
        assert c.backoff_delay("d1", 1) != c.backoff_delay("d1", 2)

    def test_exponential_envelope_with_bounded_jitter(self, tmp_path):
        c = Coordinator(ResultStore(str(tmp_path)), retry_backoff_s=1.0)
        for attempt in (1, 2, 3):
            delay = c.backoff_delay("digest", attempt)
            base = 2.0 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base

    def test_validation(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(ValueError):
            Coordinator(store, shard_retries=-1)
        with pytest.raises(ValueError):
            Coordinator(store, retry_backoff_s=-0.1)


@fork_available
class TestChaosHarness:
    """One real kill-and-resume cycle (the full matrix runs in the
    guard suite and nightly via scripts/chaos_smoke.py)."""

    def test_mid_shard_kill_then_resume(self, tmp_path):
        spec = CampaignSpec(kind="campaign", sample=8, shards=2,
                            tiers=("dc", "scan"))
        reference = reference_artifact(str(tmp_path / "ref"), spec)
        point = seeded_kill_matrix(spec)[0]
        assert point.name == "mid_shard"
        case = run_chaos_case(str(tmp_path / "case"), spec, point,
                              reference, lease_ttl_s=0.2)
        assert case.ok, case.to_dict()
        assert case.item_done_total == 8    # zero re-simulated items

    def test_two_coordinator_stale_lease_demo(self, tmp_path):
        spec = CampaignSpec(kind="campaign", sample=6, tiers=("dc",))
        demo = stale_lease_demo(str(tmp_path / "demo"), spec,
                                lease_ttl_s=0.05)
        assert demo["ok"], demo
        assert demo["claimed_by_a"] and demo["reclaimed_by_b"]
        assert demo["final_state"] == "done"


@fork_available
class TestServeLeaseIntegration:
    def test_serve_heartbeats_and_releases(self, tmp_path):
        root = str(tmp_path / "svc")
        queue = JobQueue(root)
        job_id = queue.submit(small_spec(shards=2))
        assert serve(root, once=True, lease_ttl_s=5.0) == 1
        assert queue.status(job_id)["state"] == "done"
        assert queue.read_lease(job_id) is None   # released on settle

    def test_serve_reclaims_before_claiming(self, tmp_path):
        """A serve drain over a root with a stale claim heals it and
        finishes the job in the same pass."""
        root = str(tmp_path / "svc")
        queue = JobQueue(root)
        job_id = queue.submit(small_spec())
        queue.claim(owner="crashed", lease_ttl_s=0.02)
        time.sleep(0.05)
        assert serve(root, once=True) == 1
        doc = queue.status(job_id)
        assert doc["state"] == "done"
        assert doc["reclaims"] == 1
