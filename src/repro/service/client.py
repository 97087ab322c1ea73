"""Job queue and serve loop: the ``repro submit/serve/status/result``
machinery.

The queue is a plain directory tree under one service root — no
daemon, no sockets, no database — so it composes with the rest of the
repo's artifact discipline (everything is a JSON/JSONL file a test can
open):

.. code-block:: text

    <root>/
      queue/<job>.json     submitted specs, waiting to be claimed
      active/<job>.json    specs a coordinator has claimed (atomic
                           rename out of queue/ — claiming is the
                           rename, so two coordinators cannot run the
                           same job)
      active/<job>.lease   the claim's heartbeat-refreshed lease; a
                           job whose lease expired is presumed crashed
                           and is reclaimed back into queue/
      jobs/<job>.json      status documents (atomically replaced)
      trace/<job>.jsonl    per-job RunTrace event stream
      shards/<digest>/     per-shard JSONL checkpoints + item traces
      store/               the content-addressed ResultStore

Crash recovery is lease-based: :meth:`JobQueue.claim` writes
``active/<job>.lease`` right after the atomic rename, the serve loop
refreshes it from a heartbeat thread while the job runs, and
:meth:`JobQueue.reclaim_expired` (run by every serve iteration) moves
any still-``running``/``queued`` active job whose lease is missing or
expired back into ``queue/`` — so a coordinator SIGKILLed mid-job
never deadlocks the queue; a second (or restarted) coordinator picks
the job up, and the coordinator-level shard resume re-runs only what
the durable checkpoints do not already hold.  A *finished* job's spec
stays in ``active/`` on purpose (``repro result`` resolves it there)
and is never reclaimed.

``repro status`` reads ``jobs/<job>.json`` and, for a running job,
augments it with :func:`~repro.service.coordinator.derive_progress`
over the trace — the ETA is *derived* from the event stream, never
stored, so it cannot go stale.  ``repro result`` resolves the job's
spec digest in the store and re-serializes the artifact with
:func:`format_result`, whose output is byte-identical to the matching
direct CLI export (pinned by the ``service-parity`` guard).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.profiling import COUNTERS
from .coordinator import Coordinator, JobOutcome, derive_progress
from .spec import CampaignSpec
from .store import ResultStore

_QUEUE, _ACTIVE, _JOBS, _TRACE = "queue", "active", "jobs", "trace"

#: default claim lease: generous next to any real shard, small enough
#: that an orphaned job is reclaimed promptly
DEFAULT_LEASE_TTL_S = 30.0


class JobError(ValueError):
    """A job id that cannot be resolved, or a job in the wrong state
    for the requested operation (e.g. ``result`` on a failed job)."""


def format_result(kind: str, result: Dict[str, object]) -> str:
    """Serialize a stored artifact exactly like the direct CLI export.

    ``repro campaign/mc --export`` write ``result.to_json(indent=2)``
    (insertion order, no trailing newline); ``repro patterns
    --no-ber-sweep --export`` writes the result dict plus an empty
    ``ber_sweep`` with ``sort_keys=True`` and a trailing newline.  The
    store round-trips artifacts through JSON, which preserves dict
    order and float repr, so re-dumping here reproduces the direct
    export byte for byte.
    """
    if kind == "patterns":
        payload = dict(result)
        payload["ber_sweep"] = []
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return json.dumps(result, indent=2)


class JobQueue:
    """Directory-backed job queue over one service root."""

    def __init__(self, root: str):
        self.root = str(root)
        for sub in (_QUEUE, _ACTIVE, _JOBS, _TRACE):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        self.store = ResultStore(os.path.join(self.root, "store"))

    # -- paths ---------------------------------------------------------
    def _spec_path(self, state: str, job_id: str) -> str:
        return os.path.join(self.root, state, f"{job_id}.json")

    def status_path(self, job_id: str) -> str:
        return self._spec_path(_JOBS, job_id)

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.root, _TRACE, f"{job_id}.jsonl")

    def lease_path(self, job_id: str) -> str:
        # deliberately not ``.json`` — active/ scans look for specs
        return os.path.join(self.root, _ACTIVE, f"{job_id}.lease")

    # -- submission ----------------------------------------------------
    def submit(self, spec: CampaignSpec) -> str:
        """Enqueue *spec*; returns the new job id.

        Ids are ``<kind>-<digest prefix>`` — human-readable and stable
        for identical work — with a numeric suffix when that id is
        already taken (resubmitting while the original is still
        queued/running, or after it finished, gets a fresh job that
        will simply hit the store).
        """
        base = f"{spec.kind}-{spec.digest()[:10]}"
        job_id, n = base, 1
        while (os.path.exists(self._spec_path(_QUEUE, job_id))
               or os.path.exists(self._spec_path(_ACTIVE, job_id))
               or os.path.exists(self.status_path(job_id))):
            job_id = f"{base}-{n}"
            n += 1
        self._atomic_json(self._spec_path(_QUEUE, job_id),
                          spec.to_dict())
        self.write_status(job_id, {"id": job_id, "kind": spec.kind,
                                   "digest": spec.digest(),
                                   "state": "queued",
                                   "shards": spec.shards})
        return job_id

    # -- claims and leases ---------------------------------------------
    def claim(self, owner: Optional[str] = None,
              lease_ttl_s: float = DEFAULT_LEASE_TTL_S
              ) -> Optional[Tuple[str, CampaignSpec]]:
        """Claim the oldest queued job, or ``None`` when idle.

        Claiming is ``os.replace(queue/x, active/x)`` — atomic on one
        filesystem — so concurrent coordinators polling the same root
        can never both run a job: the loser's rename fails with
        ``FileNotFoundError`` and it moves on.  The winner immediately
        writes the job's lease (``active/<job>.lease``); keep it fresh
        with :meth:`heartbeat` or the claim is up for
        :meth:`reclaim_expired` once ``lease_ttl_s`` elapses.

        A claimed spec that does not parse settles its job as
        ``failed`` (the parse error in its status document), drops the
        lease and moves on to the next queued job.
        """
        qdir = os.path.join(self.root, _QUEUE)
        names = sorted(
            (n for n in os.listdir(qdir) if n.endswith(".json")),
            key=lambda n: os.path.getmtime(os.path.join(qdir, n)))
        for name in names:
            src = os.path.join(qdir, name)
            dst = self._spec_path(_ACTIVE, name[:-5])
            try:
                os.replace(src, dst)
            except FileNotFoundError:
                continue        # another coordinator won the rename
            job_id = name[:-5]
            self.heartbeat(job_id, lease_ttl_s, owner=owner)
            try:
                with open(dst) as fh:
                    spec = CampaignSpec.from_dict(json.load(fh))
            except (ValueError, KeyError, TypeError) as exc:
                self._fail_unparsable(job_id, exc)
                continue
            return job_id, spec
        return None

    def _fail_unparsable(self, job_id: str, exc: Exception) -> None:
        """Settle a claimed job whose spec does not parse as failed."""
        try:
            with open(self.status_path(job_id)) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            doc = {}
        doc.update(id=job_id, state="failed",
                   error=f"invalid spec: {exc}")
        self.write_status(job_id, doc)
        self.release(job_id)

    def heartbeat(self, job_id: str,
                  lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                  owner: Optional[str] = None) -> None:
        """(Re)write the job's lease with a fresh timestamp.

        Atomic (temp + rename), so a reclaim scan never reads a torn
        lease; refreshing strictly extends the claim — the lease
        expires ``lease_ttl_s`` after the *latest* heartbeat.
        """
        self._atomic_json(self.lease_path(job_id), {
            "owner": owner or f"pid-{os.getpid()}",
            "pid": os.getpid(),
            "t": time.time(),
            "ttl_s": float(lease_ttl_s)})

    def release(self, job_id: str) -> None:
        """Drop the job's lease (the job settled; nothing to reclaim)."""
        try:
            os.remove(self.lease_path(job_id))
        except FileNotFoundError:
            pass

    def read_lease(self, job_id: str) -> Optional[Dict[str, object]]:
        """The job's lease document, or ``None`` when absent/garbled.

        Lease writes are atomic, so an unparsable lease is debris (a
        legacy root, a partial copy) and is treated as *no lease* —
        i.e. immediately reclaimable — rather than as a live claim.
        """
        try:
            with open(self.lease_path(job_id)) as fh:
                lease = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(lease, dict):
            return None
        return lease

    def reclaim_expired(self, now: Optional[float] = None) -> List[str]:
        """Requeue active jobs whose lease is missing or expired.

        Only jobs whose status still says ``queued``/``running`` are
        candidates — a finished job's spec lives in ``active/`` by
        design.  Reclaiming is the reverse atomic rename
        (``active/x`` → ``queue/x``), so two scanners racing on one
        stale job cannot both requeue it; the winner rewrites the
        status to ``queued`` with a bumped ``reclaims`` count (crash
        provenance survives in the status doc) and ticks the
        ``service_lease_reclaims`` counter.

        A live-but-stalled owner that out-sleeps its own lease can get
        its job double-run; that is the lease model's tradeoff, and it
        is safe here — shards resume durable checkpoints and the store
        publication is an atomic whole-file rename of byte-identical
        content, so the artifact cannot tear.
        """
        now = time.time() if now is None else now
        reclaimed: List[str] = []
        adir = os.path.join(self.root, _ACTIVE)
        for name in sorted(os.listdir(adir)):
            if not name.endswith(".json"):
                continue
            job_id = name[:-5]
            try:
                with open(self.status_path(job_id)) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError):
                doc = {}
            if doc.get("state") not in ("queued", "running"):
                continue
            lease = self.read_lease(job_id)
            if lease is not None:
                try:
                    fresh = (now - float(lease["t"])
                             <= float(lease["ttl_s"]))
                except (KeyError, TypeError, ValueError):
                    fresh = False
                if fresh:
                    continue
            try:
                os.replace(self._spec_path(_ACTIVE, job_id),
                           self._spec_path(_QUEUE, job_id))
            except FileNotFoundError:
                continue        # a concurrent scanner won
            self.release(job_id)
            COUNTERS.service_lease_reclaims += 1
            doc.update(id=doc.get("id", job_id), state="queued",
                       reclaims=int(doc.get("reclaims", 0)) + 1)
            self.write_status(job_id, doc)
            reclaimed.append(job_id)
        return reclaimed

    # -- status --------------------------------------------------------
    def _atomic_json(self, path: str, payload: Dict[str, object]) -> None:
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2)
        os.replace(tmp, path)

    def write_status(self, job_id: str,
                     payload: Dict[str, object]) -> None:
        self._atomic_json(self.status_path(job_id), payload)

    def status(self, job_id: str) -> Dict[str, object]:
        """The job's status document, with live progress when running."""
        path = self.status_path(job_id)
        if not os.path.exists(path):
            raise JobError(f"unknown job: {job_id}")
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("state") == "running":
            doc["progress"] = derive_progress(self.trace_path(job_id))
        return doc

    def jobs(self) -> Iterator[Dict[str, object]]:
        """Status documents of every known job, oldest first."""
        jdir = os.path.join(self.root, _JOBS)
        names = sorted(
            (n for n in os.listdir(jdir) if n.endswith(".json")),
            key=lambda n: os.path.getmtime(os.path.join(jdir, n)))
        for name in names:
            yield self.status(name[:-5])

    def referenced_digests(self) -> Set[str]:
        """Digests of every job still present in ``queue/``/``active/``.

        This is the reference set ``repro store gc`` refuses to evict:
        a queued job's guaranteed cache hit and a finished job's
        ``repro result`` both resolve through these digests.  Specs
        that cannot be parsed contribute nothing (and cannot pin
        anything).
        """
        digests: Set[str] = set()
        for state in (_QUEUE, _ACTIVE):
            sdir = os.path.join(self.root, state)
            for name in sorted(os.listdir(sdir)):
                if not name.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(sdir, name)) as fh:
                        spec = CampaignSpec.from_dict(json.load(fh))
                except (OSError, ValueError, KeyError, TypeError):
                    continue
                digests.add(spec.digest())
        return digests

    def result(self, job_id: str) -> Tuple[str, Dict[str, object]]:
        """The finished job's ``(kind, artifact)`` from the store."""
        doc = self.status(job_id)
        if doc.get("state") != "done":
            raise JobError(f"job {job_id} is {doc.get('state')!r}, "
                           f"not done")
        spec_path = self._spec_path(_ACTIVE, job_id)
        if not os.path.exists(spec_path):
            raise JobError(f"job {job_id}: spec record is missing")
        with open(spec_path) as fh:
            spec = CampaignSpec.from_dict(json.load(fh))
        entry = self.store.get(spec)
        if entry is None:
            raise JobError(f"job {job_id}: artifact missing from store "
                           f"(digest {spec.digest()})")
        return spec.kind, entry["result"]


def serve(root: str, *, once: bool = False, poll_s: float = 0.2,
          workers: Optional[int] = None,
          shard_timeout: Optional[float] = None,
          max_retries: int = 1,
          shard_retries: int = 1,
          retry_backoff_s: float = 0.25,
          lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
          owner: Optional[str] = None,
          echo=None) -> int:
    """Run the coordinator loop over *root*; returns jobs processed.

    ``once=True`` drains the queue and returns (the guard-suite and
    test mode); otherwise the loop polls every ``poll_s`` seconds until
    interrupted.  Every iteration first sweeps
    :meth:`JobQueue.reclaim_expired`, so a root orphaned by a killed
    serve loop heals as soon as any serve loop looks at it.  Each
    claimed job runs under a heartbeat thread refreshing its lease
    (period ``lease_ttl_s / 3``) and through
    :meth:`Coordinator.run_spec` with its status document updated on
    every settled shard, so a concurrent ``repro status`` always sees
    current progress.
    """
    queue = JobQueue(root)
    coordinator = Coordinator(queue.store, default_workers=workers,
                              shard_timeout=shard_timeout,
                              max_retries=max_retries,
                              shard_retries=shard_retries,
                              retry_backoff_s=retry_backoff_s)
    owner = owner or f"serve-{os.getpid()}"
    processed = 0
    while True:
        for stale in queue.reclaim_expired():
            if echo is not None:
                echo(f"job {stale}: stale lease reclaimed, requeued")
        claimed = queue.claim(owner=owner, lease_ttl_s=lease_ttl_s)
        if claimed is None:
            if once:
                return processed
            time.sleep(poll_s)
            continue
        job_id, spec = claimed
        if echo is not None:
            echo(f"job {job_id}: {spec.kind} x{spec.shards} shard(s)")
        reclaims = 0
        try:
            reclaims = int(queue.status(job_id).get("reclaims", 0))
        except (JobError, ValueError, TypeError):
            pass
        base = {"id": job_id, "kind": spec.kind,
                "digest": spec.digest(), "state": "running",
                "shards": spec.shards}
        if reclaims:
            base["reclaims"] = reclaims
        queue.write_status(job_id, base)

        def on_status(done: int, total: int,
                      eta: Optional[float]) -> None:
            queue.write_status(job_id, dict(
                base, shards_done=done, shards_total=total, eta_s=eta))

        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(queue, job_id, lease_ttl_s, owner, stop),
            daemon=True)
        beat.start()
        try:
            outcome = coordinator.run_spec(
                spec, job_id=job_id,
                shards_dir=os.path.join(queue.root, "shards",
                                        spec.digest()),
                trace_path=queue.trace_path(job_id),
                on_status=on_status)
        finally:
            stop.set()
            beat.join(timeout=max(1.0, lease_ttl_s))
            queue.release(job_id)
        doc = outcome.to_dict()
        if reclaims:
            doc["reclaims"] = reclaims
        queue.write_status(job_id, doc)
        if echo is not None:
            echo(_describe(outcome))
        processed += 1


def _heartbeat_loop(queue: JobQueue, job_id: str, lease_ttl_s: float,
                    owner: str, stop: threading.Event) -> None:
    """Refresh the job's lease until *stop* is set (daemon thread).

    The period is a third of the TTL, so the lease survives a missed
    beat or two; a SIGKILL of the whole process stops the beats and
    the lease then expires on schedule — which is exactly the signal
    :meth:`JobQueue.reclaim_expired` recovers from.
    """
    period = max(0.01, lease_ttl_s / 3.0)
    while not stop.wait(period):
        queue.heartbeat(job_id, lease_ttl_s, owner=owner)


def _describe(outcome: JobOutcome) -> str:
    if outcome.cache_hit:
        return (f"job {outcome.job_id}: done (cache hit, "
                f"0 shards run, {outcome.wall_s:.3f}s)")
    if outcome.state == "done":
        resumed = (f", {outcome.shards_resumed} resumed"
                   if outcome.shards_resumed else "")
        return (f"job {outcome.job_id}: done "
                f"({outcome.shards_run}/{outcome.shards_total} shards "
                f"run{resumed}, {outcome.wall_s:.3f}s)")
    return f"job {outcome.job_id}: FAILED — {outcome.error}"

