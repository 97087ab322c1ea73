"""The local coordinator: store lookup, shard dispatch, merge, publish.

One :meth:`Coordinator.run_spec` call is one job:

1. **store lookup** — a spec whose content address is already
   published is served from the :class:`~repro.service.store.ResultStore`
   with zero simulations (``store_hits`` ticks, the job reports
   ``cache_hit``);
2. **resume scan** — every per-shard JSONL checkpoint that survived a
   previous (crashed or killed) attempt is re-read
   (:meth:`~repro.service.shard.ShardedJob.completed_items`): shards
   whose checkpoint already covers their whole ``[lo, hi)`` range are
   marked resumed and never dispatched, partial shards are dispatched
   and resume their own checkpoint in-run, and a corrupt checkpoint is
   quarantined aside (``<name>.corrupt``) so its shard restarts clean
   — zero completed items are ever re-simulated, and the merged
   artifact is byte-identical to an uninterrupted run;
3. **shard dispatch** — the unfinished ranges run through the PR-4
   supervisor (:func:`repro.core.supervisor.run_supervised`), so
   per-shard timeouts, crash isolation with bounded retries and
   graceful serial degradation carry over; shards the supervisor gives
   up on are re-dispatched in further rounds under exponential backoff
   with *deterministic* jitter (seeded from the spec digest, so a
   rerun of the same job waits the same schedule), and only when
   ``shard_retries`` rounds are exhausted does the job escalate to a
   first-class ``"failed"`` state carrying per-shard failure
   provenance;
4. **merge-on-read** — every shard checkpoint is re-read and merged
   into one artifact, byte-identical to an unsharded run;
5. **publish** — the artifact is written to the store under the spec's
   content address (atomic, durable), making the next identical
   submission a hit.

Every job streams shard-level events to a per-job
:class:`~repro.core.supervisor.RunTrace` (``job_start``,
``shard_plan``, ``shard_resume``, the supervisor's ``dispatch`` /
``item_done`` per shard, ``shard_retry_wait``, ``cache_hit``,
``job_end``), each shard additionally streams its *item*-level events
to ``shard-NNN.trace.jsonl`` next to its checkpoint (the chaos
harness counts those ``item_done`` events to prove a resumed job
re-simulates nothing), and :func:`derive_progress` turns the job
stream into the done/total/ETA numbers ``repro status`` reports — the
trace file is the single source of progress truth.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .._profiling import COUNTERS
from ..core.jsonl import read_events
from ..core.supervisor import (RunTrace, SupervisorPolicy, run_supervised)
from .shard import build_job, shard_ranges
from .spec import CampaignSpec
from .store import ResultStore

#: status callback: (shards_done, shards_total, eta_seconds or None)
StatusCallback = Callable[[int, int, Optional[float]], None]


@dataclass
class JobOutcome:
    """What one coordinated job settled to."""

    job_id: str
    digest: str
    kind: str
    state: str                       # "done" | "failed"
    cache_hit: bool = False
    shards_total: int = 0
    shards_run: int = 0
    shards_resumed: int = 0
    wall_s: float = 0.0
    error: Optional[str] = None
    #: per-shard failure provenance on a failed job: one entry per
    #: attempt the supervisor gave up on, ``{"shard", "attempt",
    #: "outcome", "detail"}``
    shard_failures: List[Dict[str, object]] = field(default_factory=list)
    result: Optional[Dict[str, object]] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """Status-file form (the artifact itself stays in the store)."""
        doc: Dict[str, object] = {
            "id": self.job_id, "digest": self.digest,
            "kind": self.kind, "state": self.state,
            "cache_hit": self.cache_hit,
            "shards_total": self.shards_total,
            "shards_run": self.shards_run,
            "shards_resumed": self.shards_resumed,
            "wall_s": round(self.wall_s, 3), "error": self.error}
        if self.shard_failures:
            doc["shard_failures"] = list(self.shard_failures)
        return doc


def derive_progress(trace_path: Optional[str]) -> Dict[str, object]:
    """Progress numbers from a job's RunTrace event stream.

    Reads the JSONL trace, finds the latest ``run_start``, counts the
    ``item_done`` / ``timeout`` / ``quarantine`` events after it, and
    projects the remaining wall time from the observed completion
    rate: ``eta_s = elapsed * remaining / done``.  With no completed
    shard yet the ETA is unknown (``None``).

    This function **never raises**: a status poll races a live (or
    freshly killed) serve loop, so the trace may be missing, mid-write,
    torn at any byte, or outright garbage.  It reads through
    :func:`~repro.core.jsonl.read_events`, and the report carries a
    ``state`` field — ``"ok"`` when events were recovered,
    ``"unknown"`` when the file is missing, unreadable, or held no
    parsable event — instead of an exception ever reaching
    ``repro status``.
    """
    items = done = 0
    t_start = t_last = 0.0
    events = read_events(trace_path) if trace_path is not None else []
    for event in events:
        name = event.get("event")
        try:
            t = float(event.get("t", 0.0))
        except (TypeError, ValueError):
            t = t_last
        t_last = max(t_last, t)
        if name == "run_start":
            try:
                items = int(event.get("items", 0))
            except (TypeError, ValueError):
                items = 0
            done = 0
            t_start = t
        elif name in ("item_done", "timeout", "quarantine"):
            done += 1
    elapsed = max(0.0, t_last - t_start)
    remaining = max(0, items - done)
    eta = (elapsed * remaining / done) if done and remaining else (
        0.0 if items and not remaining else None)
    return {"shards_total": items, "shards_done": done,
            "elapsed_s": round(elapsed, 3),
            "eta_s": None if eta is None else round(eta, 3),
            "state": "ok" if events else "unknown"}


def shard_trace_path(checkpoint: str) -> str:
    """The item-level RunTrace file riding next to a shard checkpoint."""
    base, _ext = os.path.splitext(checkpoint)
    return f"{base}.trace.jsonl"


class Coordinator:
    """Runs campaign specs against a result store, shard by shard.

    ``max_retries`` is the supervisor's *within-round* budget (a shard
    whose worker died is re-dispatched to a fresh worker immediately);
    ``shard_retries`` / ``retry_backoff_s`` govern the coordinator's
    *between-round* recovery: shards the supervisor gave up on
    (quarantined, timed out) are retried in up to ``shard_retries``
    further rounds, each preceded by an exponential-backoff wait with
    deterministic jitter seeded from the spec digest — a retried shard
    resumes its durable checkpoint, so each round only pays for the
    items the previous ones did not finish.
    """

    def __init__(self, store: ResultStore,
                 default_workers: Optional[int] = None,
                 shard_timeout: Optional[float] = None,
                 max_retries: int = 1,
                 shard_retries: int = 1,
                 retry_backoff_s: float = 0.25):
        if shard_retries < 0:
            raise ValueError("shard_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.store = store
        self.default_workers = default_workers
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.shard_retries = shard_retries
        self.retry_backoff_s = retry_backoff_s

    # ------------------------------------------------------------------
    def backoff_delay(self, digest: str, attempt: int) -> float:
        """Seconds to wait before retry round *attempt* (1-based).

        Exponential base doubling per round, scaled by a jitter factor
        in ``[0.5, 1.5)`` drawn deterministically from
        ``blake2b(digest:attempt)`` — concurrent coordinators retrying
        *different* jobs de-synchronise, while a rerun of the *same*
        job reproduces the same wait schedule (the chaos harness
        depends on that determinism).
        """
        h = hashlib.blake2b(f"{digest}:{attempt}".encode(),
                            digest_size=8).digest()
        jitter = int.from_bytes(h, "big") / 2.0 ** 64
        return self.retry_backoff_s * (2.0 ** (attempt - 1)) * (0.5 + jitter)

    # ------------------------------------------------------------------
    def run_spec(self, spec: CampaignSpec,
                 job_id: Optional[str] = None,
                 shards_dir: Optional[str] = None,
                 trace_path: Optional[str] = None,
                 on_status: Optional[StatusCallback] = None) -> JobOutcome:
        """Execute (or serve from cache) one spec; returns the outcome.

        ``shards_dir`` receives the per-shard JSONL checkpoints and
        item-level traces; re-running a crashed or failed job with the
        same directory resumes its completed shards and items.
        ``trace_path`` receives the job's run-event stream;
        ``on_status`` is called after every settled shard with
        ``(done, total, eta_s)``.
        """
        COUNTERS.service_jobs += 1
        job_id = job_id or f"{spec.kind}-{spec.digest()[:10]}"
        digest = spec.digest()
        t0 = time.monotonic()
        with ExitStack() as stack:
            trace: Optional[RunTrace] = None
            if trace_path is not None:
                trace = stack.enter_context(
                    RunTrace(trace_path, context={"job": job_id}))

            cached = self.store.get(spec)
            if cached is not None:
                if trace is not None:
                    trace.emit("cache_hit", digest=digest)
                return JobOutcome(
                    job_id=job_id, digest=digest, kind=spec.kind,
                    state="done", cache_hit=True,
                    wall_s=time.monotonic() - t0,
                    result=cached["result"])

            job = build_job(spec)
            ranges = shard_ranges(job.items, spec.shards)
            if shards_dir is None:
                shards_dir = os.path.join(self.store.root, "shards",
                                          digest)
            os.makedirs(shards_dir, exist_ok=True)
            checkpoints = [os.path.join(shards_dir,
                                        f"shard-{i:03d}.jsonl")
                           for i in range(len(ranges))]
            if trace is not None:
                trace.emit("job_start", kind=spec.kind, digest=digest,
                           items=job.items, shards=len(ranges))
                for i, (lo, hi) in enumerate(ranges):
                    trace.emit("shard_plan", shard=i, lo=lo, hi=hi,
                               checkpoint=os.path.basename(
                                   checkpoints[i]))

            pending = self._resume_scan(job, ranges, checkpoints, trace)
            resumed = len(ranges) - len(pending)
            COUNTERS.service_shards += len(pending)
            COUNTERS.service_shards_resumed += resumed

            outcome = self._run_shards(spec, job, ranges, checkpoints,
                                       pending, resumed, trace,
                                       trace_path, on_status)
            if outcome is not None:        # a shard failed for good
                outcome.job_id, outcome.digest = job_id, digest
                outcome.wall_s = time.monotonic() - t0
                if trace is not None:
                    trace.emit("job_end", state=outcome.state,
                               error=outcome.error)
                return outcome

            artifact = job.merge(checkpoints)
            wall = time.monotonic() - t0
            self.store.put(spec, artifact,
                           meta={"job": job_id, "shards": len(ranges),
                                 "wall_s": round(wall, 3)})
            if trace is not None:
                trace.emit("job_end", state="done", digest=digest,
                           shards=len(ranges), resumed=resumed)
            return JobOutcome(job_id=job_id, digest=digest,
                              kind=spec.kind, state="done",
                              shards_total=len(ranges),
                              shards_run=len(pending),
                              shards_resumed=resumed, wall_s=wall,
                              result=artifact)

    # ------------------------------------------------------------------
    def _resume_scan(self, job, ranges: List[Tuple[int, int]],
                     checkpoints: List[str],
                     trace: Optional[RunTrace]) -> List[int]:
        """Shard indices that still need dispatching.

        Reads each surviving shard checkpoint and counts its durable
        records: a fully covered range is *resumed* (skipped — its
        checkpoint feeds the merge untouched), a partial one is
        dispatched (the shard's own in-run resume then skips the
        finished items), and a corrupt checkpoint is moved aside to
        ``<name>.corrupt`` so the shard restarts from scratch rather
        than wedging the job forever.
        """
        pending: List[int] = []
        for i, (lo, hi) in enumerate(ranges):
            size = hi - lo
            try:
                done = job.completed_items(lo, hi, checkpoints[i])
            except ValueError as exc:
                quarantine = f"{checkpoints[i]}.corrupt"
                os.replace(checkpoints[i], quarantine)
                if trace is not None:
                    trace.emit("shard_checkpoint_corrupt", shard=i,
                               moved_to=os.path.basename(quarantine),
                               error=str(exc))
                done = 0
            if done and trace is not None:
                trace.emit("shard_resume", shard=i, done=done,
                           items=size, complete=done >= size)
            if done < size:
                pending.append(i)
        return pending

    # ------------------------------------------------------------------
    def _run_shards(self, spec: CampaignSpec, job,
                    ranges: List[Tuple[int, int]],
                    checkpoints: List[str],
                    pending: List[int],
                    resumed: int,
                    trace: Optional[RunTrace],
                    trace_path: Optional[str],
                    on_status: Optional[StatusCallback]
                    ) -> Optional[JobOutcome]:
        """Dispatch the pending shards, retrying failed ones with
        backoff.

        Returns ``None`` on full success, or a failed
        :class:`JobOutcome` carrying every attempt the supervisor gave
        up on (quarantined / timed out) — a partial merge would
        silently deflate coverage, so an incomplete shard set fails
        the job, but only after ``shard_retries`` backoff rounds (each
        retry resumes the shard's checkpoint, so progress made before
        a failure is never repeated).
        """
        digest = spec.digest()
        completed: set = set()

        def evaluate(i: int) -> Dict[str, object]:
            lo, hi = ranges[i]
            job.run_shard(lo, hi, checkpoints[i],
                          trace=shard_trace_path(checkpoints[i]))
            return {"shard": i, "items": hi - lo, "ok": True}

        def fallback(i: int, outcome: str, detail: str
                     ) -> Dict[str, object]:
            return {"shard": i, "ok": False, "outcome": outcome,
                    "detail": detail}

        def on_record(index: int, item: int, rec, outcome: str) -> None:
            if rec and rec.get("ok"):
                completed.add(item)
            if on_status is not None:
                progress = (derive_progress(trace_path)
                            if trace_path is not None else {})
                on_status(resumed + len(completed), len(ranges),
                          progress.get("eta_s"))

        workers = spec.workers or self.default_workers or 1
        failures: List[Dict[str, object]] = []
        remaining = list(pending)
        attempt = 0
        while remaining:
            if attempt > 0:
                delay = self.backoff_delay(digest, attempt)
                COUNTERS.service_shard_retries += 1
                if trace is not None:
                    trace.emit("shard_retry_wait", attempt=attempt,
                               delay_s=round(delay, 6),
                               shards=list(remaining))
                time.sleep(delay)
            results = run_supervised(
                remaining, evaluate,
                workers=min(workers, len(remaining)),
                policy=SupervisorPolicy(timeout=self.shard_timeout,
                                        max_retries=self.max_retries),
                fallback=fallback, on_record=on_record, trace=trace)
            failed = [r for r in results if not (r and r.get("ok"))]
            for r in failed:
                if r:
                    failures.append({"shard": r.get("shard"),
                                     "attempt": attempt + 1,
                                     "outcome": r.get("outcome", "?"),
                                     "detail": r.get("detail", "")})
            remaining = sorted(r["shard"] for r in failed
                               if r and r.get("shard") is not None)
            if not failed:
                break
            if len(remaining) != len(failed):
                # a lost worker left no shard attribution: retrying
                # would re-dispatch an unknown index, so fail now
                break
            attempt += 1
            if attempt > self.shard_retries:
                break
        if remaining or failures and not completed >= set(pending):
            still = remaining or sorted(
                set(pending) - completed)
            detail = "; ".join(
                f"shard {f['shard']}: {f['outcome']} "
                f"(attempt {f['attempt']}: {f['detail']})"
                for f in failures) or "shard worker lost"
            return JobOutcome(job_id="", digest="", kind=spec.kind,
                              state="failed",
                              shards_total=len(ranges),
                              shards_run=len(pending) - len(still),
                              shards_resumed=resumed,
                              error=detail,
                              shard_failures=failures)
        return None
