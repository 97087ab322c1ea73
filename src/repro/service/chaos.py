"""Chaos harness: SIGKILL a serve loop at seeded breakpoints, prove
the resume loses nothing.

The crash-resilience claims of the service layer are testable only if
crashes are *reproducible*, so this harness does not rely on timing:
it arms a :mod:`repro.core.failpoints` hook at a named chaos seam
(``supervisor.pre_evaluate``, ``jsonl.pre_line`` / ``jsonl.post_line``
on shard checkpoints, ``store.pre_replace``), forks a child that runs
one ``serve(once=True)`` drain, and has the child ``SIGKILL`` *itself*
at the N-th matching event — the same spec and kill point always die
at the same byte.  The parent then waits out the claim lease, resumes
with a fresh serve over the same root, and checks the recovery
contract:

* the resumed job finishes ``done`` and its artifact is
  **byte-identical** to an uninterrupted reference run of the same
  spec (compared via :func:`~repro.service.client.format_result`);
* **zero completed items were re-simulated**: shard item traces are
  append-only across the kill, so the total ``item_done`` count over
  both runs must equal the item count — except the torn-checkpoint
  kill, where exactly one item's durable record was destroyed and
  exactly one legitimate re-run is expected;
* the store holds **exactly one valid entry** for the spec, even when
  the kill landed between the entry's fsync and its publishing rename;
* the stale lease was reclaimed (the status document's ``reclaims``
  provenance survives to the final state).

Kill points are *seeded*: :func:`seeded_kill_matrix` derives each
point's trigger occurrence from ``blake2b(spec digest, seed, name)``,
so a matrix run covers varying positions (first item of a shard, deep
inside one, the boundary between shards) while any single case stays
bit-reproducible.  ``scripts/chaos_smoke.py`` runs the matrix plus the
two-coordinator stale-lease demo and fails loudly on any violated
contract.

The harness runs the victim serve loop strictly serial (one process,
no shard workers, no timeouts) so the armed SIGKILL takes down the
whole coordinator — which is the crash being modelled.  Worker-level
deaths are the *supervisor's* department and are chaos-tested by its
own suite.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import failpoints
from ..core.jsonl import read_events
from .client import JobQueue, format_result, serve
from .spec import CampaignSpec

#: a chaos case must finish (kill + lease wait + resume) within this
#: budget; beyond it the harness declares the case wedged
CASE_TIMEOUT_S = 300.0


@dataclass(frozen=True)
class KillPoint:
    """One seeded crash: die at the *nth* matching *site* event.

    ``tear=True`` additionally appends an unterminated JSON prefix to
    the checkpoint before dying, modelling a write torn mid-line (the
    one crash shape that legitimately costs a single item re-run —
    ``expected_extra_items`` says how many re-runs the contract
    allows).
    """

    name: str
    site: str
    nth: int = 1
    tear: bool = False
    expected_extra_items: int = 0


#: the canonical kill matrix: one point per distinct crash window.
#: ``nth`` values here are placeholders — :func:`seeded_kill_matrix`
#: re-derives them from the spec digest.
KILL_MATRIX: Tuple[KillPoint, ...] = (
    # mid-shard: between two item evaluations (some items durable,
    # the current one not started)
    KillPoint("mid_shard", "supervisor.pre_evaluate", nth=3),
    # between checkpoint lines: the just-finished item is durable,
    # nothing is in flight
    KillPoint("post_checkpoint_line", "jsonl.post_line", nth=2),
    # mid checkpoint write: the line tears, destroying the finished
    # item's durable record — exactly one re-run is legitimate
    KillPoint("torn_checkpoint_line", "jsonl.pre_line", nth=2,
              tear=True, expected_extra_items=1),
    # mid store publish: every shard durable, temp entry fsynced,
    # rename never happened
    KillPoint("pre_store_replace", "store.pre_replace", nth=1),
)


def seeded_kill_matrix(spec: CampaignSpec,
                       seed: int = 0) -> List[KillPoint]:
    """The kill matrix with trigger occurrences derived from *spec*.

    Each point's ``nth`` comes from ``blake2b(digest:seed:name)``
    folded into a small range, so different specs (and different
    ``seed`` values) crash at different positions while any one
    ``(spec, seed, point)`` is exactly reproducible.  The ranges
    assume the job evaluates at least 8 items — keep chaos specs at or
    above that.
    """
    digest = spec.digest()
    points: List[KillPoint] = []
    for base in KILL_MATRIX:
        h = int.from_bytes(
            blake2b(f"{digest}:{seed}:{base.name}".encode(),
                    digest_size=4).digest(), "big")
        if base.site == "store.pre_replace":
            nth = 1                      # the publish happens once
        else:
            nth = 2 + h % 4
        points.append(replace(base, nth=nth))
    return points


def _is_checkpoint_event(context: Mapping[str, object]) -> bool:
    """True for a jsonl event on a shard checkpoint *record* line.

    Filters out the job/shard RunTrace streams (``*.trace.jsonl`` and
    ``trace/<job>.jsonl``) and checkpoint header lines (their payload
    carries a ``format`` field) — the kill matrix aims at durable
    item records specifically.
    """
    name = os.path.basename(str(context.get("path", "")))
    if not (name.startswith("shard-") and name.endswith(".jsonl")):
        return False
    if ".trace." in name:
        return False
    payload = context.get("payload")
    if isinstance(payload, Mapping) and "format" in payload:
        return False
    return True


def arm_kill(point: KillPoint) -> None:
    """Arm *point*: the current process SIGKILLs itself at the match.

    Call in the forked victim only — the armed hook is process-local
    state and is inherited by (serial) execution inside the victim.
    """
    state = {"count": 0}

    def hook(**context: object) -> None:
        if (point.site.startswith("jsonl.")
                and not _is_checkpoint_event(context)):
            return
        state["count"] += 1
        if state["count"] < point.nth:
            return
        if point.tear:
            # model a write torn mid-line: an unterminated JSON
            # prefix lands after the flushed lines, then the process
            # dies before finishing it
            with open(str(context["path"]), "a") as fh:
                fh.write('{"torn":')
                fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    failpoints.arm(point.site, hook)


@dataclass
class ChaosCaseReport:
    """Outcome of one kill-and-resume case against the contract."""

    point: str
    nth: int
    job_id: str = ""
    killed_by_sigkill: bool = False
    reclaimed: bool = False
    final_state: str = ""
    bytes_identical: bool = False
    items: int = 0
    item_done_total: int = 0
    expected_item_done: int = 0
    store_entries: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.killed_by_sigkill and self.reclaimed
                and self.final_state == "done" and self.bytes_identical
                and self.item_done_total == self.expected_item_done
                and self.store_entries == 1)

    def to_dict(self) -> Dict[str, object]:
        return {"point": self.point, "nth": self.nth, "ok": self.ok,
                "job_id": self.job_id,
                "killed_by_sigkill": self.killed_by_sigkill,
                "reclaimed": self.reclaimed,
                "final_state": self.final_state,
                "bytes_identical": self.bytes_identical,
                "items": self.items,
                "item_done_total": self.item_done_total,
                "expected_item_done": self.expected_item_done,
                "store_entries": self.store_entries,
                "detail": self.detail}


@dataclass
class ChaosReport:
    """A full kill-matrix sweep plus the stale-lease reclaim demo."""

    spec_digest: str
    seed: int
    cases: List[ChaosCaseReport] = field(default_factory=list)
    reclaim_demo: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (all(case.ok for case in self.cases)
                and bool(self.reclaim_demo.get("ok")))

    def to_dict(self) -> Dict[str, object]:
        return {"spec_digest": self.spec_digest, "seed": self.seed,
                "ok": self.ok,
                "cases": [case.to_dict() for case in self.cases],
                "reclaim_demo": dict(self.reclaim_demo)}


def _serve_victim(root: str, point: KillPoint,
                  lease_ttl_s: float) -> Tuple[int, int]:
    """Fork a serve drain armed with *point*; returns ``(pid, status)``
    after the child exits (by the armed SIGKILL if the harness works).
    """
    pid = os.fork()
    if pid == 0:
        try:
            arm_kill(point)
            serve(root, once=True, workers=1, lease_ttl_s=lease_ttl_s,
                  owner=f"chaos-victim-{os.getpid()}", poll_s=0.01)
        finally:
            # reached only if the kill point never fired
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    return pid, status


def _wait_lease_expiry(queue: JobQueue, job_id: str,
                       deadline: float) -> None:
    while time.monotonic() < deadline:
        lease = queue.read_lease(job_id)
        if lease is None:
            return
        try:
            if time.time() - float(lease["t"]) > float(lease["ttl_s"]):
                return
        except (KeyError, TypeError, ValueError):
            return
        time.sleep(0.02)


def _count_item_done(shards_dir: str) -> int:
    """Total ``item_done`` events across the job's shard item traces.

    The traces are append-only across kill/resume, so this is the
    number of item evaluations *ever completed* for the job — the
    zero-rerun proof compares it against the item count.
    """
    if not os.path.isdir(shards_dir):
        return 0
    total = 0
    for name in sorted(os.listdir(shards_dir)):
        if name.startswith("shard-") and name.endswith(".trace.jsonl"):
            events = read_events(os.path.join(shards_dir, name))
            total += sum(e.get("event") == "item_done" for e in events)
    return total


def _job_items(trace_path: str) -> int:
    """The job's item count, read from its ``job_start`` trace event."""
    items = 0
    for event in read_events(trace_path):
        if event.get("event") == "job_start":
            try:
                items = int(event.get("items", 0))
            except (TypeError, ValueError):
                pass
    return items


def run_chaos_case(root: str, spec: CampaignSpec, point: KillPoint,
                   reference: bytes,
                   lease_ttl_s: float = 0.25) -> ChaosCaseReport:
    """One kill-and-resume cycle over a fresh service *root*.

    Submits *spec*, lets an armed victim serve loop die at *point*,
    waits out the lease, resumes with a clean serve, and audits the
    recovery contract against the *reference* artifact bytes.
    """
    report = ChaosCaseReport(point=point.name, nth=point.nth)
    deadline = time.monotonic() + CASE_TIMEOUT_S
    queue = JobQueue(root)
    report.job_id = queue.submit(spec)

    _pid, status = _serve_victim(root, point, lease_ttl_s)
    report.killed_by_sigkill = (os.WIFSIGNALED(status)
                                and os.WTERMSIG(status)
                                == signal.SIGKILL)
    if not report.killed_by_sigkill:
        report.detail = (f"victim exited status {status:#x} without "
                         f"hitting the kill point")
        return report

    _wait_lease_expiry(queue, report.job_id, deadline)
    serve(root, once=True, workers=1, lease_ttl_s=lease_ttl_s,
          owner="chaos-resume", poll_s=0.01)

    doc = queue.status(report.job_id)
    report.final_state = str(doc.get("state", ""))
    report.reclaimed = int(doc.get("reclaims", 0) or 0) >= 1
    report.items = _job_items(queue.trace_path(report.job_id))
    report.expected_item_done = (report.items
                                 + point.expected_extra_items)
    report.item_done_total = _count_item_done(
        os.path.join(root, "shards", spec.digest()))
    report.store_entries = len(list(queue.store.entries()))
    if report.final_state == "done":
        kind, result = queue.result(report.job_id)
        report.bytes_identical = (
            format_result(kind, result).encode() == reference)
    else:
        report.detail = str(doc.get("error", ""))
    return report


def reference_artifact(root: str, spec: CampaignSpec) -> bytes:
    """The uninterrupted run's artifact bytes (the parity baseline)."""
    queue = JobQueue(root)
    job_id = queue.submit(spec)
    serve(root, once=True, workers=1, poll_s=0.01)
    kind, result = queue.result(job_id)
    return format_result(kind, result).encode()


def stale_lease_demo(root: str, spec: CampaignSpec,
                     lease_ttl_s: float = 0.05) -> Dict[str, object]:
    """Two coordinators, one root: the second reclaims a stale claim.

    Coordinator A claims the job and "crashes" (never heartbeats,
    never runs); once the lease ages out, coordinator B's
    :meth:`~repro.service.client.JobQueue.reclaim_expired` sweep
    requeues the job, B claims it, and a normal serve drain finishes
    it — the queue cannot deadlock on a dead claimant.
    """
    queue_a, queue_b = JobQueue(root), JobQueue(root)
    job_id = queue_a.submit(spec)
    claimed_a = queue_a.claim(owner="coordinator-a",
                              lease_ttl_s=lease_ttl_s)
    deadline = time.monotonic() + CASE_TIMEOUT_S
    _wait_lease_expiry(queue_b, job_id, deadline)
    reclaimed = queue_b.reclaim_expired()
    claimed_b = queue_b.claim(owner="coordinator-b",
                              lease_ttl_s=lease_ttl_s)
    # hand the claim back so the serve drain below can re-claim it
    if claimed_b is not None:
        os.replace(os.path.join(root, "active",
                                f"{claimed_b[0]}.json"),
                   os.path.join(root, "queue", f"{claimed_b[0]}.json"))
        queue_b.release(claimed_b[0])
    serve(root, once=True, workers=1, poll_s=0.01)
    final = queue_b.status(job_id)
    return {"job_id": job_id,
            "claimed_by_a": bool(claimed_a)
            and claimed_a[0] == job_id,
            "reclaimed_by_b": job_id in reclaimed,
            "reclaimed_jobs": list(reclaimed),
            "claimed_by_b": bool(claimed_b)
            and claimed_b[0] == job_id,
            "final_state": final.get("state"),
            "reclaims": final.get("reclaims", 0),
            "ok": bool(claimed_a) and job_id in reclaimed
            and bool(claimed_b) and final.get("state") == "done"}


def run_kill_matrix(base_dir: str, spec: CampaignSpec,
                    seed: int = 0,
                    points: Optional[Sequence[KillPoint]] = None,
                    lease_ttl_s: float = 0.25,
                    echo=None) -> ChaosReport:
    """The full sweep: reference run, every kill point, reclaim demo.

    Each case gets a fresh service root under *base_dir* so crashes
    cannot contaminate each other; the reference artifact is produced
    once and shared.  Returns the aggregate :class:`ChaosReport`
    (``.ok`` is the overall verdict).
    """
    points = (seeded_kill_matrix(spec, seed)
              if points is None else list(points))
    report = ChaosReport(spec_digest=spec.digest(), seed=seed)
    reference = reference_artifact(
        os.path.join(base_dir, "reference"), spec)
    for point in points:
        if echo is not None:
            echo(f"chaos: {point.name} (kill at occurrence "
                 f"{point.nth})")
        case = run_chaos_case(
            os.path.join(base_dir, point.name), spec, point,
            reference, lease_ttl_s=lease_ttl_s)
        report.cases.append(case)
        if echo is not None:
            echo(f"chaos: {point.name}: "
                 f"{'ok' if case.ok else 'FAILED ' + case.detail}")
    report.reclaim_demo = stale_lease_demo(
        os.path.join(base_dir, "reclaim-demo"), spec)
    if echo is not None:
        demo_ok = report.reclaim_demo.get("ok")
        echo(f"chaos: stale-lease demo: "
             f"{'ok' if demo_ok else 'FAILED'}")
    return report
