"""Supervised campaign execution: timeouts, crash isolation, quarantine.

The paper's coverage numbers come from running *every* structural fault
through the full tier pipeline, so a single pathological fault must not
be able to lose an hours-long campaign.  Two failure modes matter:

* a **hang** — a non-converging Newton/synchronizer loop that never
  returns (arXiv:1510.04241 shows the lock loop can fail to converge
  under injected faults);
* a **crash** — a worker process dying outright (segfault in a native
  kernel, the OOM killer, an ``os._exit`` deep in a solver).

``concurrent.futures.ProcessPoolExecutor`` offers neither isolation: a
hung future blocks forever, and one dead worker raises
``BrokenProcessPool`` for the *whole* pool, aborting every in-flight
item.  This module replaces the shared pool with a per-worker
supervisor:

* each worker is its own forked :class:`multiprocessing.Process` with a
  private duplex pipe, dispatched **one item at a time**, so the
  supervisor always knows which item each worker is executing;
* each worker owns one contiguous share of the items in key order (a
  fault campaign's keys lead with the device), so the faults of one
  device meet in one worker's stage memo; a worker whose share is done
  takes the last item of the longest share left;
* each item's counter deltas travel back with its record and are added
  to this process's :data:`~repro.core.profiling.COUNTERS`;
* an item that exceeds its wall-clock budget gets its worker killed and
  is recorded as a ``timeout`` outcome — the campaign continues;
* a worker that dies mid-item has the item retried on a fresh worker a
  bounded number of times, after which the item is recorded as a
  ``quarantined`` outcome (the "poison fault");
* if workers keep dying without completing anything (fork itself
  failing, systemic OOM), the supervisor degrades gracefully to
  in-process serial execution of the remaining items;
* every lifecycle event (spawn, dispatch, completion, death, retry,
  timeout, quarantine, fallback) can stream to a :class:`RunTrace`
  JSONL file, and the :mod:`repro.core.profiling` counters aggregate
  the same events for ``repro bench``.

Healthy items evaluate exactly as they would in a plain serial loop —
the worker calls the same ``evaluate`` callable on the same item — so
records for healthy items are byte-identical to an unsupervised run.
Timed-out and quarantined items are turned into first-class fallback
records by the caller-supplied factory (never silently dropped: an
unrecorded fault would inflate coverage, a silently re-run one could
deflate it).

In-process serial execution (``workers=1`` with no isolation requested)
supports the timeout budget too, via ``SIGALRM`` — that catches
pure-Python hangs, though obviously not crashes of the process itself.
The deadline exception derives from ``BaseException`` so the campaign
tier loops' ``except Exception`` capture cannot swallow it.

The fault and Monte-Carlo campaigns share one run loop around the
supervisor, :func:`run_checkpointed`: checkpoint resume, per-record
appends and trace events, progress, and records in item order.  Its
default worker count is every CPU the process may run on
(:func:`default_workers`).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready
from typing import (Any, Callable, ContextManager, Deque, Dict, Hashable,
                    Iterator, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from .profiling import COUNTERS
from .failpoints import failpoint
from .jsonl import DurableJsonlWriter, JsonlCheckpoint, rewrite_tail

__all__ = [
    "OUTCOME_OK", "OUTCOME_TIMEOUT", "OUTCOME_QUARANTINED",
    "OUTCOME_UNSOLVABLE", "ITEM_COUNTERS",
    "ItemDeadline", "RunTrace", "SupervisorError", "SupervisorPolicy",
    "default_workers", "record_outcome", "resolve_workers",
    "run_checkpointed", "run_supervised", "split_ranges",
]

#: item outcome labels recorded on campaign records
OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_QUARANTINED = "quarantined"
#: the analog engine's resilience ladder rejected the item's linear
#: systems (singular/inconsistent beyond rescue) — classified apart from
#: crashes (quarantined) and hangs (timeout)
OUTCOME_UNSOLVABLE = "unsolvable"


def record_outcome(record: Any, default: str = OUTCOME_OK) -> str:
    """The outcome a finished record declares for itself.

    Campaign evaluators settle numerics failures *on the record*
    (``record.outcome = "unsolvable"``) rather than by raising — the
    item finished normally from the supervisor's point of view — so the
    supervisor reads the record's verdict back when settling and
    tracing, instead of assuming ``ok``.
    """
    return getattr(record, "outcome", default) or default

#: pseudo-tier name used in fallback records' ``errors`` entries
SUPERVISOR_TIER = "__supervisor__"

#: the counter deltas each ``item_done`` event carries: what the item
#: cost the solver, and the stage results it reused
ITEM_COUNTERS = ("newton_iterations", "lu_factor", "class_hits")


def _item_counters(delta: Mapping[str, int]) -> Dict[str, int]:
    return {name: delta.get(name, 0) for name in ITEM_COUNTERS}


def split_ranges(items: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``[lo, hi)`` ranges covering ``items``.

    The first ``items % parts`` ranges are one longer, so sizes never
    differ by more than one; empty ranges are never produced (the part
    count is clamped to the item count).  Worker shares and service
    shards are both cut this way.
    """
    if items < 0:
        raise ValueError("items must be >= 0")
    if parts < 1:
        raise ValueError("parts must be >= 1")
    parts = min(parts, items) or 1
    base, extra = divmod(items, parts)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def default_workers() -> int:
    """The worker count a campaign run gets when it names none.

    Every CPU this process may run on, or 1 where fork is unavailable
    or inside a worker of another supervised run (a service shard, a
    campaign worker), which is already one of the CPUs' processes.
    """
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int], items: int) -> int:
    """The worker count of a run over *items* pending items: *workers*,
    or :func:`default_workers` for ``None``, clamped to ``[1, items]``
    (1 for no items)."""
    if workers is None:
        workers = default_workers()
    return max(1, min(int(workers), items))


class ItemDeadline(BaseException):
    """Raised inside the supervised process when an item's wall-clock
    budget expires.

    Deliberately *not* an :class:`Exception`: the campaigns' per-tier
    ``except Exception`` capture must never convert a deadline into an
    ordinary tier error.
    """


class SupervisorError(RuntimeError):
    """An ``evaluate`` call raised inside a worker (as opposed to the
    worker dying): the campaign contract is that item evaluation never
    raises, so this is a bug worth aborting loudly for — identically to
    what the exception would have done in a serial run."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for :func:`run_supervised`.

    ``timeout``
        Per-item wall-clock budget in seconds (``None`` = unbounded).
    ``max_retries``
        How many times an item whose worker *died* is re-dispatched to
        a fresh worker before being quarantined.  Timeouts are not
        retried — a deterministic hang would just spend the budget
        again.
    ``max_consecutive_failures``
        Worker deaths without a single completed item in between before
        the supervisor stops forking and finishes the remaining items
        in-process (graceful degradation when fork itself is failing).
    ``join_grace``
        Seconds to wait for a worker to exit after being asked to.
    """

    timeout: Optional[float] = None
    max_retries: int = 1
    max_consecutive_failures: int = 4
    join_grace: float = 5.0

    def __post_init__(self):
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


# ----------------------------------------------------------------------
# run-event trace
# ----------------------------------------------------------------------
class RunTrace:
    """Structured JSONL run-event trace.

    One JSON object per line: ``{"event": ..., "t": <seconds since the
    trace opened>, ...event fields...}``.  Events are flushed as they
    are emitted so a killed run still leaves a complete prefix — and
    ``fsync``\\ ed on close and every few lines (the shared
    :class:`~repro.core.jsonl.DurableJsonlWriter` contract), so the
    prefix survives power loss too.  Every emit also bumps the
    ``trace_events`` profiling counter.

    ``context`` fields are merged into every emitted event: the
    service coordinator opens one trace per job with
    ``context={"job": <id>}``, so its shard-level dispatch/completion
    events stay attributable after traces are aggregated.
    """

    def __init__(self, path: str,
                 context: Optional[Dict[str, Any]] = None):
        self.path = path
        self.context: Dict[str, Any] = dict(context or {})
        self._out: Optional[DurableJsonlWriter] = DurableJsonlWriter(path)
        self._t0 = time.monotonic()
        self.emit("trace_open", pid=os.getpid())

    def emit(self, event: str, **fields: Any) -> None:
        if self._out is None:  # pragma: no cover - emit after close
            return
        payload: Dict[str, Any] = {
            "event": event,
            "t": round(time.monotonic() - self._t0, 6),
        }
        payload.update(self.context)
        payload.update(fields)
        self._out.write_line(payload)
        COUNTERS.trace_events += 1

    def close(self) -> None:
        if self._out is not None:
            self._out.close()
            self._out = None

    def __enter__(self) -> "RunTrace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _emit(trace: Optional[RunTrace], event: str, **fields: Any) -> None:
    if trace is not None:
        trace.emit(event, **fields)


# ----------------------------------------------------------------------
# in-process deadline (SIGALRM)
# ----------------------------------------------------------------------
def _alarm_usable() -> bool:
    """SIGALRM deadlines need a real SIGALRM and the main thread."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`ItemDeadline` in the current process after
    *seconds* of wall-clock time; no-op when unbounded or unusable."""
    if seconds is None or not _alarm_usable():
        yield
        return

    def _on_alarm(signum, frame):
        raise ItemDeadline(f"item exceeded {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# forked worker
# ----------------------------------------------------------------------
def _worker_main(evaluate: Callable[[Any], Any], items: Sequence[Any],
                 conn) -> None:
    """Worker loop: receive an item index, evaluate, send the record.

    ``evaluate`` and ``items`` arrive through the fork snapshot (never
    pickled), so workers inherit already-built detector state exactly
    like the previous pool did.  Only indices go out; each record comes
    back with the counters its evaluation moved, which would otherwise
    die with the worker.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index = message
        before = COUNTERS.snapshot()
        try:
            failpoint("supervisor.pre_evaluate", index=index)
            record = evaluate(items[index])
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            try:
                conn.send((index, "error", repr(exc), {}))
            except (BrokenPipeError, OSError):
                pass
            continue
        try:
            conn.send((index, "ok", record, COUNTERS.since(before)))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already torn down
        pass


class _Worker:
    """Book-keeping for one supervised worker process."""

    __slots__ = ("proc", "conn", "slot", "item", "deadline", "started")

    def __init__(self, proc, conn, slot: int):
        self.proc = proc
        self.conn = conn
        self.slot = slot                    # whose share it works through
        self.item: Optional[int] = None     # index currently executing
        self.deadline: Optional[float] = None
        self.started: Optional[float] = None

    @property
    def idle(self) -> bool:
        return self.item is None

    def kill(self, grace: float) -> None:
        """Tear the worker down unconditionally (timeout/shutdown)."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(grace)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# ----------------------------------------------------------------------
# the supervisor proper
# ----------------------------------------------------------------------
class _Supervision:
    """One supervised run over a list of items (parallel, fork).

    Each of the ``max_workers`` slots owns one share of the items: with
    two or more slots and a *key*, a contiguous run of the items in key
    order (sizes by :func:`split_ranges`), else every item in item
    order.  A slot's worker takes the next item of its own share, else
    the last item of the longest share left; a worker that dies is
    replaced in its slot, and the replacement goes on with the share
    (a retried item first).
    """

    def __init__(self, items: Sequence[Any],
                 evaluate: Callable[[Any], Any],
                 workers: int,
                 policy: SupervisorPolicy,
                 fallback: Callable[[Any, str, str], Any],
                 on_record: Optional[Callable[[int, Any, Any, str], None]],
                 trace: Optional[RunTrace],
                 key: Optional[Callable[[Any], Hashable]] = None):
        self.items = items
        self.evaluate = evaluate
        self.max_workers = max(1, min(workers, len(items)))
        self.policy = policy
        self.fallback = fallback
        self.on_record = on_record
        self.trace = trace
        self.ctx = multiprocessing.get_context("fork")
        self.results: List[Any] = [None] * len(items)
        self.settled: List[bool] = [False] * len(items)
        self.attempts: List[int] = [0] * len(items)
        order = list(range(len(items)))
        if key is not None and self.max_workers > 1:
            order.sort(key=lambda i: key(items[i]))
        self.shares: List[Deque[int]] = [
            deque(order[lo:hi])
            for lo, hi in split_ranges(len(order), self.max_workers)]
        self.workers: List[_Worker] = []
        self.completed = 0
        self.consecutive_failures = 0
        self.degraded = False

    # -- record plumbing ----------------------------------------------
    def _settle(self, index: int, record: Any, outcome: str) -> None:
        self.results[index] = record
        self.settled[index] = True
        self.completed += 1
        if self.on_record is not None:
            self.on_record(index, self.items[index], record, outcome)

    def _settle_fallback(self, index: int, outcome: str,
                         detail: str) -> None:
        record = self.fallback(self.items[index], outcome, detail)
        self._settle(index, record, outcome)

    # -- worker lifecycle ---------------------------------------------
    def _spawn(self, slot: int) -> Optional[_Worker]:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(self.evaluate, self.items, child_conn),
            daemon=True)
        try:
            proc.start()
        except OSError as exc:
            # fork failing outright: close the pipe, report, and let the
            # caller degrade to serial
            parent_conn.close()
            child_conn.close()
            _emit(self.trace, "spawn_failed", error=repr(exc))
            self.consecutive_failures = self.policy.max_consecutive_failures
            return None
        child_conn.close()
        worker = _Worker(proc, parent_conn, slot)
        self.workers.append(worker)
        COUNTERS.supervisor_spawns += 1
        _emit(self.trace, "worker_spawn", pid=proc.pid)
        return worker

    def _retire(self, worker: _Worker, reason: str,
                emit: bool = True) -> None:
        if worker in self.workers:
            self.workers.remove(worker)
        worker.kill(self.policy.join_grace)
        if emit:
            _emit(self.trace, "worker_exit", pid=worker.proc.pid,
                  reason=reason, exitcode=worker.proc.exitcode)

    def _dispatch(self, worker: _Worker, index: int) -> None:
        worker.item = index
        worker.started = time.monotonic()
        worker.deadline = (None if self.policy.timeout is None
                           else worker.started + self.policy.timeout)
        self.attempts[index] += 1
        COUNTERS.supervisor_dispatches += 1
        _emit(self.trace, "dispatch", item=index, pid=worker.proc.pid,
              attempt=self.attempts[index])
        worker.conn.send(index)

    def _take(self, slot: int) -> Optional[int]:
        """The next item of *slot*'s share, else the last item of the
        longest share (None once every share is empty)."""
        own = self.shares[slot]
        if own:
            return own.popleft()
        longest = max(self.shares, key=len)
        return longest.pop() if longest else None

    def _fill(self) -> None:
        """Hand each idle worker an item; fork a worker into each empty
        slot while items are left."""
        for slot in range(self.max_workers):
            if not any(self.shares):
                return
            worker = next((w for w in self.workers if w.slot == slot),
                          None)
            if worker is None:
                worker = self._spawn(slot)
                if worker is None:
                    return
            if worker.idle:
                self._dispatch(worker, self._take(slot))

    # -- failure handling ---------------------------------------------
    def _handle_result(self, worker: _Worker) -> None:
        try:
            index, status, payload, counters = worker.conn.recv()
        except (EOFError, OSError):
            self._handle_death(worker)
            return
        duration = time.monotonic() - (worker.started or time.monotonic())
        worker.item = worker.deadline = worker.started = None
        self.consecutive_failures = 0
        if status == "error":
            # evaluate() raised: abort exactly as a serial run would
            raise SupervisorError(
                f"item {index} ({self.items[index]!r}) raised in "
                f"worker: {payload}")
        COUNTERS.add(counters)
        outcome = record_outcome(payload)
        _emit(self.trace, "item_done", item=index, pid=worker.proc.pid,
              duration_s=round(duration, 6), outcome=outcome,
              **_item_counters(counters))
        self._settle(index, payload, outcome)

    def _handle_death(self, worker: _Worker) -> None:
        """Worker hung up without delivering a result."""
        index = worker.item
        self._retire(worker, "died", emit=False)  # joins, so exitcode is real
        exitcode = worker.proc.exitcode
        COUNTERS.supervisor_worker_deaths += 1
        self.consecutive_failures += 1
        _emit(self.trace, "worker_death", pid=worker.proc.pid,
              exitcode=exitcode, item=index)
        if index is None:
            return
        if self.attempts[index] > self.policy.max_retries:
            COUNTERS.supervisor_quarantined += 1
            _emit(self.trace, "quarantine", item=index,
                  attempts=self.attempts[index])
            self._settle_fallback(
                index, OUTCOME_QUARANTINED,
                f"worker died {self.attempts[index]}x evaluating this "
                f"item (last exit code {exitcode})")
        else:
            COUNTERS.supervisor_retries += 1
            _emit(self.trace, "retry", item=index,
                  attempt=self.attempts[index] + 1)
            self.shares[worker.slot].appendleft(index)

    def _handle_timeout(self, worker: _Worker) -> None:
        index = worker.item
        self._retire(worker, "timeout")
        COUNTERS.supervisor_timeouts += 1
        _emit(self.trace, "timeout", item=index,
              budget_s=self.policy.timeout, pid=worker.proc.pid)
        self._settle_fallback(
            index, OUTCOME_TIMEOUT,
            f"timeout after {self.policy.timeout:g}s wall-clock budget")

    # -- main loop -----------------------------------------------------
    def run(self) -> List[Any]:
        try:
            self._fill()
            while self.completed < len(self.items):
                if (self.consecutive_failures
                        >= self.policy.max_consecutive_failures):
                    self._degrade_to_serial()
                    break
                if not self.workers:
                    # every worker retired and nothing queued them back
                    self._fill()
                    if not self.workers:
                        self._degrade_to_serial()
                        break
                self._pump()
                self._fill()
        finally:
            self._shutdown()
        return self.results

    def _pump(self) -> None:
        """Wait for one readiness/deadline event and service it."""
        now = time.monotonic()
        deadlines = [w.deadline for w in self.workers
                     if w.deadline is not None]
        wait_s = (None if not deadlines
                  else max(0.0, min(deadlines) - now))
        ready = _wait_ready([w.conn for w in self.workers],
                            timeout=wait_s)
        by_conn = {w.conn: w for w in self.workers}
        for conn in ready:
            worker = by_conn.get(conn)
            if worker is not None and worker in self.workers:
                self._handle_result(worker)
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.deadline is not None and now >= worker.deadline:
                self._handle_timeout(worker)

    def _degrade_to_serial(self) -> None:
        """Fork keeps failing: finish the remaining items in-process."""
        self.degraded = True
        COUNTERS.supervisor_serial_fallbacks += 1
        # whatever was in flight on still-alive workers is unsettled,
        # so it is among the remaining items below
        for worker in list(self.workers):
            self._retire(worker, "serial_fallback")
        for share in self.shares:
            share.clear()
        remaining = [i for i, s in enumerate(self.settled) if not s]
        _emit(self.trace, "serial_fallback", remaining=len(remaining))
        run_serial(
            [(i, self.items[i]) for i in remaining],
            lambda pair: self.evaluate(pair[1]),
            policy=self.policy,
            fallback=lambda pair, outcome, detail: self.fallback(
                pair[1], outcome, detail),
            on_record=None,
            trace=None,
            settle=lambda pair, rec, outcome: self._settle(
                pair[0], rec, outcome))

    def _shutdown(self) -> None:
        """Deterministic teardown: cancel outstanding work, reap every
        worker (KeyboardInterrupt lands here too)."""
        for worker in list(self.workers):
            self._retire(worker, "shutdown")
        self.workers = []


def run_serial(items: Sequence[Any], evaluate: Callable[[Any], Any],
               policy: SupervisorPolicy,
               fallback: Optional[Callable[[Any, str, str], Any]],
               on_record: Optional[Callable[[int, Any, Any, str], None]],
               trace: Optional[RunTrace],
               settle: Optional[Callable[[Any, Any, str], None]] = None,
               ) -> List[Any]:
    """In-process supervised loop: per-item SIGALRM deadlines only.

    This is both the ``workers=1`` path and the graceful-degradation
    target of the forked supervisor.  It cannot survive the process
    itself dying, but a pure-Python hang still becomes a recorded
    ``timeout`` outcome instead of a wedged campaign.
    """
    results: List[Any] = []
    for position, item in enumerate(items):
        started = time.monotonic()
        before = COUNTERS.snapshot()
        try:
            failpoint("supervisor.pre_evaluate", index=position)
            with _deadline(policy.timeout):
                record = evaluate(item)
            outcome = record_outcome(record)
        except ItemDeadline:
            if fallback is None:  # pragma: no cover - defensive
                raise
            COUNTERS.supervisor_timeouts += 1
            _emit(trace, "timeout", item=position,
                  budget_s=policy.timeout, pid=os.getpid())
            record = fallback(
                item, OUTCOME_TIMEOUT,
                f"timeout after {policy.timeout:g}s wall-clock budget")
            outcome = OUTCOME_TIMEOUT
        else:
            _emit(trace, "item_done", item=position, pid=os.getpid(),
                  duration_s=round(time.monotonic() - started, 6),
                  outcome=outcome, **_item_counters(COUNTERS.since(before)))
        results.append(record)
        if settle is not None:
            settle(item, record, outcome)
        if on_record is not None:
            on_record(position, item, record, outcome)
    return results


def _evaluates_in_process(workers: int, timeout: Optional[float]) -> bool:
    """Whether :func:`run_supervised` evaluates every item in the calling
    process under no per-item deadline.

    That is the case for one worker and no timeout, or for any worker
    count where fork is unavailable and no timeout is set.  Anything
    else runs forked, supervised workers (or, without fork, SIGALRM
    deadlines).
    """
    fork_ok = "fork" in multiprocessing.get_all_start_methods()
    return timeout is None and (workers <= 1 or not fork_ok)


def run_supervised(items: Sequence[Any],
                   evaluate: Callable[[Any], Any],
                   *,
                   workers: int = 1,
                   policy: Optional[SupervisorPolicy] = None,
                   fallback: Optional[Callable[[Any, str, str], Any]] = None,
                   on_record: Optional[
                       Callable[[int, Any, Any, str], None]] = None,
                   trace: Optional[RunTrace] = None,
                   key: Optional[Callable[[Any], Hashable]] = None
                   ) -> List[Any]:
    """Evaluate *items* under supervision; returns records in item order.

    ``evaluate``
        Called once per item, in a forked worker (``workers >= 1`` with
        fork available) or in-process otherwise.  Healthy items produce
        records identical to a plain ``[evaluate(i) for i in items]``.
    ``fallback(item, outcome, detail)``
        Builds the first-class record for a timed-out or quarantined
        item.  Required whenever ``policy.timeout`` is set or crash
        isolation is in play.
    ``on_record(index, item, record, outcome)``
        Completion hook (checkpoint writes, progress) — called once per
        item as it settles, in completion order.
    ``trace``
        Optional :class:`RunTrace` receiving the run-event stream.
    ``key``
        Orders the items into the workers' contiguous shares when two
        or more workers run (see :class:`_Supervision`); without it
        the shares follow item order.

    The forked path is engaged when fork is available and either
    ``workers > 1`` or a timeout is set (single supervised worker:
    sequential execution, in item order, that still survives crashes
    and hangs).  Every ``item_done`` event carries the item's
    :data:`ITEM_COUNTERS` deltas, and a forked item's counters are
    added to this process's.
    """
    policy = policy or SupervisorPolicy()
    items = list(items)
    if (policy.timeout is not None or policy.max_retries > 0) \
            and fallback is None:
        raise TypeError("run_supervised needs a fallback record factory "
                        "when timeouts/quarantine are possible")
    use_fork = (bool(items)
                and "fork" in multiprocessing.get_all_start_methods()
                and not _evaluates_in_process(workers, policy.timeout))
    _emit(trace, "run_start", items=len(items),
          workers=workers if use_fork else 1,
          mode="fork" if use_fork else "serial",
          timeout_s=policy.timeout, max_retries=policy.max_retries)
    if use_fork:
        supervision = _Supervision(items, evaluate, workers, policy,
                                   fallback, on_record, trace, key)
        results = supervision.run()
        _emit(trace, "run_end", items=len(items),
              degraded=supervision.degraded)
        return results
    results = run_serial(items, evaluate, policy, fallback,
                         on_record, trace)
    _emit(trace, "run_end", items=len(items), degraded=False)
    return results


def run_checkpointed(items: Sequence[Any],
                     evaluate: Callable[[Any], Any],
                     *,
                     key: Callable[[Any], Hashable],
                     label: Callable[[Any], Dict[str, Any]],
                     fallback: Callable[[Any, str, str], Any],
                     checkpoints: JsonlCheckpoint,
                     checkpoint: Optional[str] = None,
                     workers: Optional[int] = None,
                     timeout: Optional[float] = None,
                     max_retries: int = 1,
                     progress: Optional[Callable[[int, int], None]] = None,
                     trace: Optional[Union[str, RunTrace]] = None,
                     scope: Optional[Callable[[Optional[RunTrace], List[Any]],
                                              ContextManager]] = None
                     ) -> List[Any]:
    """The campaigns' run loop: :func:`run_supervised` over the items a
    checkpoint does not already hold; returns records in item order.

    ``trace`` is a path (opened and closed here) or an open
    :class:`RunTrace`.  With ``checkpoint`` set, the records already in
    that file (in the ``checkpoints`` format, an item's record found by
    ``key(item)``) are read back instead of re-evaluated, and each
    settled record is appended as it settles, followed by a
    ``checkpoint_write`` event carrying ``label(item)``.  Once every
    pending item has settled, a run whose records settled out of item
    order (a forked one) rewrites the lines it appended in item order,
    atomically, so its checkpoint is byte-identical to a one-worker
    run's; an interrupted run leaves its append-only file.
    ``progress`` gets ``(done, total)`` per settled item, resumed ones
    counted from the start.  ``workers`` is resolved by
    :func:`resolve_workers` (``None``: every CPU), and two or more
    workers share the pending items in ``key`` order.  ``scope`` is
    called with the trace and the pending items just before they are
    evaluated, and returns the context they are evaluated in.
    """
    items = list(items)
    done: Dict[Hashable, Any] = {}
    with ExitStack() as stack:
        if isinstance(trace, str):
            trace = stack.enter_context(RunTrace(trace))
        elif not isinstance(trace, RunTrace):
            trace = None
        writer: Optional[DurableJsonlWriter] = None
        if checkpoint is not None:
            done, writer = checkpoints.resume(checkpoint)
            stack.enter_context(writer)
            appended_from = writer.offset
        pending = [item for item in items if key(item) not in done]
        completed = [len(items) - len(pending)]
        settled: List[int] = []         # pending positions, as they settle

        def on_record(index: int, item: Any, record: Any,
                      outcome: str) -> None:
            done[key(item)] = record
            if writer is not None:
                writer.write_line(record.to_dict())
                settled.append(index)
                _emit(trace, "checkpoint_write", item=index, **label(item),
                      outcome=outcome)
            completed[0] += 1
            if progress is not None:
                progress(completed[0], len(items))

        with (nullcontext() if scope is None else scope(trace, pending)):
            run_supervised(
                pending, evaluate,
                workers=resolve_workers(workers, len(pending)),
                policy=SupervisorPolicy(timeout=timeout,
                                        max_retries=max_retries),
                fallback=fallback, on_record=on_record, trace=trace,
                key=key)
        if writer is not None and settled != sorted(settled):
            writer.close()
            rewrite_tail(checkpoint, appended_from,
                         (done[key(item)].to_dict() for item in pending))
    return [done[key(item)] for item in items]
