"""Unit tests for the supervised runner (repro.core.supervisor).

The three supervision paths a production campaign needs:

* a handler that *hangs* — per-item wall-clock timeout turns it into a
  recorded ``timeout`` outcome (forked path and in-process SIGALRM);
* a handler that *kills its worker* (``os._exit``) — the supervisor
  survives the death, retries the poison item a bounded number of
  times, quarantines it, and keeps the campaign going;
* healthy items always evaluate to the same records as a plain loop.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.core.supervisor import (
    OUTCOME_OK,
    OUTCOME_QUARANTINED,
    OUTCOME_TIMEOUT,
    ItemDeadline,
    RunTrace,
    SupervisorError,
    SupervisorPolicy,
    run_serial,
    run_supervised,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="fork start method required")


def evaluate(item):
    """Square healthy items; item 7 hangs, item 13 kills its worker."""
    if item == 7:
        time.sleep(60)
    if item == 13:
        os._exit(17)
    return item * item


def fallback(item, outcome, detail):
    return {"item": item, "outcome": outcome, "detail": detail}


class TestHealthyRuns:
    def test_serial_matches_plain_loop(self):
        items = list(range(5))
        out = run_supervised(items, lambda i: i * i, fallback=fallback)
        assert out == [i * i for i in items]

    @needs_fork
    def test_forked_matches_plain_loop(self):
        items = list(range(12))
        out = run_supervised(items, lambda i: i * i, workers=3,
                             fallback=fallback)
        assert out == [i * i for i in items]

    @needs_fork
    def test_on_record_sees_every_item_once(self):
        seen = []
        run_supervised(list(range(8)), lambda i: i,
                       workers=2, fallback=fallback,
                       on_record=lambda k, item, rec, out:
                       seen.append((k, item, rec, out)))
        assert sorted(seen) == [(i, i, i, OUTCOME_OK) for i in range(8)]


class TestTimeoutPath:
    @needs_fork
    def test_hanging_item_settles_as_timeout(self):
        items = [1, 2, 7, 3]
        t0 = time.monotonic()
        out = run_supervised(items, evaluate, workers=2,
                             policy=SupervisorPolicy(timeout=1.0),
                             fallback=fallback)
        assert time.monotonic() - t0 < 30
        assert out[0] == 1 and out[1] == 4 and out[3] == 9
        assert out[2]["outcome"] == OUTCOME_TIMEOUT
        assert "1s" in out[2]["detail"]

    def test_sigalrm_serial_timeout(self):
        """The in-process path must also turn a hang into a record."""
        out = run_serial([2, 7, 4], evaluate,
                         policy=SupervisorPolicy(timeout=1.0),
                         fallback=fallback, on_record=None, trace=None)
        assert out[0] == 4 and out[2] == 16
        assert out[1]["outcome"] == OUTCOME_TIMEOUT

    def test_deadline_is_not_an_ordinary_exception(self):
        """Campaign tier loops catch Exception; the deadline must not
        be swallowed by them."""
        assert not issubclass(ItemDeadline, Exception)
        assert issubclass(ItemDeadline, BaseException)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout=-1.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_retries=-1)


class TestCrashPath:
    @needs_fork
    def test_worker_killer_is_quarantined(self):
        items = [1, 13, 2, 3]
        out = run_supervised(items, evaluate, workers=2,
                             policy=SupervisorPolicy(timeout=5.0,
                                                     max_retries=1),
                             fallback=fallback)
        assert [out[0], out[2], out[3]] == [1, 4, 9]
        assert out[1]["outcome"] == OUTCOME_QUARANTINED
        assert "exit code 17" in out[1]["detail"]
        assert "2x" in out[1]["detail"]  # initial attempt + 1 retry

    @needs_fork
    def test_zero_retries_quarantines_first_death(self):
        out = run_supervised([13], evaluate, workers=2,
                             policy=SupervisorPolicy(timeout=5.0,
                                                     max_retries=0),
                             fallback=fallback)
        assert out[0]["outcome"] == OUTCOME_QUARANTINED
        assert "1x" in out[0]["detail"]

    @needs_fork
    def test_every_worker_dying_degrades_to_serial(self):
        """When *all* forked work dies, the remaining healthy items
        still complete in-process (graceful degradation)."""
        def die_in_worker(item):
            # the parent records its own pid before forking; anything
            # not the parent is a worker and dies immediately
            if os.getpid() != die_in_worker.parent:
                os._exit(3)
            return item + 100

        die_in_worker.parent = os.getpid()
        from repro.core.profiling import profiled

        with profiled() as counters:
            out = run_supervised(
                [1, 2, 3], die_in_worker, workers=2,
                policy=SupervisorPolicy(timeout=30.0, max_retries=0,
                                        max_consecutive_failures=1),
                fallback=fallback)
        # whatever was in flight during the death storm is quarantined
        # (at most the two initially dispatched items); everything else
        # completes in-process after the degradation
        ok = [r for r in out if not isinstance(r, dict)]
        bad = [r for r in out if isinstance(r, dict)]
        assert len(ok) + len(bad) == 3
        assert all(r > 100 for r in ok)
        assert all(r["outcome"] == OUTCOME_QUARANTINED for r in bad)
        assert 1 <= len(bad) <= 2
        assert ok, "serial fallback must evaluate the remaining items"
        assert counters.supervisor_serial_fallbacks == 1

    @needs_fork
    def test_evaluate_raising_aborts_loudly(self):
        """An exception out of evaluate() is a bug, not a poison item:
        the run aborts exactly as the serial loop would."""
        def boom(item):
            raise RuntimeError("detector bug")

        with pytest.raises(SupervisorError, match="detector bug"):
            run_supervised([1, 2], boom, workers=2,
                           policy=SupervisorPolicy(timeout=5.0),
                           fallback=fallback)

    @needs_fork
    def test_fallback_required_for_supervised_run(self):
        with pytest.raises(TypeError):
            run_supervised([1], lambda i: i,
                           policy=SupervisorPolicy(timeout=1.0))


class TestRunTrace:
    @needs_fork
    def test_trace_records_lifecycle(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        with RunTrace(path) as trace:
            run_supervised([1, 7, 13, 2], evaluate, workers=2,
                           policy=SupervisorPolicy(timeout=1.0,
                                                   max_retries=0),
                           fallback=fallback, trace=trace)
        events = [json.loads(line) for line in open(path)]
        names = [e["event"] for e in events]
        for expected in ("run_start", "worker_spawn", "dispatch",
                         "item_done", "timeout", "worker_death",
                         "quarantine", "run_end"):
            assert expected in names, f"missing {expected}: {names}"
        # every event carries the elapsed-seconds stamp
        assert all(isinstance(e["t"], (int, float)) for e in events)

    def test_trace_is_append_only_jsonl(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        with RunTrace(path) as trace:
            trace.emit("custom", detail=1)
        with RunTrace(path) as trace:
            trace.emit("custom", detail=2)
        details = [json.loads(line).get("detail")
                   for line in open(path)
                   if json.loads(line)["event"] == "custom"]
        assert details == [1, 2]


class TestCounters:
    @needs_fork
    def test_supervision_counters_aggregate(self):
        from repro.core.profiling import profiled

        with profiled() as counters:
            run_supervised([1, 7, 13, 2], evaluate, workers=2,
                           policy=SupervisorPolicy(timeout=1.0,
                                                   max_retries=1),
                           fallback=fallback)
        assert counters.supervisor_timeouts == 1
        assert counters.supervisor_quarantined == 1
        assert counters.supervisor_retries == 1
        assert counters.supervisor_worker_deaths >= 2
        assert counters.supervisor_spawns >= 2

    @needs_fork
    def test_dispatches_count_retries(self):
        """Every dispatch to a worker counts, retries included: one
        retried item makes one dispatch more than there are items."""
        from repro.core.profiling import profiled

        items = [1, 13, 2, 3]
        with profiled() as counters:
            run_supervised(items, evaluate, workers=2,
                           policy=SupervisorPolicy(timeout=5.0,
                                                   max_retries=1),
                           fallback=fallback)
        assert counters.supervisor_retries == 1
        assert counters.supervisor_dispatches == len(items) + 1
