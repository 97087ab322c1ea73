#!/usr/bin/env python
"""Loop-kernel shadow smoke: the oracle loop beside real pattern traffic.

Runs the per-component oracle loop of
``tests/synchronizer/reference_loop.py`` to full length beside every
``SynchronizerLoop.run`` of

* a 4-fault pattern campaign over the five default stimuli, its
  healthy lock summaries included,
* the fault-free die's lock test under each of those stimuli (runs
  that pass, which the sampled faults' runs do not),

copying each run's loop before the kernel runs it, for the oracle.

* A run without ``stop`` must match the oracle in every result field
  and trace list.
* A run with ``stop`` must end where the oracle's full-length run is
  first decided, with the same lock cycle, coarse corrections and
  post-lock errors there.  When the ``stop`` is a lock test's
  :class:`~repro.synchronizer.loop.LockVerdict`, the kernel's verdict
  must equal the oracle's: read at the oracle's lock for an
  ``at_lock`` verdict, at the end of the oracle's run otherwise.

The campaign measures window thresholds and VCDL delay curves on the
transistor netlists, so the loop runs on knob sets that no knob-set
test builds.  Exits 1 if anything differed, naming every differing run.

Used locally and as the CI guard-job ``loop-shadow`` check.
"""

import copy
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests" / "synchronizer"))

from reference_loop import reference_run, result_diff  # noqa: E402

from repro.dft.golden import GoldenSignatures  # noqa: E402
from repro.dft.registry import create_tier  # noqa: E402
from repro.link.params import LinkParams  # noqa: E402
from repro.patterns.campaign import (  # noqa: E402
    DEFAULT_CAMPAIGN_PATTERNS,
    PatternCampaign,
)
from repro.synchronizer.loop import LockVerdict, SynchronizerLoop  # noqa: E402


def _at_stop(result):
    return (
        result.cycles_run,
        result.lock_cycles,
        result.coarse_corrections,
        result.errors_after_lock,
    )


class LoopShadow:
    """Runs the oracle beside every ``SynchronizerLoop.run``."""

    def __init__(self, patch: pytest.MonkeyPatch) -> None:
        self.runs = 0
        self.stopped = 0
        self.mismatches = []
        kernel = SynchronizerLoop.run

        def shadowed(loop, max_cycles=20000, record_every=8, stop=None):
            twin = copy.deepcopy(loop)
            result = kernel(
                loop,
                max_cycles=max_cycles,
                record_every=record_every,
                stop=stop,
            )
            self.check(twin, result, max_cycles, record_every, stop)
            return result

        patch.setattr(SynchronizerLoop, "run", shadowed)

    def check(self, twin, result, max_cycles, record_every, stop) -> None:
        self.runs += 1
        name = (
            f"run {self.runs} ({type(twin.source).__name__}, "
            f"phase {twin.params.initial_phase_index}, "
            f"{max_cycles} cycles)"
        )
        if stop is None:
            full = reference_run(twin, max_cycles, record_every)
            bad = result_diff(result, full)
            if bad:
                self.mismatches.append(f"{name}: {', '.join(bad)} differ")
            return

        self.stopped += 1
        decided, at_lock = [], []

        def observe(cycle, lock_cycle, corrections, errors_after_lock):
            state = (cycle + 1, lock_cycle, corrections, errors_after_lock)
            if not decided and stop(
                cycle, lock_cycle, corrections, errors_after_lock
            ):
                decided.append(state)
            if not at_lock and lock_cycle is not None:
                at_lock.append(state)
            return False

        full = reference_run(twin, max_cycles, record_every, stop=observe)
        want = decided[0] if decided else _at_stop(full)
        if _at_stop(result) != want:
            self.mismatches.append(
                f"{name}: stopped at (cycles, lock cycle, corrections, "
                f"post-lock errors) {_at_stop(result)}, oracle decided "
                f"at {want}"
            )
        if isinstance(stop, LockVerdict):
            if stop.at_lock:
                oracle = bool(at_lock) and stop.passes(*at_lock[0][1:])
            else:
                oracle = stop.result_passes(full)
            if stop.result_passes(result) != oracle:
                self.mismatches.append(
                    f"{name}: verdict {stop.result_passes(result)}, "
                    f"oracle at full length {oracle}"
                )


def run_patterns():
    # one worker, in this process, where the shadow is installed
    records = PatternCampaign().run(sample=4, workers=1).result.records
    errors = [e for r in records for e in r.errors]
    if errors:
        raise RuntimeError(f"tier error {errors[0]}")


def run_fault_free():
    goldens = GoldenSignatures()
    for pattern in DEFAULT_CAMPAIGN_PATTERNS:
        name = "bist" if pattern == "prbs7" else f"bist@{pattern}"
        create_tier(name, goldens)._run_loop(LinkParams())


WORKLOADS = (
    ("patterns, 4 faults", run_patterns),
    ("fault-free lock test, 5 stimuli", run_fault_free),
)


def main() -> int:
    patch = pytest.MonkeyPatch()
    shadow = LoopShadow(patch)
    lines = []
    try:
        for name, run in WORKLOADS:
            t0 = time.monotonic()
            try:
                run()
            except RuntimeError as exc:
                print(f"{name}: {exc}")
                return 1
            lines.append(f"{name}: {time.monotonic() - t0:.1f}s")
    finally:
        patch.undo()
    if shadow.mismatches:
        print(f"{len(shadow.mismatches)} mismatch(es):")
        for line in shadow.mismatches:
            print(f"  {line}")
        return 1
    if not shadow.stopped or shadow.stopped == shadow.runs:
        print(
            f"{shadow.runs} runs, {shadow.stopped} with a stop: the "
            f"sample no longer exercises both kinds of run"
        )
        return 1
    for line in lines:
        print(line)
    print(
        f"{shadow.runs} loop runs ({shadow.stopped} stopped at their "
        f"verdict) match the full-length oracle"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
