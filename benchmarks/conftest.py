"""Shared fixtures for the benchmark suite.

The fault campaign is the expensive artifact several benches consume
(Table I, the Section IV progression, the set-algebra claim).  It runs
once per session and is cached here; the bench that owns it
(``test_bench_table1_coverage``) times the full run, the others time
their own analysis on the cached result.

Environment knobs:

* ``REPRO_CAMPAIGN_SAMPLE=<n>`` — run the campaign on a random *n*-fault
  sample (coarser percentages, much faster smoke runs);
* ``REPRO_CAMPAIGN_WORKERS=<n>`` — fan the campaign out over *n* worker
  processes (results are identical to a serial run);
* ``REPRO_MC_DIES=<n>`` — die count for the Monte-Carlo variation bench
  (default 8);
* ``REPRO_MC_WORKERS=<n>`` — fork the die sweep (default serial, which
  keeps the per-die retune/reuse counters in this process for the
  BENCH artifact);
* ``REPRO_COLLAPSE=off|on|audit`` — fault-universe compression for the
  campaign bench (default ``on``: one simulated representative per
  structural equivalence class; verdicts match the uncollapsed run).

Every session writes a ``BENCH_PR<N>.json`` artifact next to this file
(name from ``REPRO_BENCH_OUTPUT``; by default *N* is the highest
``PR <N>:`` entry of the repository's ``CHANGES.md``):
per-bench wall time, per-bench ``lu_factor`` deltas, and the engine's
profiling counters, so performance PRs have a before/after record.
An output name that would overwrite an *older* PR's artifact is
refused at collection time — the whole point of the artifacts is the
history, and a stale hardcoded name silently destroying it is exactly
the bug this guard closes.  The newest *older* ``BENCH_PR*.json``
found beside it is referenced as the baseline (numeric ``PR<N>``
ordering shared with ``repro bench --compare`` via
``repro.core.artifacts``); older baselines may lack counters the
current engine emits (and vice versa), so consumers must treat absent
keys as absent, never as zero-vs-N regressions.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

_HERE = os.path.dirname(__file__)
_CHANGES = os.path.join(_HERE, os.pardir, "CHANGES.md")
#: the committed per-fault verdicts the guard suite also pins
_REFERENCE = os.path.join(_HERE, os.pardir, "perfbench", "reference")


def _default_output():
    """``BENCH_PR<N>.json`` for the newest ``PR <N>:`` entry of
    CHANGES.md (``None`` when it has none)."""
    from repro.core.artifacts import changes_pr_number

    number = changes_pr_number(_CHANGES)
    return None if number is None else f"BENCH_PR{number}.json"


#: this PR's artifact — also the anchor for the no-clobber guard: any
#: existing BENCH_PR<N> with N below this default's is history
_DEFAULT_OUTPUT = _default_output()
_OUTPUT_NAME = os.environ.get("REPRO_BENCH_OUTPUT", _DEFAULT_OUTPUT)

_campaign_cache = {}
_mc_cache = {}
_bench_times = {}
_bench_lu = {}
_patterns = {}


def record_patterns(name, data):
    """Store a per-pattern coverage/BER/lock-time block for the BENCH
    artifact (see ``test_bench_patterns``)."""
    _patterns[name] = data


def _bench_collapse():
    """Collapse policy for the campaign bench (default on: the bench
    measures the engine as shipped; parity with off is CI-guarded)."""
    return os.environ.get("REPRO_COLLAPSE", "on")


def get_campaign_report():
    """Run (or fetch) the full three-tier fault campaign."""
    if "report" not in _campaign_cache:
        from repro.dft.coverage import build_fault_universe, run_paper_campaign

        universe = build_fault_universe()
        sample = os.environ.get("REPRO_CAMPAIGN_SAMPLE")
        if sample:
            n = min(int(sample), len(universe))
            universe = random.Random(2016).sample(universe, n)
        workers = int(os.environ.get("REPRO_CAMPAIGN_WORKERS", "0")) or None
        _campaign_cache["report"] = run_paper_campaign(
            universe, workers=workers, collapse=_bench_collapse())
    return _campaign_cache["report"]


def get_mc_result():
    """Run (or fetch) the session's Monte-Carlo variation campaign."""
    if "result" not in _mc_cache:
        from repro.variation import MonteCarloCampaign

        dies = int(os.environ.get("REPRO_MC_DIES", "8"))
        # serial by default: the per-die retune/reuse counters recorded
        # in the BENCH artifact live in the evaluating process, and a
        # forked sweep would leave them in the (discarded) children
        workers = int(os.environ.get("REPRO_MC_WORKERS", "0")) or None
        _mc_cache["result"] = MonteCarloCampaign(seed=2016).run(
            dies, workers=workers)
    return _mc_cache["result"]


def moved_from_reference(name, got):
    """One line per fault of *got* (fault id -> verdict) whose verdict
    differs from ``perfbench/reference/<name>.json``, which is only
    read, never written."""
    with open(os.path.join(_REFERENCE, f"{name}.json")) as fh:
        want = json.load(fh)["faults"]
    return [f"{fault}: reference {want.get(fault)}, now {verdict}"
            for fault, verdict in sorted(got.items())
            if want.get(fault) != verdict]


@pytest.fixture(scope="session")
def campaign_report():
    return get_campaign_report()


@pytest.fixture(scope="session")
def mc_result():
    return get_mc_result()


def _baseline_name() -> str:
    """Newest BENCH_PR*.json beside this file, excluding this PR's own
    output — the before/after reference for performance work.

    Uses the same numeric ``PR<N>`` ordering as ``repro bench
    --compare`` (:mod:`repro.core.artifacts`), so the artifact this
    session names as its baseline is the artifact the CLI will diff
    it against.
    """
    from repro.core.artifacts import bench_artifacts

    candidates = [p for p in bench_artifacts(_HERE)
                  if os.path.basename(p) != _OUTPUT_NAME]
    if not candidates:
        return None
    return os.path.basename(candidates[-1])


def pytest_configure(config):
    """Refuse an output name that would clobber an older PR's artifact.

    Rewriting this PR's own artifact (a rerun of the CHANGES.md-derived
    name, or newer) is fine; silently destroying the performance
    history — any existing ``BENCH_PR<N>`` below this PR's number — is
    not.  Without a ``PR <N>:`` entry in CHANGES.md the name must be
    given explicitly.
    """
    from repro.core.artifacts import bench_pr_number

    if _OUTPUT_NAME is None:
        raise pytest.UsageError(
            "CHANGES.md has no 'PR <N>:' entry to name the benchmark "
            "artifact after; set REPRO_BENCH_OUTPUT")
    ours = bench_pr_number(_OUTPUT_NAME)
    if ours is None:
        return                      # custom name, no artifact at risk
    if not os.path.exists(os.path.join(_HERE, _OUTPUT_NAME)):
        return
    current = bench_pr_number(_DEFAULT_OUTPUT or "")
    if current is None or ours < current:
        raise pytest.UsageError(
            f"REPRO_BENCH_OUTPUT={_OUTPUT_NAME} would overwrite an "
            f"older PR's benchmark artifact (this PR writes "
            f"{_DEFAULT_OUTPUT}); pick a name that is not part of "
            f"the history")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    from repro.core.profiling import COUNTERS

    lu0 = COUNTERS.lu_factor
    t0 = time.perf_counter()
    yield
    _bench_times[item.nodeid] = round(time.perf_counter() - t0, 4)
    # which bench paid for which factorizations: the session-cached
    # campaign/MC artifacts bill their solves to the bench that ran
    # first (the one that owns the timing), matching bench_wall_s
    _bench_lu[item.nodeid] = COUNTERS.lu_factor - lu0


def pytest_sessionfinish(session, exitstatus):
    if not _bench_times:
        return
    from repro.core.profiling import COUNTERS

    rep = COUNTERS.collapse_rep_evals
    hits = COUNTERS.class_hits
    payload = {
        "baseline": _baseline_name(),
        "campaign_sample": os.environ.get("REPRO_CAMPAIGN_SAMPLE"),
        "campaign_workers": os.environ.get("REPRO_CAMPAIGN_WORKERS"),
        "mc_dies": os.environ.get("REPRO_MC_DIES"),
        "bench_wall_s": _bench_times,
        "bench_lu_factor": _bench_lu,
        "patterns": _patterns,
        "collapse": {
            "mode": _bench_collapse(),
            "classes": COUNTERS.classes,
            "rep_evals": rep,
            "class_hits": hits,
            # simulated-stages compression: verdicts delivered per
            # representative evaluation actually run
            "ratio": round((rep + hits) / rep, 4) if rep else None,
        },
        "counters": COUNTERS.snapshot(),
    }
    path = os.path.join(_HERE, _OUTPUT_NAME)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
