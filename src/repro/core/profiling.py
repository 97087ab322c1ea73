"""Lightweight performance counters for the simulation fast path.

The MNA engine, the LU cache, and the fault campaign all increment a
process-global :class:`Counters` instance (:data:`COUNTERS`).  Counting is
always on — the increments are plain integer adds on a ``__slots__``
object, far below the cost of a single matrix assembly — so speedups are
observable without a special build:

    from repro.core.profiling import COUNTERS, profiled

    with profiled() as c:
        transient(circuit, 1e-9, 1e-12)
    print(c.snapshot())

``repro bench`` (see :mod:`repro.cli`) wraps a campaign run in
:func:`profiled` and prints wall time next to the counter snapshot.

The analog and digital engines import this module directly; the
``repro.core`` package resolves its facade lazily, so importing the
counters pulls in no link, report or supervisor code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Mapping

__all__ = ["COUNTERS", "Counters", "profiled"]

_FIELDS = (
    # MNA assembly
    "assemblies",            # fast-path matrix assemblies
    "assemblies_legacy",     # full per-element stamp-loop assemblies
    "fallback_elements",     # elements stamped via the legacy path inside
                             # a fast-path assembly (unknown Element types)
    "compile_count",         # CompiledAssembly constructions
    "compiled_cache_hits",   # reuses of a cached CompiledAssembly
    "plan_retunes",          # cached plans re-parameterized in place
                             # (Monte-Carlo die sweeps re-stamp values)
    # solves
    "newton_iterations",
    "lu_factor",             # LU factorizations, one per Newton iteration
    "lu_reuse",              # always 0: no solve reuses a factorization
                             # (perfbench/layers.py still reads it)
    # campaign
    "campaign_faults",       # faults evaluated (serial or in a worker)
    # supervised execution (repro.core.supervisor)
    "supervisor_dispatches",  # items sent to a worker (incl. retries)
    "supervisor_spawns",     # worker processes forked (incl. respawns)
    "supervisor_worker_deaths",   # workers that died without a result
    "supervisor_timeouts",   # items recorded as timeout outcomes
    "supervisor_retries",    # poison-item re-dispatches after a death
    "supervisor_quarantined",     # items settled as quarantined
    "supervisor_serial_fallbacks",  # degradations to in-process serial
    "trace_events",          # run-event trace lines emitted
    # Monte-Carlo variation
    "mc_dies",               # sampled dies evaluated (healthy + faulty)
    "mc_bench_reuse",        # die-bench circuits reused across dies
    # numerical resilience (repro.analog.resilience)
    "rescue_refined",        # ladder climbs into iterative refinement
    "rescue_equilibrated",   # ladder climbs into row/col equilibration
    "rescue_lstsq",          # ladder climbs into the SVD lstsq rescue
    "degraded_solves",       # accepted solves above the good threshold
    "unsolvable_systems",    # solves rejected as unsolvable
    "dc_ptc_steps",          # pseudo-transient continuation steps taken
    "dc_ptc_rescues",        # DC points rescued by the PTC homotopy
    "tran_step_rejections",  # transient steps rejected by Newton failure
    "tran_step_halvings",    # dt halvings spent recovering those steps
    # fault-universe compression (repro.faults.collapse)
    "classes",               # structural equivalence classes in a campaign
    "class_hits",            # member stage runs served by a class
                             # representative's memoized result
    "collapse_rep_evals",    # representative stage runs actually executed
    # campaign service (repro.service)
    "service_jobs",          # job specs executed by a coordinator
    "service_shards",        # shard jobs dispatched by a coordinator
    "service_shards_resumed",     # shards skipped on restart because
                                  # their checkpoint was already complete
    "service_shard_retries",      # failed-shard re-dispatch rounds
                                  # (coordinator backoff retry)
    "service_lease_reclaims",     # stale-leased active jobs requeued
    "store_hits",            # submissions served from the result store
    "store_misses",          # submissions that had to simulate
    "store_writes",          # result-store entries published
    "store_evictions",       # entries removed by store gc
)


class Counters:
    """Mutable bag of integer performance counters."""

    __slots__ = _FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in _FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Copy of all counters as a plain dict (JSON-friendly)."""
        return {name: getattr(self, name) for name in _FIELDS}

    def since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """The counters that moved since the *before* snapshot, each by
        how much (the unmoved ones left out)."""
        return {name: getattr(self, name) - value
                for name, value in before.items()
                if getattr(self, name) != value}

    def add(self, delta: Mapping[str, int]) -> None:
        """Add a :meth:`since` delta, e.g. one a forked worker counted."""
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"<Counters {body or 'all zero'}>"


#: process-global counter instance incremented by the engine
COUNTERS = Counters()


@contextmanager
def profiled(reset: bool = True) -> Iterator[Counters]:
    """Context manager yielding :data:`COUNTERS`, reset on entry by default.

    The counters stay valid after the block exits, so callers can read the
    totals of exactly the work done inside the ``with`` body.
    """
    if reset:
        COUNTERS.reset()
    yield COUNTERS
