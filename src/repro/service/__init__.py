"""Campaign-as-a-service: sharded job runner + content-addressed store.

The submit-poll-tally shape of the paper's BIST driver (poll
``bist_done``, accumulate per-sector error counters), promoted to the
campaign scale (DESIGN.md §16): a :class:`CampaignSpec` describes a
fault / Monte-Carlo / pattern campaign; the :class:`Coordinator`
shards it by fault-index or die-index range, runs every shard through
the existing supervised campaign paths (each writing its own durable
JSONL checkpoint), merges the shard checkpoints on read into one
artifact byte-identical to an unsharded run, and publishes it to a
:class:`ResultStore` keyed by content — so resubmitting the same spec
is a cache hit instead of a re-simulation.  :class:`JobQueue` is the
filesystem job front end behind ``repro serve`` / ``repro submit`` /
``repro status`` / ``repro result``.

The layer is crash-resilient and testably so: claims carry
heartbeat-refreshed leases (a dead coordinator's job is reclaimed, not
deadlocked), restarts resume at shard *and* item granularity from the
durable checkpoints, and failed shards retry under deterministic
backoff before the job escalates to a first-class ``failed`` state.
The chaos harness that SIGKILLs real serve loops at the
:mod:`repro.core.failpoints` seams, to prove the resumed artifact is
byte-identical with zero re-simulated items, is test code
(``tests/service/chaos.py``).
"""

from .coordinator import Coordinator, JobOutcome, derive_progress
from .client import JobQueue, serve
from .shard import shard_ranges
from .spec import CampaignSpec, netlist_digest
from .store import ResultStore, StoreGcReport

__all__ = [
    "CampaignSpec",
    "Coordinator",
    "JobOutcome",
    "JobQueue",
    "ResultStore",
    "StoreGcReport",
    "derive_progress",
    "netlist_digest",
    "serve",
    "shard_ranges",
]
