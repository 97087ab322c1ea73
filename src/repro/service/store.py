"""Content-addressed result store: repeated submissions hit cache.

Entries live under ``<root>/<digest[:2]>/<digest>.json``, keyed by the
spec's :meth:`~repro.service.spec.CampaignSpec.digest` — a hash over
the netlist digest, the result-determining campaign config (tiers or
patterns, numerics policy, sample, die population, corner, sigmas) and
the seed.  Anything that could move a
verdict changes the key; anything that only changes scheduling
(shards, workers) does not.

Writes are atomic and durable: the entry is serialized to a unique
temp file in the same directory, ``fsync``\\ ed, and ``os.replace``\\ d
into place.  Two writers racing on one key therefore cannot interleave
bytes — the loser's complete entry simply replaces the winner's
complete (and, by the parity contract, identical) entry, so readers
always see exactly one valid JSON document.

Reads verify the stored key against the requesting spec's key — a
digest collision (or a corrupted entry) is treated as a miss-with-
error rather than silently returning the wrong campaign's records.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.profiling import COUNTERS
from ..core.failpoints import failpoint
from .spec import SERVICE_VERSION, CampaignSpec

_ENTRY_FORMAT = "repro-store-entry"


class StoreEntryError(ValueError):
    """A store entry exists but cannot serve the request (corrupt JSON,
    wrong format, or a key mismatch under the same digest)."""


class ResultStore:
    """Filesystem content-addressed store for campaign artifacts."""

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    def get(self, spec: CampaignSpec) -> Optional[Dict[str, object]]:
        """The stored entry for *spec*, or ``None`` on a miss.

        A hit returns the full entry dict (``key``, ``kind``,
        ``result``); hits and misses tick the ``store_hits`` /
        ``store_misses`` profiling counters — the service's
        "zero new simulations" claim is audited against them.
        """
        path = self.path_for(spec.digest())
        if not os.path.exists(path):
            COUNTERS.store_misses += 1
            return None
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreEntryError(f"{path}: unreadable store entry: "
                                  f"{exc}") from exc
        if entry.get("format") != _ENTRY_FORMAT:
            raise StoreEntryError(f"{path}: not a store entry "
                                  f"(format={entry.get('format')!r})")
        if entry.get("key") != spec.store_key():
            raise StoreEntryError(
                f"{path}: stored key does not match the requested "
                f"spec's (digest collision or corrupted entry)")
        COUNTERS.store_hits += 1
        return entry

    def put(self, spec: CampaignSpec, result: Dict[str, object],
            meta: Optional[Dict[str, object]] = None) -> str:
        """Publish *result* under *spec*'s content address; returns the
        digest.  Atomic (temp + ``os.replace``) and durable (temp file
        fsynced before the rename), so a concurrent reader never sees
        a torn entry and a published entry survives power loss."""
        digest = spec.digest()
        path = self.path_for(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry: Dict[str, object] = {
            "format": _ENTRY_FORMAT,
            "version": SERVICE_VERSION,
            "digest": digest,
            "kind": spec.kind,
            "key": spec.store_key(),
            "result": result,
        }
        if meta:
            entry["meta"] = dict(meta)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(entry, fh)
            fh.flush()
            os.fsync(fh.fileno())
        # chaos seam: a crash here leaves a complete temp file but no
        # published entry — the resumed job must re-merge and publish
        # exactly one valid entry (the chaos harness pins this)
        failpoint("store.pre_replace", path=path, tmp=tmp)
        os.replace(tmp, path)
        COUNTERS.store_writes += 1
        return digest

    # ------------------------------------------------------------------
    def __contains__(self, spec: CampaignSpec) -> bool:
        return os.path.exists(self.path_for(spec.digest()))

    def entries(self) -> Iterator[Tuple[str, str]]:
        """(digest, path) pairs of every stored entry."""
        for sub in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".json"):
                    yield name[:-5], os.path.join(subdir, name)

    # ------------------------------------------------------------------
    def gc(self, ttl_s: float,
           referenced: Iterable[str] = (),
           now: Optional[float] = None) -> "StoreGcReport":
        """Evict entries older than *ttl_s* seconds; returns the report.

        Age is the entry file's mtime (set by the atomic publication
        rename), so a re-published entry's clock restarts.  An expired
        entry whose digest appears in *referenced* — the digests of
        jobs still queued or actively running (see
        :meth:`~repro.service.client.JobQueue.referenced_digests`) —
        is **refused**, never evicted: deleting it would turn a
        just-claimed job's guaranteed cache hit into a silent
        re-simulation, or strand a ``repro result`` between the status
        doc saying ``done`` and the artifact existing.  Refusals are
        first-class in the report so the CLI can shout about them.

        Eviction is a plain ``os.remove``: concurrent writers are safe
        (publication is an atomic rename, so the file is always a
        complete entry or absent), and a writer racing the eviction is
        re-checked via a last-instant mtime stat — an entry that became
        fresh between the scan and the unlink is kept.  A loser's
        ``FileNotFoundError`` (another gc got there first) is counted
        as evicted by whoever saw it.  Stale publication temp files
        (``*.tmp.<pid>`` left by a writer killed before its rename)
        older than the TTL are removed too.
        """
        if ttl_s < 0:
            raise ValueError("ttl_s must be >= 0")
        now = time.time() if now is None else now
        referenced = frozenset(referenced)
        report = StoreGcReport(ttl_s=ttl_s)
        for digest, path in list(self.entries()):
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue                      # vanished mid-scan
            if age <= ttl_s:
                report.kept += 1
                continue
            if digest in referenced:
                report.refused.append(digest)
                continue
            try:
                if now - os.path.getmtime(path) <= ttl_s:
                    report.kept += 1          # re-published mid-gc
                    continue
                os.remove(path)
            except FileNotFoundError:
                pass                          # concurrent gc won
            except OSError:
                continue
            report.evicted.append(digest)
            COUNTERS.store_evictions += 1
        for root, _dirs, names in os.walk(self.root):
            for name in names:
                if ".json.tmp." not in name:
                    continue
                tmp = os.path.join(root, name)
                try:
                    if now - os.path.getmtime(tmp) > ttl_s:
                        os.remove(tmp)
                        report.tmp_removed += 1
                except OSError:
                    continue
        return report


@dataclass
class StoreGcReport:
    """What one :meth:`ResultStore.gc` sweep did (and refused to do)."""

    ttl_s: float
    evicted: List[str] = field(default_factory=list)
    refused: List[str] = field(default_factory=list)
    kept: int = 0
    tmp_removed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"ttl_s": self.ttl_s, "evicted": list(self.evicted),
                "refused": list(self.refused), "kept": self.kept,
                "tmp_removed": self.tmp_removed}
