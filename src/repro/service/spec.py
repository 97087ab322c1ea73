"""Campaign specifications and their content-addressed identity.

A :class:`CampaignSpec` is everything a coordinator needs to reproduce
a campaign run: the campaign kind (fault ``campaign``, Monte-Carlo
``mc``, coverage-vs-pattern ``patterns``) plus the knobs the matching
CLI command exposes.  Two groups of fields matter differently:

* **result-determining** fields (tiers/patterns, numerics policy,
  seed, sample, die population, corner, mismatch sigmas) — together
  with the *netlist digest* of the fault universe they form the store
  key: two specs with equal keys produce byte-identical artifacts, so
  the second submission may be served from the store;
* **execution-only** fields (``shards``, ``workers``) — they change
  how the work is scheduled, never what it produces (the
  ``service-parity`` guard pins that), so they are excluded from the
  key: a 4-shard resubmission of a 1-shard run is still a cache hit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

#: spec / store / job schema version
SERVICE_VERSION = 1
_SPEC_FORMAT = "repro-campaign-spec"

#: campaign kinds the service knows how to run
SPEC_KINDS = ("campaign", "mc", "patterns")

_DEFAULT_TIERS = ("dc", "scan", "bist")
_DEFAULT_PATTERNS = ("prbs7", "prbs15", "scrambler", "isi", "aggressor")

_digest_cache: Dict[str, str] = {}


def netlist_digest() -> str:
    """Stable digest of the design under test, as the campaigns see it.

    The fault universe is enumerated from the mission netlists (every
    device, every Table-I defect kind, block and role tags), so its
    sorted identity keys are a faithful fingerprint of the circuits a
    campaign would simulate: any netlist change that could move a
    verdict — a device added, renamed, re-roled, moved between blocks —
    changes the digest, and therefore misses the store.
    """
    if "universe" not in _digest_cache:
        from ..dft.coverage import build_fault_universe

        keys = sorted(":".join(f.key()) for f in build_fault_universe())
        h = hashlib.blake2b("\n".join(keys).encode(), digest_size=16)
        _digest_cache["universe"] = h.hexdigest()
    return _digest_cache["universe"]


@dataclass(frozen=True)
class CampaignSpec:
    """One submittable campaign description.

    ``tiers`` applies to the ``campaign`` and ``mc`` kinds,
    ``patterns`` to the ``patterns`` kind; the irrelevant group is
    normalised away in :meth:`store_key` so it cannot split the cache.
    ``sample`` subsamples the fault universe of the ``campaign`` and
    ``patterns`` kinds (``None`` or 0: the full universe); an mc run
    draws its own per-die faults and ignores it.  The ``patterns`` kind
    does not run under strict numerics, so it refuses that.  The tier
    list of the ``campaign`` and ``mc`` kinds and the pattern list of
    the ``patterns`` kind must be non-empty lists of known, distinct
    names, as the direct commands require.  ``sigma_vt_mv`` /
    ``sigma_kp_pct`` carry the CLI units (mV, %).
    """

    kind: str
    seed: int = 2016
    sample: Optional[int] = None
    strict_numerics: bool = False
    tiers: Tuple[str, ...] = _DEFAULT_TIERS
    # -- mc only -------------------------------------------------------
    dies: int = 64
    corner: str = "TT"
    sigma_vt_mv: float = 5.0
    sigma_kp_pct: float = 2.0
    # -- patterns only -------------------------------------------------
    patterns: Tuple[str, ...] = _DEFAULT_PATTERNS
    # -- execution-only (never part of the store key) ------------------
    shards: int = 1
    workers: Optional[int] = None

    def __post_init__(self):
        if self.kind not in SPEC_KINDS:
            raise ValueError(f"kind must be one of {SPEC_KINDS}, "
                             f"got {self.kind!r}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.kind == "mc" and self.dies < 1:
            raise ValueError("mc spec needs dies >= 1")
        if self.sample is not None and self.sample < 0:
            raise ValueError("sample must be >= 0")
        for name in ("sigma_vt_mv", "sigma_kp_pct"):
            value = getattr(self, name)
            if not value >= 0:  # NaN included
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.kind == "patterns" and self.strict_numerics:
            raise ValueError("patterns spec does not support "
                             "strict_numerics")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        object.__setattr__(self, "patterns", tuple(self.patterns))
        if self.kind in ("campaign", "mc"):
            from ..dft.registry import check_tier_names

            if not self.tiers:
                raise ValueError(f"{self.kind} spec needs at least one tier")
            check_tier_names(self.tiers)
        if self.kind == "patterns":
            from ..patterns.campaign import check_pattern_sweep

            if not self.patterns:
                raise ValueError("patterns spec needs at least one pattern")
            try:
                check_pattern_sweep(self.patterns)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None

    # -- content addressing --------------------------------------------
    def store_key(self) -> Dict[str, object]:
        """The result-determining identity of this spec.

        Execution-only knobs (``shards``, ``workers``) are excluded:
        the service's parity contract is that they never change the
        artifact.  Fields of the other kinds are normalised to their
        defaults so e.g. an mc spec's ``patterns`` noise cannot split
        the cache, and a ``sample`` of 0 keys like ``None`` (both mean
        the full universe).
        """
        key: Dict[str, object] = {
            "netlist": netlist_digest(),
            "kind": self.kind,
            "seed": self.seed,
            "sample": None if self.kind == "mc" else (self.sample or None),
            # constant since the batched linear-solve backend was
            # retired: keeps every spec's digest, so stores and shard
            # checkpoints written with the entry stay valid
            "backend": "serial",
            # constant since collapsing became an execution detail (an
            # in-process run collapses, records never show it): keeps
            # every spec's digest for the same reason
            "collapse": "off",
            "strict_numerics": self.strict_numerics,
        }
        if self.kind in ("campaign", "mc"):
            key["tiers"] = list(self.tiers)
        if self.kind == "mc":
            key.update(dies=self.dies, corner=self.corner,
                       sigma_vt_mv=self.sigma_vt_mv,
                       sigma_kp_pct=self.sigma_kp_pct)
        if self.kind == "patterns":
            key["patterns"] = list(self.patterns)
        return key

    def digest(self) -> str:
        """Content address: blake2b over the canonical store key."""
        canon = json.dumps(self.store_key(), sort_keys=True)
        return hashlib.blake2b(canon.encode(), digest_size=16).hexdigest()

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "format": _SPEC_FORMAT,
            "version": SERVICE_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "sample": self.sample,
            "strict_numerics": self.strict_numerics,
            "tiers": list(self.tiers),
            "dies": self.dies,
            "corner": self.corner,
            "sigma_vt_mv": self.sigma_vt_mv,
            "sigma_kp_pct": self.sigma_kp_pct,
            "patterns": list(self.patterns),
            "shards": self.shards,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        """Parse a :meth:`to_dict` document.  Keys this version does
        not know are ignored, so documents older versions wrote (with
        the since retired ``backend`` and ``collapse`` entries) still
        load.  A stored empty tier or pattern list reaches the
        constructor's check as written instead of becoming the
        default."""
        if data.get("format") != _SPEC_FORMAT:
            raise ValueError(
                f"not a campaign spec: {data.get('format')!r}")
        if data.get("version") != SERVICE_VERSION:
            raise ValueError(
                f"unsupported spec version {data.get('version')!r}")
        return cls(
            kind=str(data["kind"]),
            seed=int(data.get("seed", 2016)),
            sample=(None if data.get("sample") is None
                    else int(data["sample"])),
            strict_numerics=bool(data.get("strict_numerics", False)),
            tiers=tuple(_DEFAULT_TIERS if data.get("tiers") is None
                        else data["tiers"]),
            dies=int(data.get("dies", 64)),
            corner=str(data.get("corner", "TT")),
            sigma_vt_mv=float(data.get("sigma_vt_mv", 5.0)),
            sigma_kp_pct=float(data.get("sigma_kp_pct", 2.0)),
            patterns=tuple(_DEFAULT_PATTERNS if data.get("patterns") is None
                           else data["patterns"]),
            shards=int(data.get("shards", 1)),
            workers=(None if data.get("workers") is None
                     else int(data["workers"])),
        )

    def with_execution(self, shards: Optional[int] = None,
                       workers: Optional[int] = None) -> "CampaignSpec":
        """Copy with different execution-only knobs (same store key)."""
        return replace(self,
                       shards=self.shards if shards is None else shards,
                       workers=self.workers if workers is None
                       else workers)
