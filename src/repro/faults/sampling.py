"""Statistical tooling for sampled fault campaigns.

Full transistor-level fault simulation is expensive (the paper's own
flow spends CPU-days on commercial simulators); production teams
routinely *sample* the fault universe and report coverage with a
confidence interval.  This module provides:

* stratified sampling of a fault universe (preserving the block and
  defect-class mix);
* Wilson-score confidence intervals on measured coverage;
* a convergence helper that grows the sample until the interval is
  tight enough.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import StructuralFault

#: z-scores for the usual confidence levels
Z_SCORES = {0.80: 1.2816, 0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation for the small samples a
    fault-campaign pilot uses; degenerates gracefully at p = 0 or 1.
    """
    if trials <= 0:
        return (0.0, 1.0)
    try:
        z = Z_SCORES[confidence]
    except KeyError:
        raise ValueError(f"confidence must be one of {sorted(Z_SCORES)}") \
            from None
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z * z / (4 * trials * trials))
    # centre +- half is exact in reals but rounds in floats: at p = 1 the
    # upper bound can land at 1 - 1 ulp, excluding the point estimate.
    # Clamp the interval to always contain p (and stay within [0, 1]).
    lo = min(max(0.0, centre - half), p)
    hi = max(min(1.0, centre + half), p)
    return (lo, hi)


def stratified_sample(universe: Sequence[StructuralFault], n: int,
                      seed: int = 2016,
                      key: Callable[[StructuralFault], object] = None
                      ) -> List[StructuralFault]:
    """Sample *n* faults preserving the stratum mix.

    Default strata are ``(block, fault kind)``; each stratum contributes
    proportionally (largest-remainder rounding), so a sampled campaign's
    class composition matches the full universe's.  A negative *n* is a
    ``ValueError``.
    """
    if n < 0:
        raise ValueError(f"sample must be >= 0, got {n}")
    if n >= len(universe):
        return list(universe)
    if key is None:
        key = lambda f: (f.block, f.kind)  # noqa: E731

    strata: Dict[object, List[StructuralFault]] = {}
    for fault in universe:
        strata.setdefault(key(fault), []).append(fault)

    total = len(universe)
    rng = random.Random(seed)
    quotas: List[Tuple[object, int, float]] = []
    for stratum, faults in sorted(strata.items(), key=lambda kv: str(kv[0])):
        exact = n * len(faults) / total
        quotas.append((stratum, int(exact), exact - int(exact)))
    assigned = sum(q for _, q, _ in quotas)
    # largest remainders get the leftover slots
    leftovers = sorted(quotas, key=lambda x: -x[2])[: n - assigned]
    bump = {stratum for stratum, _, _ in leftovers}

    sample: List[StructuralFault] = []
    for stratum, quota, _ in quotas:
        take = quota + (1 if stratum in bump else 0)
        pool = strata[stratum]
        take = min(take, len(pool))
        sample.extend(rng.sample(pool, take))
    return sample


def pick_die_fault(universe: Sequence[StructuralFault], seed: int,
                   die_index: int) -> StructuralFault:
    """The fault injected into die *die_index* of a Monte-Carlo campaign.

    A pure function of ``(seed, die_index)`` over a deterministic
    universe ordering — like the mismatch draws, the choice survives any
    re-chunking of the die loop over worker processes, which is what
    keeps escape accounting byte-reproducible for a fixed seed.
    """
    if not universe:
        raise ValueError("cannot pick a fault from an empty universe")
    h = blake2b(f"{seed}:{die_index}:fault".encode("utf-8"), digest_size=8)
    return universe[int.from_bytes(h.digest(), "big") % len(universe)]


@dataclass
class SampledCoverage:
    """Coverage estimate from a sampled campaign."""

    detected: int
    sampled: int
    confidence: float

    @property
    def point(self) -> float:
        return self.detected / self.sampled if self.sampled else 1.0

    @property
    def interval(self) -> Tuple[float, float]:
        return wilson_interval(self.detected, self.sampled,
                               self.confidence)

    @property
    def half_width(self) -> float:
        lo, hi = self.interval
        return (hi - lo) / 2.0

    def contains(self, value: float) -> bool:
        lo, hi = self.interval
        return lo <= value <= hi

    def __str__(self) -> str:
        lo, hi = self.interval
        return (f"{self.point * 100:.1f}% "
                f"[{lo * 100:.1f}, {hi * 100:.1f}] "
                f"@{int(self.confidence * 100)}% "
                f"(n={self.sampled})")


def estimate_coverage(universe: Sequence[StructuralFault],
                      detector: Callable[[StructuralFault], bool],
                      n: int, seed: int = 2016,
                      confidence: float = 0.95) -> SampledCoverage:
    """One-shot sampled coverage estimate with a Wilson interval."""
    sample = stratified_sample(universe, n, seed=seed)
    detected = sum(1 for f in sample if detector(f))
    return SampledCoverage(detected=detected, sampled=len(sample),
                           confidence=confidence)


def adaptive_estimate(universe: Sequence[StructuralFault],
                      detector: Callable[[StructuralFault], bool],
                      target_half_width: float = 0.05,
                      start: int = 24, step: int = 24,
                      max_n: Optional[int] = None, seed: int = 2016,
                      confidence: float = 0.95) -> SampledCoverage:
    """Grow the sample until the confidence interval is tight enough.

    Evaluates faults in a fixed stratified order so earlier results are
    reused as the sample grows.
    """
    max_n = min(max_n or len(universe), len(universe))
    order = stratified_sample(universe, max_n, seed=seed)
    detected = 0
    n = 0
    for fault in order:
        detected += 1 if detector(fault) else 0
        n += 1
        if n >= start and (n - start) % step == 0:
            est = SampledCoverage(detected, n, confidence)
            if est.half_width <= target_half_width:
                return est
    return SampledCoverage(detected, n, confidence)
