"""Human-readable report for a Monte-Carlo mismatch campaign.

Extends the paper's Table I into a *statistical coverage table*: every
headline number (cumulative tier detection, the per-defect-class rows)
is reported as a rate with its Wilson confidence interval, plus the two
quantities Table I cannot express — per-tier yield loss on healthy dies
and the end-of-pipeline test-escape rate.
"""

from __future__ import annotations

from typing import List

from ..faults.sampling import SampledCoverage
from .campaign import MCResult


def _fmt(est: SampledCoverage) -> str:
    lo, hi = est.interval
    return (f"{est.point * 100:6.1f}%  "
            f"[{lo * 100:5.1f}, {hi * 100:5.1f}]  "
            f"({est.detected}/{est.sampled})")


def _pipeline_label(order, upto: str) -> str:
    idx = list(order).index(upto)
    return " + ".join(order[:idx + 1])


def format_mc_report(result: MCResult, confidence: float = 0.95) -> str:
    """Render *result* as the statistical Table I, one string."""
    model = result.model
    lines: List[str] = []
    lines.append(f"Monte-Carlo mismatch campaign: {result.total} dies "
                 f"@ {result.corner}, seed {result.seed}")
    lines.append(f"  tiers: {', '.join(result.tier_order)}   "
                 f"sigma_vt(ref) = {model.sigma_vt * 1e3:.1f} mV   "
                 f"sigma_kp(ref) = {model.sigma_kp_rel * 100:.1f}%")
    lines.append(f"  intervals: Wilson @ {int(confidence * 100)}% "
                 f"confidence")
    lines.append("")

    lines.append("Cumulative detection under variation")
    width = max(len(_pipeline_label(result.tier_order, t))
                for t in result.tier_order)
    for tier in result.tier_order:
        label = _pipeline_label(result.tier_order, tier)
        est = result.cumulative_detection(tier, confidence)
        lines.append(f"  {label:<{width}}  {_fmt(est)}")
    lines.append("")

    lines.append("Yield loss (healthy die rejected)")
    for tier in result.tier_order:
        est = result.yield_loss(tier, confidence)
        lines.append(f"  {tier:<{width}}  {_fmt(est)}")
    any_est = result.yield_loss(None, confidence)
    lines.append(f"  {'any tier':<{width}}  {_fmt(any_est)}")
    lines.append("")

    escape = result.escape_rate(confidence)
    lines.append(f"Test escapes (faulty die passing all tiers): "
                 f"{_fmt(escape).strip()}")
    lines.append("")

    lines.append("Detection by defect class")
    by_kind = result.detection_by_kind(confidence)
    kind_width = max((len(k) for k in by_kind), default=4)
    for label in sorted(by_kind):
        lines.append(f"  {label:<{kind_width}}  {_fmt(by_kind[label])}")

    outcomes = result.outcome_lines()
    if outcomes:
        lines += ["", *outcomes]

    errors = result.error_count()
    if errors:
        lines.append("")
        lines.append(f"  ({errors} tier error(s) recorded — see the "
                     f"records' errors lists)")
    return "\n".join(lines)
