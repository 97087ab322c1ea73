"""Bench: the coverage-vs-pattern campaign and the BER-vs-length sweep.

Records a per-pattern block (coverage, unique fault classes, healthy
lock time vs the stimulus-scaled 2 us budget) and a per-stimulus BER
block into the BENCH artifact, and pins the pattern engine's headline
claim: at least one non-random stimulus class (the crosstalk
aggressor) detects a fault class at speed that plain PRBS7 misses.
The campaign bench also holds every fault it ran to the detecting
stages and outcome committed in ``perfbench/reference/patterns.json``.
"""

import os

from .conftest import moved_from_reference, record_patterns


def _campaign_sample():
    """Mirror the campaign benches' sampling knob."""
    sample = os.environ.get("REPRO_CAMPAIGN_SAMPLE")
    return int(sample) if sample else None


def test_bench_pattern_campaign(benchmark):
    from repro.patterns.campaign import PatternCampaign

    campaign = PatternCampaign()

    def run():
        return campaign.run(sample=_campaign_sample())

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    # healthy die locks inside every stimulus' scaled budget
    for pattern, summary in result.lock_summary.items():
        for phase, row in summary["phases"].items():
            assert row["within_budget"], \
                f"healthy lock blew the {pattern} budget from phase {phase}"
            assert row["errors_after_lock"] == 0, \
                f"healthy die saw post-lock errors under {pattern}"

    # the static stages are pattern-independent, so every stimulus'
    # full-tier coverage at least matches the static floor
    floor = len(result.static_detected()) / max(result.total, 1)
    for pattern in result.patterns:
        assert result.coverage(pattern) >= floor

    # every fault's detecting stages and outcome are the committed ones
    moved = moved_from_reference("patterns", result.to_dict()["faults"])
    assert not moved, "\n".join(moved)

    record_patterns("campaign", {
        "sample": _campaign_sample(),
        "total_faults": result.total,
        "static_detected": len(result.static_detected()),
        "per_pattern": {
            p: {
                "coverage": result.coverage(p),
                "at_speed_detected": len(result.at_speed_detected(p)),
                "unique_classes": result.unique_at_speed_classes()[p],
                "classes_beyond_prbs7": result.classes_beyond_prbs7(p),
                "lock": result.lock_summary[p],
            } for p in result.patterns
        },
    })

    print("\n[patterns] coverage-vs-pattern campaign "
          f"({result.total} faults)")
    for p in result.patterns:
        beyond = result.classes_beyond_prbs7(p)
        print(f"  {p:<10} coverage {result.coverage(p) * 100:5.1f}%  "
              f"at-speed {len(result.at_speed_detected(p)):3d}  "
              f"beyond-prbs7 {len(beyond)}")


def test_bench_unique_detection(benchmark):
    """The headline set-algebra claim, pinned on a concrete fault: a
    V_p-drift charge-pump fault survives plain PRBS7 at speed (the
    drifted sampling point still sees clean mid-eye PRBS edges) but the
    aggressor stimulus' crosstalk penalty pushes the drifted sampler
    past the eye edge — post-lock errors the checker tallies."""
    from repro.dft.bist import BISTTest
    from repro.dft.golden import GoldenSignatures
    from repro.faults.behavior_map import map_fault_to_knobs
    from repro.patterns.campaign import bist_universe, fault_class

    drift = [f for f in bist_universe()
             if f.block == "cp"
             and (map_fault_to_knobs(f) or {}).get("vp_drift")]
    assert drift, "fault universe lost its V_p-drift class"
    fault = drift[0]

    goldens = GoldenSignatures()

    def run():
        prbs7 = BISTTest(goldens, pattern="prbs7")
        agg = BISTTest(goldens, pattern="aggressor")
        return prbs7.at_speed_detect(fault), agg.at_speed_detect(fault)

    prbs7_hit, aggressor_hit = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    assert not prbs7_hit, "PRBS7 now detects the drift fault at speed"
    assert aggressor_hit, "aggressor stimulus lost the drift class"

    record_patterns("unique_detection", {
        "fault": ":".join(fault.key()),
        "fault_class": fault_class(fault),
        "drift_faults_in_universe": len(drift),
        "prbs7_at_speed": prbs7_hit,
        "aggressor_at_speed": aggressor_hit,
    })
    print(f"\n[patterns] {fault_class(fault)} ({fault.device}): "
          f"PRBS7 misses, aggressor catches "
          f"({len(drift)} drift faults in universe)")


def test_bench_ber_sweep(benchmark):
    from repro.patterns.campaign import ber_vs_length_sweep

    points = benchmark.pedantic(ber_vs_length_sweep, rounds=1,
                                iterations=1)

    assert len(points) >= 4
    for pt in points:
        assert pt.locked, f"healthy loop failed to lock under {pt.pattern}"
        assert pt.within_budget, \
            f"healthy lock blew the scaled budget under {pt.pattern}"

    record_patterns("ber_sweep", [pt.to_dict() for pt in points])

    print("\n[patterns] BER vs pattern length (healthy loop)")
    for pt in points:
        print(f"  {pt.pattern:<10} len {pt.length_bits:>10d}  "
              f"ber {pt.ber:.2e}  lock {pt.lock_time_s * 1e9:7.1f} ns  "
              f"budget {pt.budget_s * 1e9:7.1f} ns")
