"""Bench: regenerate Table I — structural fault coverage by defect class.

Runs the complete three-tier campaign (DC test, scan test, BIST) over
the structural fault universe of every mission analog block and prints
the per-defect-class coverage against the paper's reported values.

Shape assertions (absolute numbers depend on the substituted device
models; see EXPERIMENTS.md):

* every short class covers more than the hardest open class;
* gate opens are the weakest class (the paper: 87.8%, the lowest row);
* the short rows reach >= ~90%, capacitor shorts 100%;
* total coverage lands in the high-80s-to-mid-90s band;
* on a full-universe run with collapsing on, the equivalence-class
  compression delivers >= 1.5x as many stage verdicts as it simulates.

Beyond the shapes, every record the run produced must carry the dc,
scan and bist hits and the outcome committed in
``perfbench/reference/table1.json``; each moved fault is named.
"""

import os

from benchmarks.conftest import get_campaign_report, moved_from_reference
from repro.core.profiling import COUNTERS


def test_bench_table1_coverage(benchmark):
    report = benchmark.pedantic(get_campaign_report, rounds=1, iterations=1)
    rows = report.table1_rows()
    by_label = {r[0]: r for r in rows}

    gate_open_cov = by_label["Gate open"][3]
    cap_short_cov = by_label["Capacitor short"][3]
    gs_short_cov = by_label["Gate source short"][3]
    total_cov = by_label["Total"][3]

    # gate opens are the hardest class (a class can be absent from a
    # REPRO_CAMPAIGN_SAMPLE smoke run; its coverage is then None)
    for label in ("Drain open", "Source open", "Gate source short",
                  "Drain source short", "Capacitor short"):
        cov = by_label[label][3]
        if cov is not None:
            assert cov >= gate_open_cov, label
    # shorts essentially covered
    assert cap_short_cov == 1.0
    assert gs_short_cov >= 0.9
    # opens (non-gate) track the paper's ~94%
    assert by_label["Drain open"][3] >= 0.8
    assert by_label["Source open"][3] >= 0.8
    # total lands in the paper's band
    assert total_cov >= 0.8
    # and every verdict is the committed one
    got = {":".join(rec.fault.key()):
           dict({t: rec.hit(t) for t in ("dc", "scan", "bist")},
                outcome=rec.outcome)
           for rec in report.result.records}
    moved = moved_from_reference("table1", got)
    assert not moved, "\n".join(moved)

    # the compression claim only holds on the full universe (a sampled
    # smoke run mostly draws singleton classes) with collapsing on
    full_run = not os.environ.get("REPRO_CAMPAIGN_SAMPLE")
    collapsing = os.environ.get("REPRO_COLLAPSE", "on") != "off"
    if full_run and collapsing and COUNTERS.collapse_rep_evals:
        delivered = COUNTERS.collapse_rep_evals + COUNTERS.class_hits
        ratio = delivered / COUNTERS.collapse_rep_evals
        assert ratio >= 1.5, (
            f"fault-universe compression regressed: {ratio:.3f}x")

    print("\n[Table I] coverage by defect class")
    print(report.format_table1())
