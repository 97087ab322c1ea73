#!/usr/bin/env python
"""Service chaos smoke: a SIGKILLed serve loop never loses work.

Runs the seeded kill matrix (``tests/service/chaos.py``) against a
small fault campaign: for each kill point a forked serve loop is
SIGKILLed mid-job at a deterministic trace-event breakpoint, its stale
lease is reclaimed, and a fresh serve resumes the job.  Asserts the
crash-recovery contract from the issue:

* the resumed job's merged artifact is byte-identical to an
  uninterrupted reference run;
* zero completed items are re-simulated (``item_done`` counts over the
  append-only shard traces equal the item count; the torn-checkpoint
  kill is allowed exactly one legitimate re-run);
* the store holds exactly one valid entry for the spec;
* the stale-lease reclaim works across two coordinators on one root.

Used locally, as the CI guard-job ``service-chaos`` check, and (with
``CHAOS_SEEDS``) as the nightly multi-seed kill matrix.  ``--json``
writes the full report for artifact upload.
"""

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests" / "service"))

from chaos import run_kill_matrix  # noqa: E402

from repro.service import CampaignSpec  # noqa: E402

#: small but non-trivial: >= 8 items (the seeded nth ranges assume
#: that) split over enough shards that kills land mid- and inter-shard
SAMPLE, SHARDS = 12, 3


def check(condition, label):
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        sys.exit(f"chaos smoke failed: {label}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default=os.environ.get(
        "CHAOS_SEEDS", "0"),
        help="comma-separated kill-matrix seeds (default: 0)")
    parser.add_argument("--json", default=None,
                        help="write the full chaos report here")
    parser.add_argument("--workdir", default=None,
                        help="keep the service roots (traces, "
                             "checkpoints, stores) under this "
                             "directory instead of a throwaway "
                             "tempdir — CI uploads them as artifacts")
    args = parser.parse_args()

    if "fork" not in multiprocessing.get_all_start_methods():
        print("fork unavailable; chaos smoke skipped")
        return

    spec = CampaignSpec(kind="campaign", sample=SAMPLE, shards=SHARDS,
                        tiers=("dc", "scan"))
    seeds = [int(s) for s in str(args.seeds).split(",") if s != ""]
    reports = []
    for seed in seeds:
        if args.workdir:
            base = os.path.join(args.workdir, f"seed-{seed}")
            os.makedirs(base, exist_ok=True)
            report = run_kill_matrix(base, spec, seed=seed,
                                     echo=lambda line: print(f"  {line}"))
        else:
            with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
                report = run_kill_matrix(
                    tmp, spec, seed=seed,
                    echo=lambda line: print(f"  {line}"))
        reports.append(report)
        print(f"seed {seed}:")
        for case in report.cases:
            check(case.killed_by_sigkill,
                  f"{case.point}: victim died by SIGKILL")
            check(case.reclaimed,
                  f"{case.point}: stale lease reclaimed on resume")
            check(case.final_state == "done",
                  f"{case.point}: resumed job finished done")
            check(case.bytes_identical,
                  f"{case.point}: artifact byte-identical to reference")
            check(case.item_done_total == case.expected_item_done,
                  f"{case.point}: {case.item_done_total} item_done "
                  f"events == expected {case.expected_item_done} "
                  f"(zero re-simulated items)")
            check(case.store_entries == 1,
                  f"{case.point}: exactly one valid store entry")
        demo = report.reclaim_demo
        check(bool(demo.get("ok")),
              "two-coordinator stale-lease reclaim demo")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
        print(f"report written to {args.json}")
    print(f"chaos smoke ok ({len(seeds)} seed(s), "
          f"{sum(len(r.cases) for r in reports)} kills)")


if __name__ == "__main__":
    main()
