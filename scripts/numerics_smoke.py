#!/usr/bin/env python
"""Numerics acceptance smoke: singular circuits cannot poison a campaign.

Runs real DC solves on deliberately pathological circuits through both
campaign layers, serially and fanned out, and asserts the resilience
issue's acceptance criteria:

* an *inconsistent* singular circuit (conflicting parallel voltage
  sources) settles as a first-class ``unsolvable`` outcome — in the
  record, ``outcome_counts()``, the JSON export and the run trace —
  instead of crashing the run or polluting coverage with NaN garbage;
* a *consistent* rank-deficient circuit is rescued by the fallback
  ladder (the rung counters prove a rescue engaged) and the campaign
  proceeds normally;
* a *degraded* solve (mildly inconsistent sources) is trusted by
  default and escalates to ``unsolvable`` under strict numerics — the
  ``--strict-numerics`` CLI semantics;
* healthy faults' records stay byte-identical to an unpoisoned run's,
  serial and ``--workers 4`` alike;
* the Monte-Carlo layer settles unsolvable dies the same way.

Used locally and as the CI guard-job numerics smoke.
"""

import json
import multiprocessing
import sys
import tempfile

from repro.analog import (
    Circuit,
    Resistor,
    VoltageSource,
    dc_operating_point,
    numerics_policy,
)
from repro.core.profiling import COUNTERS
from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.model import FaultKind, StructuralFault
from repro.variation.campaign import MonteCarloCampaign

SINGULAR, DEGENERATE, DEGRADED = "M3", "M5", "M9"


def universe(n=16):
    kinds = list(FaultKind)
    return [
        StructuralFault(
            device=f"M{i}",
            kind=kinds[i % len(kinds)],
            block=("tx", "cp", "vcdl")[i % 3],
        )
        for i in range(n)
    ]


def conflicting_circuit(delta=1.0):
    """Parallel voltage sources disagreeing by *delta* volts: exactly
    singular MNA; delta=1.0 is unsolvable, a tiny delta is degraded,
    delta=0.0 is consistent rank deficiency (lstsq-rescuable)."""
    c = Circuit("conflict")
    c.add(VoltageSource("V1", "a", "0", 1.0))
    c.add(VoltageSource("V2", "a", "0", 1.0 + delta))
    c.add(Resistor("R1", "a", "0", 1e3))
    return c


def healthy_circuit():
    c = Circuit("ok")
    c.add(VoltageSource("VS", "a", "0", 1.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    return c


def make_campaign(poisoned, strict=False):
    campaign = FaultCampaign(strict_numerics=strict)
    campaign.add_tier("dc", lambda f: int(f.device[1:]) % 3 == 0)

    def sim(fault):
        if poisoned and fault.device == SINGULAR:
            dc_operating_point(conflicting_circuit(1.0))
        elif poisoned and fault.device == DEGENERATE:
            dc_operating_point(conflicting_circuit(0.0))
        elif poisoned and fault.device == DEGRADED:
            dc_operating_point(conflicting_circuit(4e-4))
        else:
            dc_operating_point(healthy_circuit())
        return int(fault.device[1:]) % 2 == 0

    campaign.add_tier("sim", sim)
    return campaign


def check(condition, label):
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        sys.exit(f"numerics smoke failed: {label}")


class SingularTier:
    """Minimal MC TestTier whose screen and detector hit the singular
    inconsistent circuit."""

    name = "dc"

    def screen(self):
        dc_operating_point(conflicting_circuit(1.0))
        return True

    def applies_to(self, fault):
        return True

    def detect(self, fault):
        dc_operating_point(conflicting_circuit(1.0))
        return True


def run_fault_layer():
    faults = universe()
    clean = make_campaign(poisoned=False).run(faults)

    worker_counts = [1]
    if "fork" in multiprocessing.get_all_start_methods():
        worker_counts.append(4)
    else:
        print("fork unavailable; parallel leg skipped")

    results = {}
    before = COUNTERS.snapshot()
    for workers in worker_counts:
        with tempfile.NamedTemporaryFile("r", suffix=".jsonl") as trace:
            result = make_campaign(poisoned=True).run(
                faults,
                workers=workers,
                trace=trace.name,
            )
            events = [json.loads(line) for line in open(trace.name)]
        results[workers] = result
        print(f"--workers {workers}:")

        by_dev = {r.fault.device: r for r in result.records}
        check(
            by_dev[SINGULAR].outcome == "unsolvable",
            "inconsistent singular fault settled unsolvable",
        )
        check(
            by_dev[DEGENERATE].outcome == "ok",
            "consistent rank-deficient fault rescued (campaign ok)",
        )
        check(
            by_dev[DEGRADED].outcome == "ok",
            "degraded fault trusted under the default policy",
        )
        check(
            result.outcome_counts().get("unsolvable") == 1,
            "outcome_counts reports the unsolvable fault",
        )
        exported = CampaignResult.from_json(result.to_json())
        check(
            exported.records[int(SINGULAR[1:])].outcome == "unsolvable",
            "unsolvable outcome survives the JSON export",
        )
        done = [e for e in events if e.get("event") == "item_done"]
        check(
            any(e.get("outcome") == "unsolvable" for e in done),
            "run trace records the unsolvable settle",
        )
        poisoned_devs = (SINGULAR, DEGENERATE, DEGRADED)
        healthy_match = all(
            json.dumps(rec.to_dict()) == json.dumps(ref.to_dict())
            for rec, ref in zip(result.records, clean.records)
            if rec.fault.device not in poisoned_devs
        )
        check(
            healthy_match,
            "healthy records byte-identical to unpoisoned run",
        )

    after = COUNTERS.snapshot()
    check(
        after["rescue_lstsq"] > before["rescue_lstsq"],
        "fallback ladder engaged its lstsq rung (counter moved)",
    )
    check(
        after["unsolvable_systems"] > before["unsolvable_systems"],
        "unsolvable_systems counter moved",
    )
    if len(worker_counts) == 2:
        check(
            results[1].records == results[4].records,
            "records identical serial vs --workers 4",
        )

    res = make_campaign(poisoned=True, strict=True).run(faults)
    by_dev = {r.fault.device: r for r in res.records}
    check(
        by_dev[DEGRADED].outcome == "unsolvable",
        "strict numerics escalates the degraded fault",
    )


def run_mc_layer():
    fault = [StructuralFault("M1", FaultKind.DRAIN_OPEN, "cp", "")]
    res = MonteCarloCampaign(
        tiers=[SingularTier()], universe=fault, seed=7
    ).run(2)
    check(
        res.outcome_counts() == {"unsolvable": 2},
        "MC layer settles unsolvable dies first-class",
    )
    rec = res.records[0]
    check(
        not rec.healthy_pass and rec.escaped,
        "unsolvable die fails the screen and detects nothing",
    )


def main():
    with numerics_policy():  # pin the default policy for the asserts
        print("fault-campaign layer:")
        run_fault_layer()
        print("Monte-Carlo layer:")
        run_mc_layer()
    print("numerics smoke ok")


if __name__ == "__main__":
    main()
