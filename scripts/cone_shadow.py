#!/usr/bin/env python
"""Cone shadow smoke: every probed transient beside its whole netlist.

A transient given ``probes`` steps only the probes' cone of influence
(``repro.analog.transient.probe_cone``).  This reruns every probed
transient of

* a fault campaign over one fault of every (block, kind) stratum of
  the paper's universe (dc, scan and bist tiers),
* ``MonteCarloCampaign(seed=1).run(2)``,

(``newton_shadow``'s campaign and Monte-Carlo workloads, each run with
one worker, in this process) on a clone of the netlist it was handed,
with ``probes=None``: the whole netlist to full length, the oracle.  It
requires

* every probe wave to agree with the oracle's within 1e-12 V over the
  samples the run kept,
* a run with a ``stop`` to end at the oracle's first sample where the
  ``stop`` holds (the whole run when it never does),
* every toggle run's verdict (its bias excursion after the settling
  mask against the window comparator's trip point) to equal the
  verdict of the oracle's full-length run.

Exits 1 if anything differed, naming every differing run, or if no
transient was pruned at all.

Used locally and as the CI guard-job ``cone-shadow`` check.
"""

import sys
import time

import numpy as np
import pytest

import repro.analog
from newton_shadow import run_campaign, run_mc
from repro.analog.transient import probe_cone
from repro.dft.duts import build_toggle_dut
from repro.dft.scan_test import TOGGLE_MASK, TOGGLE_THRESHOLD

#: how far a probed run's waves may sit from the whole netlist's [V]
AGREE = 1e-12


def toggle_verdict(tr, vcm, ref):
    over = tr.time > TOGGLE_MASK
    return float(np.abs(tr.vdiff(vcm, ref))[over].max()) > TOGGLE_THRESHOLD


class ConeShadow:
    """Reruns every probed ``transient`` on the whole netlist."""

    def __init__(self, patch: pytest.MonkeyPatch) -> None:
        self.runs = 0
        self.pruned = 0
        self.toggles = 0
        self.worst = 0.0
        self.mismatches = []
        dut = build_toggle_dut()
        self.toggle_probes = [dut.vcm_node, dut.ref_node]
        kernel = repro.analog.transient

        def shadowed(circuit, t_stop, dt, probes=None, **kw):
            if probes is None:
                return kernel(circuit, t_stop, dt, **kw)
            twin = circuit.clone()
            result = kernel(circuit, t_stop, dt, probes=probes, **kw)
            stop = kw.pop("stop", None)
            oracle = kernel(twin, t_stop, dt, **kw)
            pruned = len(probe_cone(twin, probes)) < len(twin)
            self.check(twin.name, list(probes), stop, result, oracle, pruned)
            return result

        # every module that imported the kernel by name, and the
        # package attribute the function-local imports read
        for module in list(sys.modules.values()):
            mine = getattr(module, "transient", None) is kernel
            if mine and module.__name__.startswith("repro"):
                patch.setattr(module, "transient", shadowed)

    def check(self, circuit, probes, stop, result, oracle, pruned) -> None:
        self.runs += 1
        self.pruned += pruned
        name = f"run {self.runs} ({circuit}, probes {probes})"
        n = len(result.time)
        if not np.array_equal(result.time, oracle.time[:n]):
            self.mismatches.append(f"{name}: sample times differ")
            return
        gap = max(
            float(np.abs(result.v(p) - oracle.v(p)[:n]).max()) for p in probes
        )
        self.worst = max(self.worst, gap)
        if gap > AGREE:
            self.mismatches.append(
                f"{name}: probes {gap:.3e} V from the whole netlist"
            )
        want = len(oracle.time)
        if stop is not None:
            for k in range(1, len(oracle.time)):
                if stop(oracle.time[k], [oracle.v(p)[k] for p in probes]):
                    want = k + 1
                    break
        if n != want:
            self.mismatches.append(
                f"{name}: kept {n} samples, the whole netlist's run is "
                f"decided at {want}"
            )
        if probes == self.toggle_probes:
            self.toggles += 1
            got = toggle_verdict(result, *probes)
            full = toggle_verdict(oracle, *probes)
            if got != full:
                self.mismatches.append(
                    f"{name}: toggle verdict {got}, whole netlist {full}"
                )


# newton-shadow's traffic, each run with one worker, in this process
WORKLOADS = (
    ("campaign, one fault per (block, kind)", run_campaign),
    ("mc seed 1, 2 dies", run_mc),
)


def main() -> int:
    patch = pytest.MonkeyPatch()
    shadow = ConeShadow(patch)
    lines = []
    try:
        for name, run in WORKLOADS:
            t0 = time.monotonic()
            errors = [e for r in run() for e in r.errors]
            if errors:
                print(f"{name}: tier error {errors[0]}")
                return 1
            lines.append(f"{name}: {time.monotonic() - t0:.1f}s")
    finally:
        patch.undo()
    if shadow.mismatches:
        print(f"{len(shadow.mismatches)} mismatch(es):")
        for line in shadow.mismatches:
            print(f"  {line}")
        return 1
    if not shadow.pruned:
        print(
            f"{shadow.runs} probed transients, none pruned: the cone no "
            f"longer drops anything from these workloads"
        )
        return 1
    for line in lines:
        print(line)
    print(
        f"{shadow.runs} probed transients ({shadow.pruned} pruned, "
        f"{shadow.toggles} toggle verdicts) within {shadow.worst:.1e} V "
        f"of the whole netlist"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
