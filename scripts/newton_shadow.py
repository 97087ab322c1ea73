#!/usr/bin/env python
"""Newton-kernel shadow smoke: the oracle beside real campaign traffic.

Runs the slow oracle of ``tests/analog/reference_newton.py`` beside
every MNA assembly (``CompiledAssembly.assemble``), every linear solve
(each Newton iteration's rung 0, ``resilience.direct_solve``, or the
``resilience.climb_ladder`` that follows its miss, and every
``resilient_solve``) and every Newton loop (``dc.newton``) of

* a fault campaign over one fault of every (block, kind) stratum of
  the paper's universe (dc, scan and bist tiers),
* ``MonteCarloCampaign(seed=1).run(2)``,
* a 4-fault pattern campaign over the five default stimuli,
* an ``ac_analysis`` sweep of the receiver bench (its complex solves
  go through ``resilient_solve``),
* a short trapezoidal transient of a linear RC ladder (a matrix that
  never changes, factored every iteration),

each run with one worker, in this process, and requires every ``A``,
``b``, ``x`` and ``SolveDiagnostics`` to be bitwise equal.  Exits 1 at
the end of the run if anything differed, naming the first difference
and its circuit, or if no solve was shadowed at all.

Used locally and as the CI guard-job ``newton-shadow`` check.
"""

import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests" / "analog"))

from reference_newton import Shadow  # noqa: E402

from repro.analog import Circuit, ac_analysis, logspace_freqs  # noqa: E402
from repro.analog import step_waveform, transient  # noqa: E402
from repro.dft.coverage import build_fault_universe  # noqa: E402
from repro.dft.coverage import run_paper_campaign  # noqa: E402
from repro.dft.duts import build_receiver_dut  # noqa: E402
from repro.patterns.campaign import PatternCampaign  # noqa: E402
from repro.variation import MonteCarloCampaign  # noqa: E402


def one_per_stratum(universe):
    """The first fault of every (block, kind) stratum."""
    picks = {}
    for fault in universe:
        picks.setdefault((fault.block, fault.kind), fault)
    return list(picks.values())


# each workload evaluates in this process, where the shadow is
# installed: a forked worker's solves would escape it


def run_campaign():
    faults = one_per_stratum(build_fault_universe())
    return run_paper_campaign(faults, workers=1).result.records


def run_mc():
    return MonteCarloCampaign(seed=1).run(2, workers=1).records


def run_patterns():
    return PatternCampaign().run(sample=4, workers=1).result.records


def run_ac():
    dut = build_receiver_dut()
    dut.set_condition()
    op = dut.solve()
    freqs = logspace_freqs(1e6, 1e10, 21)
    ac_analysis(dut.circuit, "VUP", freqs, op=op)
    return []


def run_rc_ladder():
    c = Circuit("rc_ladder")
    vs = c.add_vsource("n0", "0", 0.0, name="VS")
    for i in range(8):
        c.add_resistor(f"n{i}", f"n{i + 1}", 500.0)
        c.add_capacitor(f"n{i + 1}", "0", 0.2e-12)
    vs.waveform = step_waveform(0.0, 1.0, 0.1e-9)
    transient(c, 1e-9, 10e-12, method="trap")
    return []


WORKLOADS = (
    ("campaign, one fault per (block, kind)", run_campaign),
    ("mc seed 1, 2 dies", run_mc),
    ("patterns, 4 faults", run_patterns),
    ("ac sweep of the receiver bench", run_ac),
    ("linear RC-ladder transient", run_rc_ladder),
)


def main() -> int:
    patch = pytest.MonkeyPatch()
    shadow = Shadow(patch)
    lines = []
    try:
        for name, run in WORKLOADS:
            t0 = time.monotonic()
            try:
                records = run()
            except AssertionError:
                break
            errors = [(r, e) for r in records for e in r.errors]
            if shadow.mismatches:
                break
            if errors:
                print(f"{name}: tier error {errors[0][1]}")
                return 1
            lines.append(f"{name}: {time.monotonic() - t0:.1f}s")
        if not shadow.mismatches:
            try:
                shadow.check_tallies()
            except AssertionError:
                pass
    finally:
        patch.undo()
    if shadow.mismatches:
        print(f"{len(shadow.mismatches)} mismatch(es); first:")
        print(f"  {shadow.mismatches[0]}")
        return 1
    for line in lines:
        print(line)
    print(
        f"{shadow.assemblies} assemblies, {shadow.solves} solves and "
        f"{shadow.loops} Newton loops bitwise equal to the oracle"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
