#!/usr/bin/env python
"""Consolidated CI guard harness: every repo invariant smoke in one run.

Replaces the guard job's inline step-per-smoke shell with a single
entry point that runs each check, keeps going on failure, and prints a
summary table (CI fails on any non-OK row).  Checks:

1. private-access  — no cross-object ``obj._attr`` reach-ins in src/
2. campaign-resume — export+resume parity of the fault campaign
3. supervision     — hang/worker-kill isolation (supervision_smoke)
4. numerics        — singular-circuit isolation ladder (numerics_smoke)
5. mc-parity       — Monte-Carlo export invariant across worker counts
6. collapse-parity — an in-process ``repro campaign --sample 48
                     --workers 1`` (whose stages reuse results across
                     the whole draw; its ``collapse:`` line must read
                     exactly 47 classes, 114 representative evals and
                     15 class hits) exports byte-identically to the
                     same command with ``--workers 2`` (whose workers
                     each reuse results only among the faults they
                     evaluate)
7. pattern-parity  — coverage-vs-pattern JSON identical for
                     ``--workers 1`` and ``--workers 4``
8. service-parity  — sharded service jobs (campaign, two mc seeds,
                     patterns) served by one ``serve --once``, so over
                     one shared golden cache, merge byte-identical to
                     the direct exports, and resubmission is a store
                     cache hit (zero shards)
9. service-chaos   — SIGKILLed serve loops resume to byte-identical
                     artifacts with zero re-simulated items
                     (chaos_smoke kill matrix + stale-lease reclaim)
10. pattern-golden — the full-universe pattern campaign, run with
                     ``--workers 2`` and in-process (``--workers 1``,
                     where stage results are reused across the whole
                     universe), matches the
                     committed ``perfbench/reference/patterns.json``
                     (each fault's tiers and outcome, each stimulus's
                     healthy-lock summary) and the two exports are
                     byte-identical; every moved fault is named
11. result-golden  — the full 336-fault campaign, run in-process
                     (``--workers 1``) and so reusing stage results
                     across the whole universe, matches the committed
                     ``perfbench/reference/table1.json`` (each fault's
                     dc/scan/bist hits and outcome), and the 8-die
                     Monte-Carlo runs of seeds 1-4 match
                     ``perfbench/reference/mc.json`` record for record,
                     each once under the default numerics policy and
                     once under ``--strict-numerics``; every moved
                     fault or die is named
12. newton-shadow  — the slow Newton oracle of
                     ``tests/analog/reference_newton.py`` beside every
                     assembly, solve and Newton loop of a one-fault-
                     per-(block, kind) campaign, two Monte-Carlo dies,
                     a 4-fault pattern run, an AC sweep of the
                     receiver bench and a linear RC-ladder transient
                     (newton_shadow); the first non-bitwise A, b, x or
                     diagnostics fails it, naming its circuit
13. digital-golden — both default digital fault campaigns (scan chains
                     A and B under stuck-at faults, the coarse path
                     under launch-on-capture transition faults), run
                     through the whole-response oracle of
                     ``tests/digital/reference_fault_sim.py`` and
                     through the engine, each reproduce every
                     per-fault first difference committed in
                     ``tests/digital/reference_verdicts.json``; every
                     moved fault is named
14. loop-shadow    — the per-component oracle loop of
                     ``tests/synchronizer/reference_loop.py`` run to
                     full length beside every ``SynchronizerLoop.run`` of
                     a 4-fault pattern run, healthy lock summaries
                     included (loop_shadow); a full-length run whose
                     result fields differ, a stopped run that did not
                     end where the oracle's run was decided, or a lock
                     verdict that differs fails it, naming the run
15. cone-shadow    — every probed transient of a one-fault-per-(block,
                     kind) campaign and of two Monte-Carlo dies rerun on
                     the whole netlist (``probes=None``) to full length
                     (cone_shadow); probe waves more than 1e-12 V apart,
                     a stop at a different sample or a different toggle
                     verdict fails it, naming the run, and so does a
                     run in which no transient was pruned

Run locally: ``python scripts/guard_suite.py`` (from the repo root).
Select a subset: ``python scripts/guard_suite.py mc-parity pattern-parity``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PATTERN_GOLDEN = REPO_ROOT / "perfbench" / "reference" / "patterns.json"
TABLE1_GOLDEN = REPO_ROOT / "perfbench" / "reference" / "table1.json"
MC_GOLDEN = REPO_ROOT / "perfbench" / "reference" / "mc.json"
DIGITAL_ORACLE = REPO_ROOT / "tests" / "digital" / "reference_fault_sim.py"
#: the Table I tiers whose hits table1.json pins
TIER_NAMES = ("dc", "scan", "bist")
ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def _run(argv: List[str], cwd: str) -> None:
    """Run a child process; raise with its output on failure."""
    proc = subprocess.run(
        argv,
        cwd=cwd,
        env=ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        cmd = " ".join(argv)
        raise RuntimeError(f"{cmd} exited {proc.returncode}\n{proc.stdout}")


def _repro(args: str, cwd: str) -> None:
    """Run ``python -m repro`` with the space-separated *args*."""
    _run([sys.executable, "-m", "repro", *args.split()], cwd=cwd)


def _repro_out(args: str, cwd: str) -> str:
    """Like :func:`_repro` but returns the command's stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args.split()],
        cwd=cwd,
        env=ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro {args} exited {proc.returncode}\n{proc.stdout}"
        )
    return proc.stdout


def _script(name: str, cwd: str) -> None:
    _run([sys.executable, str(REPO_ROOT / "scripts" / name)], cwd=cwd)


def _read(tmp: str, name: str) -> bytes:
    return (Path(tmp) / name).read_bytes()


def _load(tmp: str, name: str) -> dict:
    with open(Path(tmp) / name) as fh:
        return json.load(fh)


def check_private_access(tmp: str) -> str:
    _script("check_private_access.py", tmp)
    return "clean"


def check_campaign_resume(tmp: str) -> str:
    _repro(
        "campaign --sample 24 --workers 2"
        " --export campaign-a.json --resume campaign.ckpt",
        cwd=tmp,
    )
    _repro(
        "campaign --sample 24 --workers 2"
        " --export campaign-b.json --resume campaign.ckpt",
        cwd=tmp,
    )
    a = _load(tmp, "campaign-a.json")
    b = _load(tmp, "campaign-b.json")
    if a != b:
        raise RuntimeError("resumed campaign diverged from the original")
    return f"{len(a['records'])} records stable across resume"


def check_supervision(tmp: str) -> str:
    _script("supervision_smoke.py", tmp)
    return "hang + worker-kill isolated"


def check_numerics(tmp: str) -> str:
    _script("numerics_smoke.py", tmp)
    return "singular circuits isolated"


def check_mc_parity(tmp: str) -> str:
    _repro("mc --dies 8 --seed 2016 --workers 1 --export mc-w1.json", tmp)
    _repro("mc --dies 8 --seed 2016 --workers 2 --export mc-w2.json", tmp)
    if _read(tmp, "mc-w1.json") != _read(tmp, "mc-w2.json"):
        raise RuntimeError("mc export differs between worker counts")
    return "byte-identical for --workers 1/2"


#: the in-process run's counters on the collapse-parity draw (DESIGN.md
#: §14): a bench, observed-node set or digest that drifts moves them,
#: even where every verdict still agrees
COLLAPSE_COUNTS = (
    "collapse: 47 classes, 114 representative eval(s), 15 class hit(s)"
)


def check_collapse_parity(tmp: str) -> str:
    """An in-process run reuses stage results across the whole draw and
    a ``--workers 2`` run only within each worker's share of it: the
    two exports must be byte-identical, and the in-process run's
    ``collapse:`` line must read :data:`COLLAPSE_COUNTS`."""
    out = _repro_out(
        "campaign --sample 48 --seed 2016 --workers 1"
        " --export in-process.json",
        cwd=tmp,
    )
    _repro(
        "campaign --sample 48 --seed 2016 --workers 2"
        " --export workers-2.json",
        cwd=tmp,
    )
    if _read(tmp, "in-process.json") != _read(tmp, "workers-2.json"):
        raise RuntimeError(
            "in-process (collapsed) export differs from --workers 2"
        )
    line = next(
        (ln for ln in out.splitlines() if ln.startswith("collapse:")), ""
    )
    if line.partition(" (")[0] != COLLAPSE_COUNTS:
        raise RuntimeError(
            f"in-process collapse counts moved: "
            f"{line or 'no collapse line'} (want {COLLAPSE_COUNTS})"
        )
    records = len(_load(tmp, "in-process.json")["records"])
    return f"{records} records byte-identical to --workers 2; {line}"


def check_pattern_parity(tmp: str) -> str:
    for n in ("1", "4"):
        _repro(
            f"patterns --sample 12 --workers {n} --no-ber-sweep"
            f" --patterns prbs7,isi,aggressor --export patterns-w{n}.json",
            cwd=tmp,
        )
    if _read(tmp, "patterns-w1.json") != _read(tmp, "patterns-w4.json"):
        raise RuntimeError(
            "pattern campaign differs between --workers 1 and --workers 4"
        )
    cov = _load(tmp, "patterns-w1.json")
    return (
        f"byte-identical for --workers 1/4 "
        f"({cov['total_faults']} faults x {len(cov['patterns'])} patterns)"
    )


def check_service_parity(tmp: str) -> str:
    """Sharded service runs vs direct CLI exports, plus the cache-hit
    contract: the resubmitted spec must run zero shards.  One serve
    process runs every job, so the second mc job (and the patterns
    job) builds its tiers over the references an earlier job built."""
    jobs = []
    for label, submit_args, direct_args in (
        (
            "campaign",
            "campaign --sample 24 --seed 2016 --shards 4 --workers 2",
            "campaign --sample 24 --seed 2016 --export direct-campaign.json",
        ),
        (
            "mc",
            "mc --dies 8 --seed 2016 --shards 4 --workers 2",
            "mc --dies 8 --seed 2016 --export direct-mc.json",
        ),
        (
            "mc-seed3",
            "mc --dies 8 --seed 3 --shards 2 --workers 2",
            "mc --dies 8 --seed 3 --export direct-mc-seed3.json",
        ),
        (
            "patterns",
            "patterns --sample 12 --patterns prbs7,isi --shards 4"
            " --workers 2",
            "patterns --sample 12 --patterns prbs7,isi --no-ber-sweep"
            " --export direct-patterns.json",
        ),
    ):
        out = _repro_out(f"submit {submit_args} --root svc", cwd=tmp)
        jobs.append((label, out.split()[1]))
        _repro(direct_args, cwd=tmp)
    _repro("serve --root svc --once", cwd=tmp)
    for label, job_id in jobs:
        status = json.loads(
            _repro_out(f"status {job_id} --root svc --json", cwd=tmp)
        )
        if status["state"] != "done" or status["cache_hit"]:
            raise RuntimeError(f"{label} job unexpected status: {status}")
        _repro(
            f"result {job_id} --root svc -o service-{label}.json", cwd=tmp
        )
        if _read(tmp, f"service-{label}.json") != _read(
            tmp, f"direct-{label}.json"
        ):
            raise RuntimeError(
                f"sharded {label} artifact differs from the direct export"
            )

    # resubmission: same result-determining spec, different execution
    # knobs -> must be served from the store with zero new shards
    out = _repro_out(
        "submit campaign --sample 24 --seed 2016 --shards 2 --root svc",
        cwd=tmp,
    )
    resubmit_id = out.split()[1]
    if "cache hit" not in out:
        raise RuntimeError("submit did not anticipate the store hit")
    _repro("serve --root svc --once", cwd=tmp)
    status = json.loads(
        _repro_out(f"status {resubmit_id} --root svc --json", cwd=tmp)
    )
    if not status["cache_hit"] or status["shards_run"] != 0:
        raise RuntimeError(
            f"resubmission was not a zero-shard cache hit: {status}"
        )
    _repro(f"result {resubmit_id} --root svc -o resubmit.json", cwd=tmp)
    if _read(tmp, "resubmit.json") != _read(tmp, "direct-campaign.json"):
        raise RuntimeError("cached artifact differs from the direct export")
    return ("campaign+2 mc+patterns byte-identical from one serve; "
            "resubmit hit")


def check_service_chaos(tmp: str) -> str:
    _script("chaos_smoke.py", tmp)
    return "kill matrix resumed byte-identical; stale lease reclaimed"


def check_newton_shadow(tmp: str) -> str:
    _script("newton_shadow.py", tmp)
    return "assemblies, solves and Newton loops bitwise equal to the oracle"


def check_loop_shadow(tmp: str) -> str:
    _script("loop_shadow.py", tmp)
    return "loop runs and lock verdicts equal to the full-length oracle"


def check_cone_shadow(tmp: str) -> str:
    _script("cone_shadow.py", tmp)
    return "probed transients agree with the whole netlist"


def check_digital_golden(tmp: str) -> str:
    """The stuck-at and transition campaigns against their pin: the
    oracle (every procedure run to its end, whole responses compared)
    and the engine (stopped at each fault's first difference) must both
    give every fault its committed first differing observation."""
    _run([sys.executable, str(DIGITAL_ORACLE)], cwd=tmp)
    return "oracle and engine reproduce every pinned first difference"


def check_pattern_golden(tmp: str) -> str:
    """The full 236-fault pattern campaign against the committed
    verdicts, run with ``--workers 2`` and in-process (the run whose
    stages reuse results across the whole universe): a refactor that
    moves any verdict or healthy lock time fails here, with every moved
    fault named, and the two exports must be byte-identical."""
    with open(PATTERN_GOLDEN) as fh:
        want = json.load(fh)
    problems = []
    for label, flags in (
        ("workers-2", " --workers 2"),
        ("in-process", " --workers 1"),
    ):
        export = f"patterns-{label}.json"
        _repro(f"patterns{flags} --no-ber-sweep --export {export}", cwd=tmp)
        got = _load(tmp, export)
        if got["patterns"] != want["patterns"]:
            problems.append(f"{label} stimuli {got['patterns']} differ")
        for name in sorted(set(want["faults"]) | set(got["faults"])):
            was, now = want["faults"].get(name), got["faults"].get(name)
            if was != now:
                problems.append(f"{label} {name}: golden {was}, now {now}")
        for pattern, lock in sorted(want["lock"].items()):
            now = got["per_pattern"].get(pattern, {}).get("lock")
            if now != lock:
                problems.append(
                    f"{label} healthy lock under {pattern}: golden {lock}, "
                    f"now {now}"
                )
    if _read(tmp, "patterns-workers-2.json") != _read(
        tmp, "patterns-in-process.json"
    ):
        problems.append("in-process export differs from --workers 2")
    if problems:
        golden = PATTERN_GOLDEN.relative_to(REPO_ROOT)
        raise RuntimeError(
            f"{len(problems)} difference(s) from {golden}\n"
            + "\n".join(problems)
        )
    return (
        f"{len(got['faults'])} fault verdicts + "
        f"{len(want['lock'])} healthy locks match the golden file, "
        "--workers 2 and in-process"
    )


def check_result_golden(tmp: str) -> str:
    """The full fault campaign and the Monte-Carlo dies against the
    committed verdicts, under the default and the strict numerics
    policy: a refactor that moves any fault's tier hits or outcome, or
    any field of a die record, fails here, with every moved fault or
    die named.  Strict runs escalate degraded solves to
    ``unsolvable``, so they are where a stage that skipped a solve it
    used to run (and that solve's error) would show.  The campaigns run
    in-process, so they pin stage reuse across the whole universe;
    ``collapse-parity`` pins the ``--workers 2`` path to it."""
    with open(TABLE1_GOLDEN) as fh:
        want = json.load(fh)["faults"]
    with open(MC_GOLDEN) as fh:
        mc = json.load(fh)
    problems = []
    for policy, flags in (("default", ""), ("strict", " --strict-numerics")):
        export = f"campaign-{policy}.json"
        _repro(f"campaign --workers 1{flags} --export {export}", cwd=tmp)
        got = {}
        for rec in _load(tmp, export)["records"]:
            fault = rec["fault"]
            name = ":".join(
                fault[k] for k in ("device", "kind", "block", "role")
            )
            got[name] = {t: bool(rec["tiers"].get(t)) for t in TIER_NAMES}
            got[name]["outcome"] = rec.get("outcome", "ok")
        problems += [
            f"{policy} {name}: golden {want.get(name)}, now {got.get(name)}"
            for name in sorted(set(want) | set(got))
            if want.get(name) != got.get(name)
        ]
        for seed in sorted(mc["seeds"], key=int):
            export = f"mc-{policy}-{seed}.json"
            _repro(
                f"mc --dies {mc['dies']} --seed {seed} --workers 2{flags}"
                f" --export {export}",
                cwd=tmp,
            )
            records = _load(tmp, export)["records"]
            golden = mc["seeds"][seed]
            for die in range(max(len(records), len(golden))):
                was = golden[die] if die < len(golden) else None
                now = records[die] if die < len(records) else None
                if was != now:
                    problems.append(
                        f"{policy} mc seed {seed} die {die}: "
                        f"golden {was}, now {now}"
                    )
    if problems:
        raise RuntimeError(
            f"{len(problems)} difference(s) from the golden files\n"
            + "\n".join(problems)
        )
    dies = sum(len(records) for records in mc["seeds"].values())
    return (
        f"{len(want)} fault verdicts + {dies} die records "
        f"({len(mc['seeds'])} seeds) match the golden files under "
        f"default and strict numerics"
    )


CHECKS: List[Tuple[str, Callable[[str], str]]] = [
    ("private-access", check_private_access),
    ("campaign-resume", check_campaign_resume),
    ("supervision", check_supervision),
    ("numerics", check_numerics),
    ("mc-parity", check_mc_parity),
    ("collapse-parity", check_collapse_parity),
    ("pattern-parity", check_pattern_parity),
    ("service-parity", check_service_parity),
    ("service-chaos", check_service_chaos),
    ("pattern-golden", check_pattern_golden),
    ("result-golden", check_result_golden),
    ("newton-shadow", check_newton_shadow),
    ("digital-golden", check_digital_golden),
    ("loop-shadow", check_loop_shadow),
    ("cone-shadow", check_cone_shadow),
]


def main(argv: List[str]) -> int:
    known = [name for name, _ in CHECKS]
    wanted = set(argv) or set(known)
    unknown = wanted - set(known)
    if unknown:
        print(
            f"unknown checks: {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        print(f"available: {', '.join(known)}", file=sys.stderr)
        return 2

    rows: List[Tuple[str, bool, float, str]] = []
    for name, check in CHECKS:
        if name not in wanted:
            continue
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory(prefix=f"guard-{name}-") as tmp:
            try:
                detail = check(tmp)
                ok = True
            except Exception as exc:  # keep going; summarise at the end
                detail = str(exc)
                ok = False
        dt = time.monotonic() - t0
        rows.append((name, ok, dt, detail))
        status = "ok" if ok else "FAIL"
        print(f"[{status:>4}] {name} ({dt:.1f}s)")
        if not ok:
            print(f"       {detail}")

    width = max(len(name) for name, _, _, _ in rows)
    print("\nguard suite summary")
    print(f"  {'check':<{width}}  {'status':<6} {'time':>7}  detail")
    for name, ok, dt, detail in rows:
        first = detail.splitlines()[0]
        status = "ok" if ok else "FAIL"
        print(f"  {name:<{width}}  {status:<6} {dt:>6.1f}s  {first}")
    failed = [name for name, ok, _, _ in rows if not ok]
    if failed:
        print(f"\n{len(failed)} check(s) failed: {', '.join(failed)}")
        return 1
    print(f"\nall {len(rows)} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
