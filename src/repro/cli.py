"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``eye``        channel eye analysis at a given rate/length
``lock``       run the synchronizer from a startup phase (Fig 2 data)
``dc``         the two-pattern DC test on the transistor-level link
``bist``       the at-speed BIST verdict
``faults``     the structural fault universe (counts, equivalence classes)
``campaign``   the fault campaign (full or sampled) -> Table I, with
               configurable tiers and export/resume artifacts
               (``coverage`` is another name for it)
``mc``         Monte-Carlo mismatch campaign -> statistical Table I
``patterns``   coverage-vs-pattern campaign + BER-vs-length sweep
``bench``      time a sampled campaign and print the engine counters
``overhead``   the DFT inventory -> Table II
``netlist``    export one of the paper's circuits as a SPICE deck
``submit``     enqueue a campaign spec for the service coordinator
``serve``      run the local coordinator over a service root
``status``     job status (queued/running with ETA/done/failed)
``result``     fetch a finished job's artifact from the result store
``store gc``   evict result-store entries older than a TTL

Every command prints plain text suitable for piping; exit status is 0
on pass/success, 1 on a failing verdict.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rate", type=float, default=2.5e9,
                   help="data rate [bit/s] (default 2.5e9)")
    p.add_argument("--length-mm", type=float, default=10.0,
                   help="wire length [mm] (default 10)")


def cmd_eye(args) -> int:
    from .channel import ChannelConfig, eye_center, eye_of_channel

    cfg = ChannelConfig(length_m=args.length_mm * 1e-3)
    for label, equalized in (("equalized", True), ("raw", False)):
        eye = eye_of_channel(cfg, args.rate, equalized=equalized)
        state = "open" if eye.is_open else "CLOSED"
        print(f"{label:>10}: {eye.best_opening * 1e3:8.2f} mV  "
              f"width {eye.eye_width * 1e12:6.0f} ps  "
              f"centre {eye_center(eye) * 1e12:6.0f} ps  [{state}]")
    eq = eye_of_channel(cfg, args.rate, equalized=True)
    return 0 if eq.is_open else 1


def cmd_lock(args) -> int:
    from . import LinkConfig, TestableLink

    link = TestableLink(LinkConfig(data_rate=args.rate,
                                   length_m=args.length_mm * 1e-3))
    r = link.lock(initial_phase=args.phase, seed=args.seed)
    print(f"locked              : {r.locked}")
    if r.lock_time is not None:
        print(f"lock time           : {r.lock_time * 1e9:.0f} ns")
    print(f"coarse corrections  : {r.coarse_corrections}")
    print(f"final phase index   : {r.final_phase_index}")
    if r.phase_error is not None:
        print(f"phase error         : {r.phase_error * 1e12:+.1f} ps")
    print(f"BIST verdict        : {'PASS' if r.bist_pass else 'FAIL'}")
    if args.trace:
        t, vc, idx, _ = r.trace.as_arrays()
        print("\n# t_ns vc_V phase_idx")
        for k in range(len(t)):
            print(f"{t[k] * 1e9:9.2f} {vc[k]:7.4f} {int(idx[k]):3d}")
    return 0 if r.bist_pass else 1


def cmd_dc(args) -> int:
    from .circuits import build_full_link
    from .dft.duts import run_link_static

    res = run_link_static(build_full_link())[0]
    ok = True
    for bit in (1, 0):
        obs = res[bit]
        print(f"data={bit}: {obs}")
        ok = ok and obs.get("converged", False)
    expected = (res[1]["cmp_pos"], res[1]["cmp_neg"],
                res[0]["cmp_pos"], res[0]["cmp_neg"]) == (1, 0, 0, 1)
    window_quiet = all(res[b][k] == 0 for b in (0, 1)
                       for k in ("win_hi", "win_lo"))
    verdict = ok and expected and window_quiet
    print(f"DC test: {'PASS' if verdict else 'FAIL'}")
    return 0 if verdict else 1


def cmd_bist(args) -> int:
    from . import LinkConfig, TestableLink
    from .core.report import render_bist

    link = TestableLink(LinkConfig(data_rate=args.rate,
                                   length_m=args.length_mm * 1e-3))
    res = link.run_bist(initial_phase=args.phase)
    print(render_bist(res))
    return 0 if res.passed else 1


def cmd_faults(args) -> int:
    from .dft.coverage import build_fault_universe
    from .faults.enumerate import universe_summary

    universe = build_fault_universe()
    summary = universe_summary(universe)
    print(f"fault universe: {summary['total']} structural faults")
    print("by block:")
    for block, n in sorted(summary["by_block"].items()):
        print(f"  {block:<14} {n}")
    print("by kind:")
    for kind, n in sorted(summary["by_kind"].items()):
        print(f"  {kind:<20} {n}")
    if args.classes:
        from .faults.collapse import universe_report

        print()
        print(universe_report(universe).format())
    return 0


def _tier_list(text: str):
    """The ``--tiers`` names, or None once the refusal is printed (an
    empty list, an unknown tier or pattern, a repeated tier)."""
    from .dft.registry import check_tier_names

    names = tuple(t.strip() for t in text.split(",") if t.strip())
    try:
        if not names:
            raise ValueError("no tiers requested")
        check_tier_names(names)
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    return names


def cmd_campaign(args) -> int:
    from .core.profiling import COUNTERS
    from .dft.coverage import CoverageReport, build_fault_universe
    from .dft.golden import GoldenSignatures
    from .dft.registry import create_tiers
    from .faults.campaign import TIER_ORDER, FaultCampaign
    from .faults.sampling import stratified_sample

    tier_names = _tier_list(args.tiers)
    if tier_names is None:
        return 1

    start = COUNTERS.snapshot()
    universe = build_fault_universe()
    if args.sample:
        universe = stratified_sample(universe, args.sample,
                                     seed=args.seed)
        print(f"(stratified sample of {len(universe)} faults)")

    def progress(i, n):
        if i % 25 == 0 or i == n:
            print(f"  {i}/{n} faults simulated", file=sys.stderr)

    campaign = FaultCampaign(strict_numerics=args.strict_numerics)
    for tier in create_tiers(tier_names, GoldenSignatures()):
        campaign.add_tier(tier)
    result = campaign.run(universe,
                          progress=progress if args.progress else None,
                          workers=args.workers, checkpoint=args.resume,
                          timeout=args.timeout, max_retries=args.retries,
                          trace=args.trace)

    if tier_names == TIER_ORDER:
        report = CoverageReport(result=result)
        print(report.format_headline())
        print()
        print(report.format_table1())
    else:
        for name in tier_names:
            cum = result.cumulative_coverage(name)
            print(f"{'+ ' + name if name != tier_names[0] else name:<20}"
                  f"{cum * 100:>9.1f}%")
        for line in result.outcome_lines():
            print(line)
    n_detected = result.total - len(result.undetected())
    print(f"overall: {result.overall_coverage * 100:.1f}% "
          f"({n_detected}/{result.total})")
    _print_numerics(start)
    _print_collapse(start)

    if args.export:
        with open(args.export, "w") as fh:
            fh.write(result.to_json(indent=2))
        print(f"wrote {args.export}")
    return 0


def cmd_mc(args) -> int:
    from .analog.corners import get_corner
    from .core.profiling import COUNTERS
    from .variation import MismatchModel, MonteCarloCampaign
    from .variation.report import format_mc_report

    tier_names = _tier_list(args.tiers)
    if tier_names is None:
        return 1

    start = COUNTERS.snapshot()
    model = MismatchModel(sigma_vt=args.sigma_vt * 1e-3,
                          sigma_kp_rel=args.sigma_kp / 100.0)

    def progress(i, n):
        if i % 8 == 0 or i == n:
            print(f"  {i}/{n} dies simulated", file=sys.stderr)

    campaign = MonteCarloCampaign(tiers=tier_names,
                                  corner=get_corner(args.corner),
                                  model=model, seed=args.seed,
                                  strict_numerics=args.strict_numerics)
    result = campaign.run(args.dies,
                          progress=progress if args.progress else None,
                          workers=args.workers, checkpoint=args.resume,
                          timeout=args.timeout, max_retries=args.retries,
                          trace=args.trace)

    print(format_mc_report(result))
    _print_numerics(start)
    if args.export:
        with open(args.export, "w") as fh:
            fh.write(result.to_json(indent=2))
        print(f"wrote {args.export}")
    return 0


def cmd_patterns(args) -> int:
    import json

    from .patterns.campaign import (DEFAULT_CAMPAIGN_PATTERNS,
                                    PatternCampaign, ber_vs_length_sweep)

    names = (tuple(t.strip() for t in args.patterns.split(",") if t.strip())
             if args.patterns is not None else DEFAULT_CAMPAIGN_PATTERNS)
    try:
        campaign = PatternCampaign(patterns=names)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 1

    def progress(i, n):
        if i % 10 == 0 or i == n:
            print(f"  {i}/{n} faults simulated", file=sys.stderr)

    result = campaign.run(sample=args.sample, workers=args.workers,
                          progress=progress if args.progress else None)

    print(f"coverage vs pattern ({result.total} faults, "
          f"static stage detects {len(result.static_detected())})")
    print(f"  {'pattern':<12} {'coverage':>8} {'at-speed':>8}  "
          f"unique classes / beyond prbs7")
    unique = result.unique_at_speed_classes()
    for p in names:
        extras = unique[p] or result.classes_beyond_prbs7(p)
        print(f"  {p:<12} {result.coverage(p):>8.3f} "
              f"{len(result.at_speed_detected(p)):>8}  "
              f"{', '.join(extras) if extras else '-'}")

    healthy_ok = True
    print("\nhealthy lock vs stimulus (budget = 2 us x stimulus scale)")
    for p in names:
        lock = result.lock_summary[p]
        worst = max((ph["lock_time_s"] or float("inf"))
                    for ph in lock["phases"].values())
        ok = all(ph["within_budget"] for ph in lock["phases"].values())
        healthy_ok = healthy_ok and ok
        print(f"  {p:<12} worst lock "
              f"{worst * 1e9 if worst != float('inf') else float('nan'):8.0f} ns"
              f"  budget {lock['budget_s'] * 1e9:8.0f} ns  "
              f"{'PASS' if ok else 'FAIL'}")

    sweep = ber_vs_length_sweep() if args.ber_sweep else []
    if sweep:
        print("\nBER vs pattern length (healthy loop, checker attached)")
        print(f"  {'pattern':<12} {'length':>10} {'bits':>7} {'errors':>7} "
              f"{'BER':>8} {'lock[ns]':>9} budget")
        for pt in sweep:
            lt = (f"{pt.lock_time_s * 1e9:.0f}"
                  if pt.lock_time_s is not None else "-")
            print(f"  {pt.pattern:<12} {pt.length_bits:>10} {pt.bits:>7} "
                  f"{pt.errors:>7} {pt.ber:>8.4f} {lt:>9} "
                  f"{'PASS' if pt.within_budget else 'FAIL'}")

    if args.export:
        payload = json.loads(result.to_json())
        payload["ber_sweep"] = [pt.to_dict() for pt in sweep]
        with open(args.export, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.export}")
    return 0 if healthy_ok else 1


def cmd_bench(args) -> int:
    import json
    import time

    from .core.profiling import profiled
    from .core.supervisor import resolve_workers
    from .dft.coverage import build_fault_universe, run_paper_campaign
    from .faults.sampling import stratified_sample

    if args.compare:
        return _bench_compare(args.compare)

    universe = build_fault_universe()
    if args.sample:
        universe = stratified_sample(universe, args.sample, seed=args.seed)
    workers = resolve_workers(args.workers, len(universe))
    with profiled() as counters:
        t0 = time.perf_counter()
        report = run_paper_campaign(universe, workers=workers)
        wall = time.perf_counter() - t0
    print(f"campaign : {len(universe)} faults in {wall:.2f} s "
          f"({workers} worker(s))")
    print(f"coverage : dc {report.dc * 100:.1f}%  "
          f"scan {report.scan * 100:.1f}%  bist {report.bist * 100:.1f}%")
    snap = counters.snapshot()
    width = max(len(k) for k in snap)
    for key, value in snap.items():
        print(f"  {key:<{width}}  {value}")
    if args.json:
        payload = {"faults": len(universe), "wall_s": wall,
                   "workers": workers, "counters": snap,
                   "coverage": {"dc": report.dc, "scan": report.scan,
                                "bist": report.bist}}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _bench_artifacts(dirpath: str) -> List[str]:
    """``BENCH_PR<N>.json`` files under *dirpath*, oldest PR first.

    Delegates to :func:`repro.core.artifacts.bench_artifacts` — the
    numeric ``PR<N>`` ordering must match the benchmark suite's
    baseline discovery exactly.
    """
    from .core.artifacts import bench_artifacts

    return bench_artifacts(dirpath)


def _bench_compare(dirpath: str) -> int:
    """Diff the two newest ``BENCH_PR*.json`` artifacts counter by counter.

    Older artifacts may predate counters the current engine emits (and
    vice versa); a key present on only one side prints as ``-`` instead
    of failing, so the comparison works across any PR gap.
    """
    import json

    paths = _bench_artifacts(dirpath)
    if len(paths) < 2:
        print(f"need two BENCH_PR*.json artifacts under {dirpath!r}, "
              f"found {len(paths)}", file=sys.stderr)
        return 1
    old_path, new_path = paths[-2], paths[-1]
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    import os
    print(f"comparing {os.path.basename(old_path)} -> "
          f"{os.path.basename(new_path)}")

    def total_wall(payload):
        wall = payload.get("bench_wall_s", payload.get("wall_s"))
        if isinstance(wall, dict):       # per-bench walls since PR 3
            return sum(wall.values())
        return wall

    old_wall, new_wall = total_wall(old), total_wall(new)
    if old_wall is not None and new_wall is not None:
        ratio = old_wall / new_wall if new_wall else float("inf")
        print(f"  {'total_wall_s':<24} {old_wall:>14.2f} "
              f"{new_wall:>14.2f} {ratio:>8.2f}x")

    old_c = old.get("counters") or {}
    new_c = new.get("counters") or {}
    keys = sorted(set(old_c) | set(new_c))
    width = max((len(k) for k in keys), default=8)
    for key in keys:
        a, b = old_c.get(key), new_c.get(key)
        sa = "-" if a is None else str(a)
        sb = "-" if b is None else str(b)
        if a and b is not None:
            delta = f"{a / b:8.2f}x" if b else "     inf"
        else:
            delta = "        "
        print(f"  {key:<{width}} {sa:>14} {sb:>14} {delta}")
    return 0


def _since(start: Dict[str, int]) -> Dict[str, int]:
    """Counter deltas since the *start* snapshot: a command reports its
    own run, not earlier ones in the same process (the global totals
    stay for ``repro bench`` and other readers)."""
    from .core.profiling import COUNTERS

    return {k: v - start[k] for k, v in COUNTERS.snapshot().items()}


def _print_numerics(start: Dict[str, int]) -> None:
    """One line of fallback-ladder counters when any rescue engaged
    since *start* (a forked run's workers send theirs back with each
    record; an item that timed out or killed its worker sends none)."""
    c = _since(start)
    rungs = (("refined", c["rescue_refined"]),
             ("equilibrated", c["rescue_equilibrated"]),
             ("lstsq", c["rescue_lstsq"]),
             ("ptc", c["dc_ptc_rescues"]),
             ("degraded", c["degraded_solves"]),
             ("unsolvable", c["unsolvable_systems"]))
    engaged = [f"{name} {count}" for name, count in rungs if count]
    if engaged:
        print(f"numerics rescues: {', '.join(engaged)}")


def _print_collapse(start: Dict[str, int]) -> None:
    """One line of fault-collapse counters when the run since *start*
    reused a stage result.

    A forked run's workers each keep their own stage memo and send
    their counts back with each record, so its line sums the workers':
    a class that two workers met counts twice.
    """
    c = _since(start)
    if not c["classes"]:
        return
    rep = c["collapse_rep_evals"]
    hits = c["class_hits"]
    line = (f"collapse: {c['classes']} classes, "
            f"{rep} representative eval(s), {hits} class hit(s)")
    if rep:
        line += f" ({(rep + hits) / rep:.2f}x fewer simulations)"
    print(line)


_WORKERS_HELP = ("{noun}-simulation worker processes; records, exports "
                 "and checkpoints are the same for every count (default: "
                 "every CPU this process may use)")


def _add_supervision(p: argparse.ArgumentParser, noun: str) -> None:
    p.add_argument("--timeout", type=_timeout, default=None, metavar="S",
                   help=f"per-{noun} wall-clock budget in seconds; a "
                        f"{noun} that exceeds it is recorded as a "
                        f"timeout outcome (default: unbounded)")
    p.add_argument("--retries", type=_retries, default=1, metavar="N",
                   help=f"re-dispatches of a {noun} whose worker died "
                        f"before it is quarantined (default 1)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="append the structured run-event trace (worker "
                        "spawns/deaths, retries, timeouts, checkpoint "
                        "writes, per-item durations) as JSONL")
    p.add_argument("--strict-numerics", action="store_true",
                   help=f"escalate degraded solves (accepted above the "
                        f"verified-residual threshold) to an unsolvable "
                        f"{noun} outcome instead of trusting the "
                        f"fallback ladder's best effort")


def cmd_overhead(args) -> int:
    from .dft.overhead import dft_inventory, format_table2

    print(format_table2())
    if args.verbose:
        print("\nprovenance:")
        for item in dft_inventory():
            print(f"  {item.entity:<30} {item.provenance}")
    return 0


NETLIST_BUILDERS = {
    "full_link": "the DC-test link (TX + wire + termination)",
    "receiver": "charge pump + window comparators bench",
    "vcdl": "the voltage-controlled delay line bench",
    "comparator": "the Fig 5 offset comparator",
}


def cmd_netlist(args) -> int:
    from .analog.spice_io import write_spice

    if args.which == "full_link":
        from .circuits import build_full_link

        circuit = build_full_link().circuit
    elif args.which == "receiver":
        from .dft.duts import build_receiver_dut

        circuit = build_receiver_dut().circuit
    elif args.which == "vcdl":
        from .dft.duts import build_vcdl_dut

        circuit = build_vcdl_dut().circuit
    elif args.which == "comparator":
        from .analog import Circuit
        from .circuits import build_offset_comparator

        circuit = Circuit("comparator_dut")
        circuit.add_vsource("vdd", "0", 1.2, name="VDD")
        circuit.add_vsource("inp", "0", 0.615, name="VINP")
        circuit.add_vsource("inn", "0", 0.585, name="VINN")
        build_offset_comparator(circuit, "cmp", "inp", "inn", "out")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown netlist {args.which!r}")

    deck = write_spice(circuit)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(deck)
        print(f"wrote {args.output} ({deck.count(chr(10))} lines)")
    else:
        print(deck, end="")
    return 0


def _spec_from_args(args):
    """Build the service :class:`CampaignSpec` from ``repro submit``'s
    argparse namespace (comma lists split, CLI units preserved)."""
    from .service import CampaignSpec

    tiers = tuple(t.strip() for t in args.tiers.split(",") if t.strip())
    if args.patterns:
        patterns = tuple(p.strip() for p in args.patterns.split(",")
                         if p.strip())
    else:
        from .patterns.campaign import DEFAULT_CAMPAIGN_PATTERNS

        patterns = DEFAULT_CAMPAIGN_PATTERNS
    return CampaignSpec(
        kind=args.kind, seed=args.seed, sample=args.sample,
        strict_numerics=args.strict_numerics, tiers=tiers,
        dies=args.dies, corner=args.corner,
        sigma_vt_mv=args.sigma_vt, sigma_kp_pct=args.sigma_kp,
        patterns=patterns, shards=args.shards, workers=args.workers)


def cmd_submit(args) -> int:
    from .service import JobQueue

    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 1
    queue = JobQueue(args.root)
    job_id = queue.submit(spec)
    hit = " (already in store: serve will be a cache hit)" \
        if spec in queue.store else ""
    print(f"submitted {job_id} -> {args.root}{hit}")
    print(f"digest: {spec.digest()}")
    return 0


def cmd_serve(args) -> int:
    from .service import serve

    try:
        processed = serve(args.root, once=args.once, poll_s=args.poll,
                          workers=args.workers,
                          shard_timeout=args.timeout,
                          max_retries=args.retries,
                          shard_retries=args.shard_retries,
                          retry_backoff_s=args.retry_backoff,
                          lease_ttl_s=args.lease_ttl, echo=print)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("\nserve loop interrupted")
        return 0
    print(f"processed {processed} job(s)")
    return 0


def _format_status(doc) -> str:
    state = doc.get("state", "?")
    line = f"{doc.get('id', '?'):<28} {doc.get('kind', '?'):<10} {state}"
    progress = doc.get("progress")
    if state == "running" and progress:
        done, total = progress["shards_done"], progress["shards_total"]
        eta = progress.get("eta_s")
        line += (f"  {done}/{total} shards"
                 + (f", eta {eta:.1f}s" if eta is not None else ""))
    elif state == "done":
        if doc.get("cache_hit"):
            line += "  (cache hit)"
        elif doc.get("shards_run") is not None:
            line += (f"  {doc['shards_run']}/{doc.get('shards_total')}"
                     f" shards, {doc.get('wall_s', 0)}s")
    elif state == "failed" and doc.get("error"):
        line += f"  {doc['error']}"
    return line


def cmd_status(args) -> int:
    import json

    from .service import JobQueue
    from .service.client import JobError

    queue = JobQueue(args.root)
    try:
        docs = ([queue.status(args.job)] if args.job
                else list(queue.jobs()))
    except JobError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        payload = docs[0] if args.job else docs
        print(json.dumps(payload, indent=2))
        return 0
    if not docs:
        print(f"no jobs under {args.root}")
        return 0
    for doc in docs:
        print(_format_status(doc))
    return 0


def cmd_result(args) -> int:
    from .service import JobQueue
    from .service.client import JobError, format_result

    try:
        kind, result = JobQueue(args.root).result(args.job)
    except JobError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    text = format_result(kind, result)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


_TTL_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _at_least(kind, name: str, low, *, strict: bool = False):
    """An argparse type: a *kind* value of option *name* that is at
    least *low* (above it when *strict*), so a bad value is a usage
    error (exit 2) before anything runs."""
    relation = ">" if strict else ">="

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}")
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"{name} must be {relation} {low:g}, got {value}")
        return value
    return parse


_sample_size = _at_least(int, "sample", 0)
_workers = _at_least(int, "workers", 1)
_dies = _at_least(int, "dies", 1)
_retries = _at_least(int, "retries", 0)
_timeout = _at_least(float, "timeout", 0.0, strict=True)
_sigma_vt = _at_least(float, "sigma-vt", 0.0)
_sigma_kp = _at_least(float, "sigma-kp", 0.0)


def _parse_ttl(text: str) -> float:
    """A TTL in seconds from ``90``, ``30m``, ``12h``, ``7d`` forms."""
    raw = text.strip().lower()
    unit = 1.0
    if raw and raw[-1] in _TTL_UNITS:
        unit = _TTL_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad TTL {text!r} (use seconds or a 30m/12h/7d suffix)")
    if value < 0:
        raise argparse.ArgumentTypeError("TTL must be >= 0")
    return value * unit


def cmd_store_gc(args) -> int:
    from .service import JobQueue

    queue = JobQueue(args.root)
    referenced = queue.referenced_digests()
    report = queue.store.gc(args.ttl, referenced=referenced)
    for digest in report.refused:
        print(f"REFUSED to evict {digest}: a job in queue/ or active/ "
              f"still references it", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(f"store gc (ttl {args.ttl:g}s): evicted "
          f"{len(report.evicted)}, kept {report.kept}, refused "
          f"{len(report.refused)}, stale temp files removed "
          f"{report.tmp_removed}")
    return 0


def _add_service_root(p: argparse.ArgumentParser) -> None:
    p.add_argument("--root", default="repro-service", metavar="DIR",
                   help="service root directory holding the job queue, "
                        "traces and the content-addressed result store "
                        "(default: repro-service)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Testable repeaterless low-swing interconnect "
                    "(DATE 2016 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eye", help="channel eye analysis")
    _add_common(p)
    p.set_defaults(func=cmd_eye)

    p = sub.add_parser("lock", help="synchronizer lock run")
    _add_common(p)
    p.add_argument("--phase", type=int, default=5,
                   help="startup DLL phase index (default 5)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace", action="store_true",
                   help="dump the Fig 2 time series")
    p.set_defaults(func=cmd_lock)

    p = sub.add_parser("dc", help="two-pattern DC test")
    p.set_defaults(func=cmd_dc)

    p = sub.add_parser("bist", help="at-speed BIST")
    _add_common(p)
    p.add_argument("--phase", type=int, default=5)
    p.set_defaults(func=cmd_bist)

    p = sub.add_parser("faults",
                       help="structural fault universe summary")
    p.add_argument("--classes", action="store_true",
                   help="also collapse the universe into structural "
                        "equivalence classes and print the per-class "
                        "counts (builds the reference circuits; slower)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("campaign", aliases=["coverage"],
                       help="fault campaign (Table I): configurable "
                            "tiers, export/resume artifacts")
    p.add_argument("--sample", type=_sample_size, default=None,
                   help="stratified sample size (default: full universe)")
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--tiers", default="dc,scan,bist",
                   help="comma-separated ordered tier names "
                        "(default: dc,scan,bist)")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--workers", type=_workers, default=None,
                   help=_WORKERS_HELP.format(noun="fault"))
    p.add_argument("--export", default=None, metavar="PATH",
                   help="write the CampaignResult as JSON")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="JSONL checkpoint to stream records into and "
                        "resume from")
    _add_supervision(p, "fault")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("mc",
                       help="Monte-Carlo mismatch campaign "
                            "(yield loss / test escapes)")
    p.add_argument("--dies", type=_dies, default=64,
                   help="number of sampled dies (default 64)")
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--corner", default="TT",
                   choices=("TT", "SS", "FF", "SF", "FS"),
                   help="global corner under the mismatch (default TT)")
    p.add_argument("--tiers", default="dc,scan,bist",
                   help="comma-separated ordered tier names "
                        "(default: dc,scan,bist)")
    p.add_argument("--sigma-vt", type=_sigma_vt, default=5.0, metavar="MV",
                   help="V_T sigma of the reference device [mV] "
                        "(default 5.0)")
    p.add_argument("--sigma-kp", type=_sigma_kp, default=2.0, metavar="PCT",
                   help="relative KP sigma of the reference device [%%] "
                        "(default 2.0)")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--workers", type=_workers, default=None,
                   help=_WORKERS_HELP.format(noun="die"))
    p.add_argument("--export", default=None, metavar="PATH",
                   help="write the MCResult as JSON")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="JSONL checkpoint to stream die records into and "
                        "resume from")
    _add_supervision(p, "die")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("patterns",
                       help="coverage-vs-pattern campaign + BER sweep")
    p.add_argument("--patterns", default=None,
                   help="comma-separated stimulus names (default: "
                        "prbs7,prbs15,scrambler,isi,aggressor)")
    p.add_argument("--sample", type=_sample_size, default=None,
                   help="deterministic fault-universe subsample size")
    p.add_argument("--workers", type=_workers, default=None,
                   help=_WORKERS_HELP.format(noun="fault"))
    p.add_argument("--no-ber-sweep", dest="ber_sweep",
                   action="store_false",
                   help="skip the BER-vs-pattern-length sweep")
    p.add_argument("--export", metavar="PATH",
                   help="write the combined JSON artifact")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("bench",
                       help="time a sampled campaign + engine counters")
    p.add_argument("--sample", type=_sample_size, default=32,
                   help="stratified sample size (default 32; 0 = full)")
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--workers", type=_workers, default=None,
                   help=_WORKERS_HELP.format(noun="fault"))
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also dump the timings/counters as JSON")
    p.add_argument("--compare", nargs="?", const="benchmarks",
                   default=None, metavar="DIR",
                   help="instead of running: diff the two newest "
                        "BENCH_PR*.json artifacts in DIR (default "
                        "'benchmarks') counter by counter")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("overhead", help="DFT inventory (Table II)")
    p.add_argument("--verbose", "-v", action="store_true")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("netlist", help="export a circuit as SPICE")
    p.add_argument("which", choices=sorted(NETLIST_BUILDERS),
                   help="; ".join(f"{k}: {v}"
                                  for k, v in NETLIST_BUILDERS.items()))
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_netlist)

    p = sub.add_parser("submit",
                       help="enqueue a campaign spec for the service")
    p.add_argument("kind", choices=("campaign", "mc", "patterns"),
                   help="campaign kind (matching the direct command of "
                        "the same name)")
    _add_service_root(p)
    p.add_argument("--sample", type=_sample_size, default=None,
                   help="stratified (campaign) / deterministic "
                        "(patterns) sample size")
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--tiers", default="dc,scan,bist",
                   help="comma-separated ordered tier names, for the "
                        "campaign and mc kinds (default: dc,scan,bist)")
    p.add_argument("--patterns", default=None,
                   help="comma-separated stimulus names, for the "
                        "patterns kind (default: "
                        "prbs7,prbs15,scrambler,isi,aggressor)")
    p.add_argument("--dies", type=_dies, default=64,
                   help="mc kind: number of sampled dies (default 64)")
    p.add_argument("--corner", default="TT",
                   choices=("TT", "SS", "FF", "SF", "FS"),
                   help="mc kind: global corner (default TT)")
    p.add_argument("--sigma-vt", type=_sigma_vt, default=5.0, metavar="MV",
                   help="mc kind: V_T sigma [mV] (default 5.0)")
    p.add_argument("--sigma-kp", type=_sigma_kp, default=2.0, metavar="PCT",
                   help="mc kind: relative KP sigma [%%] (default 2.0)")
    p.add_argument("--strict-numerics", action="store_true",
                   help="escalate degraded solves to unsolvable "
                        "outcomes (part of the store key)")
    p.add_argument("--shards", type=_at_least(int, "shards", 1),
                   default=1,
                   help="independent shard jobs to split the campaign "
                        "into (execution-only: does not change the "
                        "artifact or the store key; default 1)")
    p.add_argument("--workers", type=_workers, default=None,
                   help="shard worker processes (execution-only; "
                        "default: the serve loop's setting)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("serve",
                       help="run the local coordinator over a root")
    _add_service_root(p)
    p.add_argument("--once", action="store_true",
                   help="drain the queue and exit instead of polling")
    p.add_argument("--poll", type=_at_least(float, "poll", 0.0),
                   default=0.2, metavar="S",
                   help="queue poll interval in seconds (default 0.2)")
    p.add_argument("--workers", type=_workers, default=None,
                   help="default shard worker processes for jobs that "
                        "do not set their own (default: 1)")
    p.add_argument("--timeout", type=_timeout, default=None, metavar="S",
                   help="per-shard wall-clock budget; an exceeded "
                        "shard fails its job (default: unbounded)")
    p.add_argument("--retries", type=_retries, default=1, metavar="N",
                   help="re-dispatches of a shard whose worker died "
                        "(the fresh worker resumes the shard's "
                        "checkpoint; default 1)")
    p.add_argument("--shard-retries",
                   type=_at_least(int, "shard-retries", 0), default=1,
                   metavar="N",
                   help="backoff retry rounds for shards the "
                        "supervisor gave up on before the job is "
                        "marked failed (each round resumes the "
                        "shard's checkpoint; default 1)")
    p.add_argument("--retry-backoff",
                   type=_at_least(float, "retry-backoff", 0.0),
                   default=0.25, metavar="S",
                   help="base delay of the exponential shard-retry "
                        "backoff; the jitter is deterministic per "
                        "spec digest (default 0.25)")
    p.add_argument("--lease-ttl",
                   type=_at_least(float, "lease-ttl", 0.0, strict=True),
                   default=30.0, metavar="S",
                   help="claim lease time-to-live; a coordinator that "
                        "stops heartbeating for this long has its "
                        "job reclaimed and requeued (default 30)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("status", help="job status for a service root")
    p.add_argument("job", nargs="?", default=None,
                   help="job id (default: list every job)")
    _add_service_root(p)
    p.add_argument("--json", action="store_true",
                   help="print the raw status document(s) as JSON")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("result",
                       help="fetch a finished job's artifact")
    p.add_argument("job", help="job id (see 'repro status')")
    _add_service_root(p)
    p.add_argument("--output", "-o", default=None, metavar="PATH",
                   help="write the artifact to PATH (byte-identical "
                        "to the matching direct command's --export) "
                        "instead of stdout")
    p.set_defaults(func=cmd_result)

    p = sub.add_parser("store", help="result-store maintenance")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    g = store_sub.add_parser(
        "gc", help="evict store entries older than a TTL")
    _add_service_root(g)
    g.add_argument("--ttl", type=_parse_ttl, required=True,
                   metavar="AGE",
                   help="maximum entry age before eviction: plain "
                        "seconds or a 30m / 12h / 7d suffix; entries "
                        "referenced by queued/active jobs are never "
                        "evicted (refusals are printed loudly)")
    g.add_argument("--json", action="store_true",
                   help="print the gc report as JSON")
    g.set_defaults(func=cmd_store_gc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
