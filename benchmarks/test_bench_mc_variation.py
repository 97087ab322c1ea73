"""Bench: the Monte-Carlo mismatch campaign and its plan-reuse path.

Times a small die sweep and checks the engine economics the variation
subsystem was built for: benches are constructed once and *re-tuned*
per die (``mc_bench_reuse``), and the compiled MNA plans survive the
re-parameterisation instead of recompiling (``plan_retunes`` with no
matching growth in ``compile_count``).
"""

from repro.core.profiling import COUNTERS

from benchmarks.conftest import get_mc_result


def test_bench_mc_campaign(benchmark):
    compile_before = COUNTERS.compile_count

    result = benchmark.pedantic(get_mc_result, rounds=1, iterations=1)

    assert result.total >= 1
    assert result.tier_order == ("dc", "scan", "bist")
    # a zero-escape universe would mean the sampler is broken, not the
    # DFT perfect; the paper's own coverage tops out at 94.8%
    assert 0.0 <= result.escape_rate().point <= 1.0

    print(f"\n[variation] {result.total} dies @ {result.corner}, "
          f"seed {result.seed}")
    print(f"  yield loss (any tier)   : {result.yield_loss()}")
    print(f"  test escapes            : {result.escape_rate()}")
    print(f"  dies evaluated          : {COUNTERS.mc_dies}")
    print(f"  bench reuses            : {COUNTERS.mc_bench_reuse}")
    print(f"  plan retunes            : {COUNTERS.plan_retunes}")
    print(f"  plans compiled this run : "
          f"{COUNTERS.compile_count - compile_before}")


def test_bench_mc_plan_reuse_economics():
    """A die sweep must re-tune cached plans, not recompile, in each
    worker; a forked sweep's workers send their counters back with
    each die's record."""
    get_mc_result()     # ensure the campaign ran in this session
    assert COUNTERS.mc_dies > 0
    assert COUNTERS.mc_bench_reuse > 0
    assert COUNTERS.plan_retunes > 0
