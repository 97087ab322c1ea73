"""Bench: the Section III lock budget — "The receiver is expected to
lock within 2 us, which corresponds to 5000 cycles at 2.5 Gbps" and
"the number of coarse corrections needed can be no more than half the
number of DLL phases".
"""


from repro.link import LinkParams
from repro.synchronizer import LOCK_BUDGET_S, coarse_correction_bound, lock_sweep


def test_bench_lock_time_all_phases(benchmark):
    sweep = benchmark.pedantic(lock_sweep, rounds=1, iterations=1)
    p = LinkParams()

    assert sweep.all_locked
    assert sweep.all_within_budget
    assert sweep.worst_lock_time <= LOCK_BUDGET_S
    assert sweep.max_coarse_corrections <= coarse_correction_bound()

    budget_cycles = int(LOCK_BUDGET_S / p.bit_time)
    print("\n[Section III] lock budget from every startup phase")
    print(f"  {'phase':>5}  {'lock time':>10}  {'cycles':>7}  {'coarse':>6}")
    for k in sorted(sweep.results):
        r = sweep.results[k]
        cycles = int(r.lock_time / p.bit_time)
        print(f"  {k:>5}  {r.lock_time * 1e9:8.0f} ns  {cycles:>7}  "
              f"{r.coarse_corrections:>6}")
    print(f"  worst case {sweep.worst_lock_time * 1e9:.0f} ns of the "
          f"{LOCK_BUDGET_S * 1e9:.0f} ns / {budget_cycles}-cycle budget; "
          f"max {sweep.max_coarse_corrections} corrections "
          f"(bound {coarse_correction_bound()})")


def test_bench_lock_detector_sizing(benchmark):
    """3-bit saturating counter suffices for a 10-phase DLL."""
    from repro.link import LockDetector
    from repro.synchronizer.loop import LockVerdict

    def worst_case():
        params = LinkParams()
        ld = LockDetector(params)
        sweep = lock_sweep()
        bound = LockVerdict.lock_test(params).bound
        return sweep.max_coarse_corrections, ld.max_count, bound

    worst, sat, bound = benchmark.pedantic(worst_case, rounds=1,
                                           iterations=1)
    assert worst <= bound <= sat
    print(f"\n[Section III] lock detector: worst case {worst} corrections, "
          f"bound {bound}, 3-bit saturation {sat}")
