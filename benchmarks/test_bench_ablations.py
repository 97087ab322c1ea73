"""Ablation benches for the design choices DESIGN.md calls out.

* VCDL tuning range vs the DLL phase step (the Section II design rule:
  remove the margin and the loop limit-cycles);
* window width vs lock time (wider window = slower coarse reaction);
* lock-detector threshold (the n_phases/2 bound is tight);
* comparator offset vs DC-test sensitivity;
* the deferred DLL BIST extension ([11], [12]).
"""

from dataclasses import replace


from repro.dft.dll_bist import (
    dll_with_dead_tap,
    dll_with_tap_defect,
    healthy_dll,
    run_dll_bist,
)
from repro.link import LinkParams, VCDLBeh
from repro.synchronizer import SynchronizerLoop, lock_sweep, stop_at_lock


def run_with(params, phase=5, cycles=9000):
    loop = SynchronizerLoop(params=replace(params,
                                           initial_phase_index=phase))
    return loop.run(max_cycles=cycles, stop=stop_at_lock)


class TestVCDLRangeAblation:
    def test_bench_vcdl_range_rule(self, benchmark):
        """Shrink the VCDL span below one phase step: the reachable
        sampling phases acquire gaps, so some eye positions become
        unlockable.  A compliant (span > step) VCDL covers every eye
        position.  Eye position varies die-to-die with wire latency, so
        coverage over positions is the design-rule currency."""

        def ablate():
            healthy = LinkParams()
            base = healthy.vcdl_delay

            def narrow(vc):
                mid = base(0.6)
                return mid + (base(vc) - mid) / 4.0   # span ~ 14 ps

            eye_offsets = [k * 10e-12 for k in range(4)]  # 0..30 ps
            ok, bad = [], []
            for off in eye_offsets:
                p_ok = healthy.with_faults(
                    eye_center=healthy.eye_center + off)
                p_bad = healthy.with_faults(
                    eye_center=healthy.eye_center + off,
                    vcdl_delay=narrow)
                ok.append(run_with(p_ok, phase=3).bist_pass)
                bad.append(run_with(p_bad, phase=3).bist_pass)
            return ok, bad

        ok, bad = benchmark.pedantic(ablate, rounds=1, iterations=1)
        assert all(ok)        # compliant VCDL: every eye position locks
        assert not all(bad)   # sub-step span: gaps appear
        print(f"\n[ablation] VCDL span < phase step: "
              f"{sum(bad)}/{len(bad)} eye positions still lock "
              f"(compliant VCDL {sum(ok)}/{len(ok)}) — the Section II "
              "range rule is required")

    def test_bench_vcdl_rule_holds_as_built(self, benchmark):
        v = benchmark.pedantic(lambda: VCDLBeh(LinkParams()), rounds=1,
                               iterations=1)
        assert v.exceeds_phase_step()
        print(f"\n[ablation] as-built VCDL span "
              f"{v.tuning_range() * 1e12:.0f} ps vs "
              f"{LinkParams().phase_step * 1e12:.0f} ps phase step")


class TestWindowWidthAblation:
    def test_bench_window_width_vs_lock(self, benchmark):
        """Narrower window -> more coarse corrections; wider -> slower
        V_c excursions but fewer resets.  Both must still lock."""

        def sweep():
            out = {}
            for half_width in (0.10, 0.15, 0.25):
                p = LinkParams(v_window_lo=0.6 - half_width,
                               v_window_hi=0.6 + half_width)
                r = run_with(p, phase=5, cycles=20000)
                out[half_width] = (r.locked, r.lock_time,
                                   r.coarse_corrections)
            return out

        out = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert all(v[0] for v in out.values())
        # lock time grows with the window width (longer sawtooth)
        times = [out[w][1] for w in sorted(out)]
        assert times[0] < times[-1]
        print("\n[ablation] window half-width vs lock")
        for w in sorted(out):
            locked, t, n = out[w]
            print(f"  +-{w * 1e3:3.0f} mV: lock {t * 1e9:7.0f} ns, "
                  f"{n} coarse corrections")


class TestLockDetectorThresholdAblation:
    def test_bench_bound_is_tight(self, benchmark):
        """The worst startup phase needs exactly n_phases/2 corrections,
        so a lock-detector threshold below that would false-fail."""
        sweep = benchmark.pedantic(lock_sweep, rounds=1, iterations=1)
        assert sweep.max_coarse_corrections == LinkParams().n_phases // 2
        print(f"\n[ablation] lock-detector bound is tight: worst case "
              f"uses {sweep.max_coarse_corrections} of "
              f"{LinkParams().n_phases // 2} allowed corrections")


class TestComparatorOffsetAblation:
    def test_bench_offset_vs_detectability(self, benchmark):
        """The programmed offset must sit between the faulty (~0 mV) and
        healthy (~30 mV) comparator inputs: the 0.8u/0.5u choice does."""
        from repro.circuits import comparator_output

        def evaluate():
            healthy_in = 30e-3
            dead_arm_in = 2e-3
            return (comparator_output(healthy_in),
                    comparator_output(dead_arm_in))

        healthy_bit, faulty_bit = benchmark.pedantic(evaluate, rounds=1,
                                                     iterations=1)
        assert healthy_bit == 1
        assert faulty_bit == 0
        print("\n[ablation] offset comparator separates healthy 30 mV "
              "from a dead arm's ~0 mV")


class TestDLLBistExtension:
    def test_bench_dll_bist(self, benchmark):
        """The deferred [11]/[12] integration: a digital vernier BIST
        for the DLL taps."""

        def run_all():
            return (run_dll_bist(healthy_dll()),
                    run_dll_bist(dll_with_tap_defect(4, 0.5)),
                    run_dll_bist(dll_with_dead_tap(7)))

        good, skewed, dead = benchmark.pedantic(run_all, rounds=1,
                                                iterations=1)
        assert good.passed
        assert not skewed.passed
        assert not dead.passed
        print("\n[extension] stand-alone DLL BIST: healthy passes, "
              f"skewed tap fails at {skewed.failing_taps}, "
              f"dead tap fails at {dead.failing_taps}")
