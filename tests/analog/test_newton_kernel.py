"""The Newton iterations of the compiled engine against their slow oracle.

``CompiledAssembly.assemble`` stamps the EKV MOSFETs on a restacked
block and builds ``b`` with one ``np.bincount``, and one Newton loop
serves DC and every transient step: it factors once per iteration,
verifies rung 0 itself, climbs the ladder only when rung 0 misses and
folds its diagnostics into one running record.  The code those replaced
lives on in :mod:`reference_newton`, whose
:class:`~reference_newton.Shadow` runs it beside every product
``assemble``, Newton-loop solve (rung 0's ``direct_solve`` or the
``climb_ladder`` after a miss), ``resilient_solve`` and ``newton`` call
of a real analysis and requires bitwise-equal ``A``, ``b`` and ``x``,
equal ``SolveDiagnostics`` fields and, for a raised ``SolverError``,
the same type, message and diagnostics.  At teardown the product and
oracle tallies must agree.  A rewrite that is not exact
(``TestMutations``) fails the shadow.
"""

import numpy as np
import pytest

from reference_newton import Shadow, plain_lu

from repro.analog import (Circuit, ac_analysis, dc_operating_point,
                          get_compiled, logspace_freqs, numerics_policy,
                          step_waveform, transient)
from repro.analog import dc as _dc
from repro.analog import resilience
from repro.analog.assembly import CompiledAssembly
from repro.analog.resilience import (RUNG_REFINED, SolveDiagnostics,
                                     UnsolvableError)
from repro.analog.solver import (SolverError, build_index, factor,
                                 solve_factored)
from repro.circuits.full_link import build_full_link
from repro.core.profiling import COUNTERS
from repro.dft.duts import build_receiver_dut, build_vcdl_dut, run_link_static
from repro.faults.inject import inject_fault
from repro.faults.model import FaultKind, StructuralFault
from repro.analog.devices import Capacitor
from repro.analog.mosfet import MOSFET


@pytest.fixture
def shadow(monkeypatch):
    s = Shadow(monkeypatch)
    yield s
    s.check_tallies()
    assert not s.mismatches


# ----------------------------------------------------------------------
# benches
# ----------------------------------------------------------------------
CONDITIONS = ({}, {"scan": True}, {"up": 1, "up_st": 1},
              {"dn": 1, "dn_st": 1}, {"force_mid": True, "hold": True})


def _receiver():
    dut = build_receiver_dut()
    dut.set_condition()
    return dut


def _vcdl_step():
    c = build_vcdl_dut().circuit
    c["VCLK"].waveform = step_waveform(0.0, 1.2, 0.1e-9, t_rise=20e-12)
    return c


def _link_toggle():
    link = build_full_link(name="toggle", ladder_sections=4)
    link.circuit["VDATA"].waveform = step_waveform(1.2, 0.0, 0.2e-9,
                                                   t_rise=100e-12)
    link.circuit["VDATAB"].waveform = step_waveform(0.0, 1.2, 0.2e-9,
                                                    t_rise=100e-12)
    return link.circuit


class TestBenches:
    def test_receiver_dc_every_condition(self, shadow):
        dut = _receiver()
        for condition in CONDITIONS:
            dut.set_condition(**condition)
            assert dut.solve().converged
        assert shadow.assemblies > 0 and shadow.solves > 0
        assert shadow.loops > 0

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_receiver_tran(self, shadow, method):
        dut = _receiver()
        dut.circuit["VUP"].waveform = step_waveform(0.0, 1.2, 0.2e-9)
        dut.circuit["VUPB"].waveform = step_waveform(1.2, 0.0, 0.2e-9)
        tr = transient(dut.circuit, 1e-9, 0.05e-9, method=method)
        assert tr.converged
        assert tr.diagnostics.verified

    def test_vcdl_dc(self, shadow):
        dut = build_vcdl_dut()
        assert dut.observe() == 0
        dut.set_input(1)
        assert dut.observe() == 1

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_vcdl_tran(self, shadow, method):
        tr = transient(_vcdl_step(), 0.4e-9, 4e-12, probes=["clk_out"],
                       method=method)
        assert tr.converged

    def test_full_link_dc(self, shadow):
        assert run_link_static(build_full_link()) is not None

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_full_link_tran(self, shadow, method):
        tr = transient(_link_toggle(), 0.6e-9, 0.05e-9, method=method)
        assert tr.converged

    def test_linear_circuit_factors_every_iteration(self, shadow):
        c = Circuit("rc")
        vs = c.add_vsource("n0", "0", 0.0, name="VS")
        for i in range(4):
            c.add_resistor(f"n{i}", f"n{i + 1}", 500.0)
            c.add_capacitor(f"n{i + 1}", "0", 0.2e-12)
        vs.waveform = step_waveform(0.0, 1.0, 0.1e-9)
        assert transient(c, 1e-9, 20e-12, method="trap").converged
        assert COUNTERS.lu_factor == COUNTERS.newton_iterations > 0
        assert COUNTERS.lu_reuse == 0


# ----------------------------------------------------------------------
# faulted and retuned plans
# ----------------------------------------------------------------------
def _receiver_faults():
    """One fault of every kind on receiver devices and caps."""
    circuit = _receiver().circuit
    mosfets = [e.name for e in circuit if isinstance(e, MOSFET)]
    caps = [e.name for e in circuit if isinstance(e, Capacitor)]
    faults = []
    for i, kind in enumerate(FaultKind):
        if kind == FaultKind.CAP_SHORT:
            faults.append(StructuralFault(caps[0], kind, "cp"))
        else:
            # spread the device picks over the bench
            device = mosfets[(7 * i) % len(mosfets)]
            faults.append(StructuralFault(device, kind, "cp"))
    return faults


class TestFaultedPlans:
    @pytest.mark.parametrize("fault", _receiver_faults(), ids=str)
    def test_faulted_receiver_dc(self, shadow, fault):
        dut = _receiver()
        faulted = inject_fault(dut.circuit, fault)
        for condition in CONDITIONS[:3]:
            dut.set_condition(**condition)
            for name in ("VSEN", "VUP", "VUPB", "VDN", "VDNB"):
                faulted[name].voltage = dut.circuit[name].voltage
            try:
                dc_operating_point(faulted)
            except UnsolvableError:
                pass

    @pytest.mark.parametrize("kind", [FaultKind.DRAIN_OPEN,
                                      FaultKind.GATE_SOURCE_SHORT])
    def test_faulted_vcdl_tran(self, shadow, kind):
        c = _vcdl_step()
        device = next(e.name for e in c if isinstance(e, MOSFET))
        faulted = inject_fault(c, StructuralFault(device, kind, "vcdl"))
        transient(faulted, 0.2e-9, 4e-12, probes=["clk_out"])

    def test_retuned_plan(self, shadow):
        dut = _receiver()
        c = dut.circuit
        assert dut.solve().converged
        node_index, _, n_total = build_index(c)
        plan = get_compiled(c, "dc", node_index=node_index, n_total=n_total)
        for e in c:
            if isinstance(e, MOSFET):
                e.w *= 1.07
        c.retune()
        assert dut.solve().converged
        again = get_compiled(c, "dc", node_index=node_index,
                             n_total=n_total)
        assert again is plan


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------
def _parallel_sources():
    """Two ideal sources fighting over one node: singular MNA."""
    c = Circuit("fight")
    c.add_vsource("a", "0", 1.0, name="V1")
    c.add_vsource("a", "0", 0.5, name="V2")
    c.add_resistor("a", "0", 1e3)
    return c


class TestLadder:
    def test_singular_matrix_raises_in_both(self, shadow):
        c = _parallel_sources()
        node_index, _, n_total = build_index(c)
        plan = get_compiled(c, "dc", node_index=node_index, n_total=n_total)
        A, b = plan.assemble(np.zeros(n_total))
        with pytest.raises(SolverError) as got:
            factor(A)
        with pytest.raises(SolverError) as want:
            plain_lu(A, b)
        assert str(got.value) == str(want.value)
        with pytest.raises(UnsolvableError):
            resilience.resilient_solve(A, b)
        assert shadow.raised == 1

    def test_singular_circuit(self, shadow):
        with pytest.raises(UnsolvableError):
            dc_operating_point(_parallel_sources())

    def test_every_rung_on_a_real_bench(self, shadow):
        """An unreachable good threshold walks every Newton solve up
        through refined, equilibrated and lstsq."""
        with numerics_policy(residual_good=0.0):
            _receiver().solve()
        assert COUNTERS.rescue_refined > 0
        assert COUNTERS.rescue_equilibrated > 0
        assert COUNTERS.rescue_lstsq > 0

    def test_strict_policy(self, shadow):
        with numerics_policy(residual_good=0.0, strict=True):
            with pytest.raises(UnsolvableError):
                _receiver().solve()

    def test_good_threshold_above_unsolvable(self, shadow):
        """rung 0 verifies, yet the residual still exceeds the
        unsolvable threshold: both raise."""
        with numerics_policy(residual_good=1.0, residual_unsolvable=1e-300):
            with pytest.raises(UnsolvableError):
                _receiver().solve()
        assert shadow.raised > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_near_singular_and_rank_deficient(self, shadow, seed):
        rng = np.random.default_rng(seed)
        n = 9
        U, _, Vt = np.linalg.svd(rng.normal(size=(n, n)))
        s = np.logspace(0, -15 - seed, n)
        if seed % 2:
            s[-1] = 0.0
        A = (U * s) @ Vt
        b = rng.normal(size=n)
        b_consistent = A @ rng.normal(size=n)
        for rhs in (b, b_consistent):
            try:
                resilience.resilient_solve(A, rhs, want_condition=True)
            except UnsolvableError:
                pass

    def test_complex_ac(self, shadow):
        dut = _receiver()
        op = dut.solve()
        res = ac_analysis(dut.circuit, "VUP", logspace_freqs(1e6, 1e10, 9),
                          op=op)
        assert res.diagnostics.verified

    def test_complex_systems_climb(self, shadow):
        rng = np.random.default_rng(5)
        n = 7
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        resilience.resilient_solve(A, b, want_condition=True)
        with numerics_policy(residual_good=0.0):
            resilience.resilient_solve(A, b, want_condition=True)
        A[:, 0] = 0.0
        with pytest.raises(UnsolvableError):
            resilience.resilient_solve(A, b)


# ----------------------------------------------------------------------
# a loop that climbs, then verifies at rung 0
# ----------------------------------------------------------------------
def _stiff():
    """1 mA into a node tied to ground only through a 1 mOhm resistor
    and a diode-connected NMOS: from x = 0 the device is off, so the
    first iteration's matrix is near singular and its rung-0 residual
    misses; once the device conducts, every iteration verifies."""
    c = Circuit("stiff")
    c.add_isource("0", "a", 1e-3, name="I1")
    c.add_resistor("a", "b", 1e-3)
    c.add_nmos("b", "b", "0", w=1e-6, l=0.13e-6)
    return c


class TestMixedLoop:
    def test_first_iteration_climbs_later_ones_hit(self, shadow,
                                                   monkeypatch):
        """The ladder's record of iteration 1 and the rung-0 residuals
        of the later iterations fold into exactly the oracle's
        aggregate (the shadow compares it at the loop's end)."""
        misses = []
        checked = _dc.direct_solve

        def recorded(A, b, policy):
            got = checked(A, b, policy)
            misses.append(got[1] is None)
            return got

        monkeypatch.setattr(_dc, "direct_solve", recorded)
        op = dc_operating_point(_stiff())
        assert op.converged and op.strategy == "newton"
        assert len(misses) == op.iterations > 2
        assert misses[0] and not any(misses[1:])
        assert op.diagnostics.rung == RUNG_REFINED
        assert op.diagnostics.refinements > 0
        assert shadow.loops == 1


# ----------------------------------------------------------------------
# the LU primitive pair
# ----------------------------------------------------------------------
class TestLuPair:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical_to_scipy(self, dtype):
        from scipy.linalg import lu_factor, lu_solve

        rng = np.random.default_rng(11)
        for n in (1, 5, 14, 40, 67):
            A = rng.normal(size=(n, n)).astype(dtype)
            b = rng.normal(size=n).astype(dtype)
            lu, piv = factor(A)
            lu_ref, piv_ref = lu_factor(A, check_finite=False)
            assert lu.tobytes() == lu_ref.tobytes()
            assert piv.tobytes() == piv_ref.tobytes()
            x = solve_factored((lu, piv), b)
            assert x.tobytes() == lu_solve((lu_ref, piv_ref), b,
                                           check_finite=False).tobytes()
            cols = rng.normal(size=(n, 3)).astype(dtype)
            assert solve_factored((lu, piv), cols).tobytes() == lu_solve(
                (lu_ref, piv_ref), cols, check_finite=False).tobytes()

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("seed", range(20))
    def test_zero_pivot_check_matches_scipy_contract(self, seed):
        """LAPACK's info > 0 is the exact-zero-pivot test the wrapper
        contract raised on (a zero on the factor's diagonal)."""
        from scipy.linalg import lu_factor

        rng = np.random.default_rng(seed)
        n = (2, 3, 5, 9, 16, 40, 67)[seed % 7]
        A = rng.integers(-2, 3, size=(n, n)).astype(float)
        A[rng.integers(n)] = 0.0 if seed % 3 == 0 else A[rng.integers(n)]
        lu_ref, _ = lu_factor(A, check_finite=False)
        singular = bool(np.any(np.diagonal(lu_ref) == 0.0))
        try:
            factor(A)
        except SolverError as exc:
            assert singular
            assert str(exc) == "singular MNA matrix: exact zero pivot"
        else:
            assert not singular


# ----------------------------------------------------------------------
# the shadow catches rewrites that are not exact
# ----------------------------------------------------------------------
def _fold_beta_over_n(read):
    """``beta * (1/n)`` precomputed for the gm row: one rounding where
    the stamp has two."""
    def folded(plan):
        read(plan)
        plan._mos_beta3[0] = plan._mos_beta * plan._mos_inv_n
        plan._mos_inv_n = np.ones_like(plan._mos_inv_n)
    return folded


def _refactor_switch_gdiff(read):
    """``g_on - g_off`` as ``(1 - r_on / r_off) / r_on``: equal in exact
    arithmetic, not in floating point."""
    def refactored(plan):
        read(plan)
        for j, e in enumerate(plan._switches):
            plan._sw_gdiff[j] = (1.0 - e.r_on / e.r_off) / e.r_on
    return refactored


def _invariants_kept_per_plan(solve_invariants):
    """Per-solve terms cached on the plan: stale once the sources
    move between solves."""
    def kept(plan, *args, **kwargs):
        if not hasattr(plan, "kept_invariants"):
            plan.kept_invariants = solve_invariants(plan, *args, **kwargs)
        return plan.kept_invariants
    return kept


def _absorb_newest_residual(absorb):
    """The running record keeps the newest residual, not the worst."""
    def newest(agg, newer):
        absorb(agg, newer)
        agg.residual = newer.residual
    return newest


def _absorb_newest_rung0_residual(absorb_residual):
    """The same for the residuals of iterations that verify at rung 0."""
    def newest(agg, residual):
        absorb_residual(agg, residual)
        agg.residual = residual
    return newest


class TestMutations:
    @pytest.mark.parametrize("owner, name, mutate, message, policy", [
        (CompiledAssembly, "_read_mosfet_params", _fold_beta_over_n,
         "A differs", {}),
        (CompiledAssembly, "_read_switch_params", _refactor_switch_gdiff,
         "A differs", {}),
        (CompiledAssembly, "solve_invariants", _invariants_kept_per_plan,
         "b differs", {}),
        (SolveDiagnostics, "absorb_residual", _absorb_newest_rung0_residual,
         "aggregated diagnostics", {}),
        # every iteration climbs, so the ladder records fold by absorb
        (SolveDiagnostics, "absorb", _absorb_newest_residual,
         "aggregated diagnostics", {"residual_good": 0.0}),
    ], ids=["beta-over-n", "switch-gdiff", "stale-invariants",
            "newest-residual", "newest-ladder-residual"])
    def test_inexact_rewrite_fails(self, monkeypatch, owner, name, mutate,
                                   message, policy):
        monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
        shadow = Shadow(monkeypatch)
        dut = _receiver()
        with pytest.raises(AssertionError, match=message), \
                numerics_policy(**policy):
            for condition in CONDITIONS:
                dut.set_condition(**condition)
                dut.solve()
        assert shadow.mismatches

    def test_a_shadow_that_saw_nothing_fails(self, monkeypatch):
        """No solve under the shadow is a mismatch, not a pass: the
        guard check reports mismatches and nothing else."""
        shadow = Shadow(monkeypatch)
        with pytest.raises(AssertionError, match="no solve was shadowed"):
            shadow.check_tallies()
        assert shadow.mismatches == ["no solve was shadowed"]
