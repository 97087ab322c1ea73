"""One Newton iteration of the compiled engine against its slow oracle.

``CompiledAssembly.assemble`` stamps the EKV MOSFETs on stacked arrays
and ``solve_diag`` calls LAPACK directly through a one-slot LU cache,
returning right after a verified rung 0.  The code those replaced lives
on in :mod:`reference_newton`.  The :class:`Shadow` fixture runs the
oracle beside every product ``assemble``, ``solve_diag`` and
``resilient_solve`` call of a real analysis and requires bitwise-equal
``A`` and ``b``, bitwise-equal ``x``, equal ``SolveDiagnostics`` fields
and, for a raised ``SolverError``, the same type, message and
diagnostics.  At teardown the product and oracle tallies must agree:
rescue rungs, degraded and unsolvable solves, and the total number of
LU solves (the oracle's sticky store turns some factorizations into
reuses; the product has one slot, so only the sum can match).
"""

import numpy as np
import pytest

import reference_newton as ref
from reference_newton import (ReferenceLinearSolverCache,
                              reference_assemble,
                              reference_resilient_solve,
                              reference_solve_diag)

from repro.analog import (Circuit, ac_analysis, dc_operating_point,
                          get_compiled, logspace_freqs, numerics_policy,
                          step_waveform, transient)
from repro.analog import dc as dc_module
from repro.analog import resilience
from repro.analog.assembly import CompiledAssembly, LinearSolverCache
from repro.analog.resilience import UnsolvableError
from repro.analog.solver import (SolverError, build_index, factor,
                                 solve_factored)
from repro.circuits.full_link import build_full_link
from repro.core.profiling import COUNTERS
from repro.dft.duts import build_receiver_dut, build_vcdl_dut
from repro.faults.inject import inject_fault
from repro.faults.model import FaultKind, StructuralFault
from repro.analog.devices import Capacitor
from repro.analog.mosfet import MOSFET


def _diag_key(diag):
    if diag is None:
        return None
    # repr round-trips floats exactly and tells -0.0 from 0.0
    return repr((diag.residual, diag.condition, diag.rung, diag.non_finite,
                 diag.refinements, diag.threshold))


def _outcome(call):
    """``(comparable key, result or exception)`` of one solve."""
    try:
        x, diag = call()
    except SolverError as exc:
        key = ("raise", type(exc), str(exc),
               _diag_key(getattr(exc, "diagnostics", None)))
        return key, exc
    return ("ok", x.dtype, x.shape, x.tobytes(), _diag_key(diag)), (x, diag)


class Shadow:
    """Runs the oracle beside every product assemble and solve."""

    def __init__(self, monkeypatch):
        self.assemblies = self.solves = self.raised = 0
        self._caches = {}
        assemble = CompiledAssembly.assemble
        solve_diag = CompiledAssembly.solve_diag
        resilient_solve = resilience.resilient_solve
        shadow = self

        def checked_assemble(plan, x, *, time=0.0, xprev=None):
            A, b = assemble(plan, x, time=time, xprev=xprev)
            A_ref, b_ref = reference_assemble(plan, x, time=time,
                                              xprev=xprev, assemble=assemble)
            assert A.tobytes() == A_ref.tobytes()
            assert b.tobytes() == b_ref.tobytes()
            shadow.assemblies += 1
            return A, b

        def checked_solve_diag(plan, A, b, *, reuse=True,
                               want_condition=False):
            cache = shadow.cache_for(plan)
            return shadow.compare(
                lambda: solve_diag(plan, A, b, reuse=reuse,
                                   want_condition=want_condition),
                lambda: reference_solve_diag(plan, cache, A, b, reuse=reuse,
                                             want_condition=want_condition))

        def checked_resilient_solve(A, b, **kwargs):
            return shadow.compare(
                lambda: resilient_solve(A, b, **kwargs),
                lambda: reference_resilient_solve(A, b, **kwargs))

        monkeypatch.setattr(CompiledAssembly, "assemble", checked_assemble)
        monkeypatch.setattr(CompiledAssembly, "solve_diag",
                            checked_solve_diag)
        # dc's pseudo-transient rescue and the legacy/AC solve path
        monkeypatch.setattr(dc_module, "resilient_solve",
                            checked_resilient_solve)
        monkeypatch.setattr(resilience, "resilient_solve",
                            checked_resilient_solve)
        COUNTERS.reset()
        ref.COUNTERS.reset()

    def cache_for(self, plan) -> ReferenceLinearSolverCache:
        """The oracle's cache twin of *plan*'s (a retune drops both)."""
        key = (id(plan), plan.param_revision)
        hit = self._caches.get(key)
        if hit is None or hit[0] is not plan:
            hit = self._caches[key] = (plan, ReferenceLinearSolverCache())
        return hit[1]

    def compare(self, product, oracle):
        want, _ = _outcome(oracle)
        got, result = _outcome(product)
        assert got == want
        self.solves += 1
        if got[0] == "raise":
            self.raised += 1
            raise result
        return result

    def check_tallies(self) -> None:
        assert self.solves > 0
        for name in ("rescue_refined", "rescue_equilibrated", "rescue_lstsq",
                     "degraded_solves", "unsolvable_systems"):
            assert getattr(COUNTERS, name) == getattr(ref.COUNTERS, name), \
                name
        assert (COUNTERS.lu_factor + COUNTERS.lu_reuse
                == ref.COUNTERS.lu_factor + ref.COUNTERS.lu_reuse)


@pytest.fixture
def shadow(monkeypatch):
    s = Shadow(monkeypatch)
    yield s
    s.check_tallies()


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

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_receiver_tran(self, shadow, method):
        dut = _receiver()
        dut.circuit["VUP"].waveform = step_waveform(0.0, 1.2, 0.2e-9)
        dut.circuit["VUPB"].waveform = step_waveform(1.2, 0.0, 0.2e-9)
        tr = transient(dut.circuit, 1e-9, 0.05e-9, method=method)
        assert tr.converged

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
        link = build_full_link()
        assert link.run_dc_test() is not None

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_full_link_tran(self, shadow, method):
        tr = transient(_link_toggle(), 0.6e-9, 0.05e-9, method=method)
        assert tr.converged

    def test_reuse_false(self, shadow):
        tr = transient(_vcdl_step(), 0.2e-9, 4e-12, probes=["clk_out"],
                       lu_reuse=False)
        assert tr.converged
        assert COUNTERS.lu_reuse == 0

    def test_linear_circuit_replays_one_slot(self, shadow):
        c = Circuit("rc")
        vs = c.add_vsource("n0", "0", 0.0, name="VS")
        for i in range(4):
            c.add_resistor(f"n{i}", f"n{i + 1}", 500.0)
            c.add_capacitor(f"n{i + 1}", "0", 0.2e-12)
        vs.waveform = step_waveform(0.0, 1.0, 0.1e-9)
        assert transient(c, 1e-9, 20e-12, method="trap").converged
        assert COUNTERS.lu_reuse > COUNTERS.lu_factor


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
            LinearSolverCache().solve(A, b)
        with pytest.raises(SolverError) as want:
            ReferenceLinearSolverCache().solve(A, b)
        assert str(got.value) == str(want.value)
        with pytest.raises(UnsolvableError):
            plan.solve_diag(A, b)
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
            for direct in (None, np.linalg.solve):
                kwargs = {} if direct is None else {"direct": direct}
                try:
                    resilience.resilient_solve(A, rhs, want_condition=True,
                                               **kwargs)
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
