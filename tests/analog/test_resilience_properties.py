"""Property and equivalence tests for the numerical resilience layer.

The fallback ladder (:mod:`repro.analog.resilience`) carries a
three-part contract:

* a *healthy* system solves on the ``direct`` rung, one LAPACK
  ``getrf``/``getrs`` pair — bit-identical to
  :func:`~repro.analog.solver.factor` /
  :func:`~repro.analog.solver.solve_factored` — and comes back
  *verified* (small relative residual, finite, small condition);
* a *pathological* system (rank-deficient, gross scaling) either gets
  rescued — and then the diagnostics name the rung that saved it — or
  raises :class:`UnsolvableError`; NaN/Inf is **never** returned
  silently;
* the legacy stamp-loop assembly and the compiled fast path
  (:meth:`CompiledAssembly.assemble`), each solved by
  :func:`resilient_solve`, report equivalent diagnostics for the same
  system.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog import (
    Circuit,
    Resistor,
    UnsolvableError,
    VoltageSource,
    ac_analysis,
    dc_operating_point,
    get_compiled,
    get_policy,
    numerics_policy,
    relative_residual,
    resilient_solve,
    step_waveform,
    transient,
)
from repro.analog.resilience import (
    RUNG_DIRECT,
    RUNG_LSTSQ,
    RUNG_SEVERITY,
    RUNG_UNSOLVABLE,
    SolveDiagnostics,
    condition_estimate_1norm,
)
from repro.analog.solver import (assemble, build_index, factor,
                                 solve_factored)

dims = st.integers(min_value=2, max_value=12)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def well_conditioned(n, seed):
    """Diagonally dominant dense system — condition O(1)."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * n * np.eye(n)
    b = rng.uniform(-1.0, 1.0, n)
    return A, b


def rank_deficient(n, seed, consistent):
    """Dense system with an exactly zero last row — rank n-1 with an
    exact zero pivot, so the direct LU rung reliably fails.

    ``consistent=True`` zeroes the matching RHS entry (the trivial
    equation ``0 == 0``; least squares solves the rest);
    ``consistent=False`` demands ``0 == 1`` — no solution exists.
    """
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * n * np.eye(n)
    A[n - 1] = 0.0
    b = rng.uniform(-1.0, 1.0, n)
    b[n - 1] = 0.0 if consistent else 1.0
    return A, b


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------
class TestMeasurements:
    @given(n=dims, seed=seeds)
    @settings(max_examples=40)
    def test_exact_solution_has_tiny_residual(self, n, seed):
        A, b = well_conditioned(n, seed)
        x = np.linalg.solve(A, b)
        assert relative_residual(A, b, x) < 1e-12

    def test_zero_rhs_uses_absolute_residual(self):
        A = np.eye(2)
        assert relative_residual(A, np.zeros(2), np.zeros(2)) == 0.0
        assert relative_residual(A, np.zeros(2), np.ones(2)) == 1.0

    def test_empty_system(self):
        assert relative_residual(np.zeros((0, 0)), np.zeros(0),
                                 np.zeros(0)) == 0.0

    def test_condition_of_identity(self):
        assert condition_estimate_1norm(np.eye(5)) == pytest.approx(1.0)

    def test_condition_tracks_diagonal_grading(self):
        A = np.diag([1.0, 1e-6])
        est = condition_estimate_1norm(A)
        assert 1e5 < est < 1e7

    def test_condition_of_singular_is_inf(self):
        A = np.ones((3, 3))
        assert condition_estimate_1norm(A) == math.inf


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------
class TestLadder:
    @given(n=dims, seed=seeds)
    @settings(max_examples=40)
    def test_healthy_solve_is_direct_and_verified(self, n, seed):
        A, b = well_conditioned(n, seed)
        x, diag = resilient_solve(A, b, want_condition=True)
        assert diag.rung == RUNG_DIRECT
        assert diag.verified and not diag.degraded
        assert diag.residual <= get_policy().residual_good
        assert math.isfinite(diag.condition) and diag.condition < 1e4
        assert np.all(np.isfinite(x))

    @given(n=dims, seed=seeds)
    @settings(max_examples=20)
    def test_direct_rung_is_bit_identical_to_one_lu(self, n, seed):
        """Rung 0 is one ``getrf``/``getrs`` pair: a healthy system
        keeps its exact bits."""
        A, b = well_conditioned(n, seed)
        x, _ = resilient_solve(A, b)
        assert x.tobytes() == solve_factored(factor(A), b).tobytes()

    @given(n=dims, seed=seeds)
    @settings(max_examples=40)
    def test_consistent_rank_deficiency_is_rescued_with_named_rung(
            self, n, seed):
        A, b = rank_deficient(n, seed, consistent=True)
        x, diag = resilient_solve(A, b)
        assert np.all(np.isfinite(x))
        # the direct LU hits an exact zero pivot, so a rescue rung —
        # in practice the SVD least-squares one — must own the answer
        assert RUNG_SEVERITY[diag.rung] > RUNG_SEVERITY[RUNG_DIRECT]
        assert relative_residual(A, b, x) <= 1e-8

    @given(n=dims, seed=seeds)
    @settings(max_examples=40)
    def test_inconsistent_rank_deficiency_raises(self, n, seed):
        A, b = rank_deficient(n, seed, consistent=False)
        with pytest.raises(UnsolvableError) as exc_info:
            resilient_solve(A, b)
        diag = exc_info.value.diagnostics
        assert diag is not None and diag.rung == RUNG_UNSOLVABLE

    @given(n=dims, seed=seeds, zero_rows=st.integers(min_value=1,
                                                     max_value=3))
    @settings(max_examples=40)
    def test_never_silently_non_finite(self, n, seed, zero_rows):
        """Whatever the pathology, the ladder either returns an
        all-finite solution or raises — the silent-NaN failure mode the
        pre-resilience engine had is structurally gone."""
        A, b = well_conditioned(n, seed)
        A[: min(zero_rows, n)] = 0.0
        try:
            x, diag = resilient_solve(A, b)
        except UnsolvableError as exc:
            assert exc.diagnostics.rung == RUNG_UNSOLVABLE
        else:
            assert np.all(np.isfinite(x))
            assert math.isfinite(diag.residual)

    def test_empty_system_short_circuits(self):
        x, diag = resilient_solve(np.zeros((0, 0)), np.zeros(0))
        assert x.shape == (0,) and diag.verified


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
class TestPolicy:
    def test_context_manager_restores(self):
        base = get_policy()
        with numerics_policy(strict=True, residual_good=1e-4) as p:
            assert p.strict and p.residual_good == 1e-4
            assert get_policy() is p
            with numerics_policy(residual_good=1e-2):
                assert get_policy().strict  # outer override survives
                assert get_policy().residual_good == 1e-2
            assert get_policy() is p
        assert get_policy() == base

    def test_threshold_is_recorded_on_diagnostics(self):
        A, b = well_conditioned(4, 0)
        with numerics_policy(residual_good=1e-6):
            _, diag = resilient_solve(A, b)
        assert diag.threshold == 1e-6

    def test_degraded_solve_is_accepted_by_default(self):
        """An impossible 'good' threshold forces the ladder to climb and
        then accept its best effort, flagged degraded."""
        A, b = well_conditioned(6, 1)
        with numerics_policy(residual_good=0.0):
            x, diag = resilient_solve(A, b)
        assert diag.degraded
        assert np.all(np.isfinite(x))
        assert relative_residual(A, b, x) < 1e-12  # still a fine answer

    def test_strict_escalates_degraded_to_unsolvable(self):
        A, b = well_conditioned(6, 1)
        with numerics_policy(residual_good=0.0, strict=True):
            with pytest.raises(UnsolvableError) as exc_info:
                resilient_solve(A, b)
        assert exc_info.value.diagnostics.rung == RUNG_UNSOLVABLE


# ----------------------------------------------------------------------
# diagnostics aggregation
# ----------------------------------------------------------------------
class TestDiagnosticsMerge:
    def test_worst_of_none_is_self(self):
        d = SolveDiagnostics(residual=1e-10)
        assert d.worst(None) is d

    def test_worst_is_pointwise_pessimum(self):
        a = SolveDiagnostics(residual=1e-12, condition=1e3,
                             rung=RUNG_DIRECT, refinements=0,
                             threshold=1e-8)
        b = SolveDiagnostics(residual=1e-5, condition=math.nan,
                             rung=RUNG_LSTSQ, refinements=2,
                             threshold=1e-6)
        w = a.worst(b)
        assert w.residual == 1e-5
        assert w.condition == 1e3  # nan never wins over a measurement
        assert w.rung == RUNG_LSTSQ
        assert w.refinements == 2
        assert w.threshold == 1e-8  # strictest threshold governs
        assert w.degraded

    @settings(max_examples=300, deadline=None)
    @given(pair=st.lists(st.tuples(
        st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-9])),
        st.one_of(st.floats(), st.just(math.nan)),
        st.sampled_from(sorted(RUNG_SEVERITY) + ["unknown"]),
        st.booleans(),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.floats(), st.sampled_from([1e-8, 1e-6]))),
        min_size=2, max_size=2))
    def test_absorb_is_worst_in_place(self, pair):
        """The Newton loops' running record takes every field, ties and
        NaNs included, exactly as ``worst`` would."""
        older, newer = (SolveDiagnostics(*fields) for fields in pair)
        want = newer.worst(older)
        older.absorb(newer)
        assert repr(vars(older)) == repr(vars(want))

    def test_summary_names_rung_and_state(self):
        good = SolveDiagnostics(residual=1e-12)
        bad = SolveDiagnostics(residual=1e-4, rung=RUNG_LSTSQ)
        assert "verified" in good.summary()
        assert "DEGRADED" in bad.summary() and "lstsq" in bad.summary()

    def test_to_dict_round_trips_the_verdict(self):
        d = SolveDiagnostics(residual=1e-4, rung=RUNG_LSTSQ)
        data = d.to_dict()
        assert data["rung"] == RUNG_LSTSQ and data["verified"] is False


# ----------------------------------------------------------------------
# engine threading: legacy vs compiled, and the analyses
# ----------------------------------------------------------------------
def divider_circuit():
    c = Circuit("divider")
    c.add(VoltageSource("VS", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "out", 1e3))
    c.add(Resistor("R2", "out", "0", 1e3))
    return c


class TestEngineEquivalence:
    def test_legacy_and_compiled_report_equivalent_diagnostics(self):
        """Same MNA system through the stamp loop and the compiled fast
        path: same answer, same solve-quality verdict."""
        circuit = divider_circuit()
        node_index, _, n_total = build_index(circuit)
        compiled = get_compiled(circuit, "dc", node_index=node_index,
                                n_total=n_total)
        x = np.zeros(n_total)
        A_legacy, b_legacy = assemble(circuit, node_index, n_total, x, "dc")
        A, b = compiled.assemble(x)

        x_legacy, d_legacy = resilient_solve(A_legacy, b_legacy,
                                             want_condition=True)
        x_fast, d_fast = resilient_solve(A, b, want_condition=True)

        assert np.allclose(x_legacy, x_fast, rtol=1e-12, atol=1e-15)
        assert d_legacy.rung == d_fast.rung == RUNG_DIRECT
        assert d_legacy.verified and d_fast.verified
        assert d_legacy.residual <= 1e-8 and d_fast.residual <= 1e-8
        # both estimates come from gecon on an LU of the same matrix
        assert math.isclose(d_legacy.condition, d_fast.condition,
                            rel_tol=1e-6)

    def test_dc_attaches_verified_diagnostics(self):
        op = dc_operating_point(divider_circuit())
        assert op.strategy == "newton"
        assert op.diagnostics is not None and op.diagnostics.verified

    def test_transient_attaches_verified_diagnostics(self):
        c = divider_circuit()
        c.elements[0].waveform = step_waveform(0.0, 1.0, 1e-9)
        tr = transient(c, 5e-9, 1e-10, probes=["out"])
        assert tr.diagnostics is not None and tr.diagnostics.verified

    def test_ac_attaches_verified_diagnostics(self):
        res = ac_analysis(divider_circuit(), "VS", [1e3, 1e6, 1e9])
        assert res.diagnostics is not None and res.diagnostics.verified

    def test_conflicting_sources_raise_unsolvable_dc(self):
        c = Circuit("conflict")
        c.add(VoltageSource("V1", "a", "0", 1.0))
        c.add(VoltageSource("V2", "a", "0", 2.0))
        c.add(Resistor("R1", "a", "0", 1e3))
        with pytest.raises(UnsolvableError) as exc_info:
            dc_operating_point(c)
        diag = exc_info.value.diagnostics
        assert diag is not None and diag.rung == RUNG_UNSOLVABLE

    def test_degenerate_but_consistent_circuit_is_rescued(self):
        """Two identical sources in parallel: the MNA matrix is exactly
        rank-deficient yet the physics is well-posed — the ladder's SVD
        rescue recovers the obvious answer and reports its rung."""
        c = Circuit("degenerate")
        c.add(VoltageSource("V1", "b", "0", 1.0))
        c.add(VoltageSource("V2", "b", "0", 1.0))
        c.add(Resistor("R1", "b", "0", 1e3))
        op = dc_operating_point(c)
        assert op.v("b") == pytest.approx(1.0, rel=1e-9)
        assert RUNG_SEVERITY[op.diagnostics.rung] > 0

    def test_strict_numerics_escalates_degraded_dc(self):
        """A mildly inconsistent pair of sources lands in the degraded
        band (best residual between good and unsolvable): trusted by
        default, first-class unsolvable under --strict-numerics."""
        c = Circuit("mild-conflict")
        c.add(VoltageSource("V1", "b", "0", 1.0))
        c.add(VoltageSource("V2", "b", "0", 1.0 + 4e-4))
        c.add(Resistor("R1", "b", "0", 1e3))
        op = dc_operating_point(c)
        assert op.diagnostics.degraded
        with numerics_policy(strict=True):
            with pytest.raises(UnsolvableError):
                dc_operating_point(c)
