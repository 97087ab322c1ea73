"""Precompiled fast-path MNA assembly and cached LU solves.

The legacy :func:`repro.analog.solver.assemble` walks every element and
calls its Python ``stamp`` method for every Newton iteration of every
time step.  This module splits that work once per (circuit, analysis)
pair:

* the **static part** — resistors, VCVS gain networks, source incidence
  rows, capacitor companion conductances (fixed once ``dt`` and the
  integration method are fixed), and the gmin diagonal — is stamped a
  single time into a template matrix that each assembly starts from a
  plain ``ndarray.copy()`` of;
* the **dynamic part** — MOSFET and switch linearisations, capacitor
  history currents, and (possibly waveform-driven) source values — is
  evaluated with vectorised NumPy expressions and scattered into the
  matrix through precompiled flat COO index arrays via ``np.add.at``.

Linear solves go through :class:`LinearSolverCache`, which keeps the
last LAPACK ``getrf`` factorization and replays ``getrs`` whenever the
matrix is unchanged (always true for linear circuits; common in
converged Newton tails and across the time steps of linear DUTs).

Cache invalidation contract: a :class:`~repro.analog.netlist.Circuit`
stores compiled plans keyed by its ``_revision`` counter, which
``add``/``remove`` bump.  Mutating *source values* (``voltage``,
``current``, ``waveform``) between solves is always safe — they are read
at assembly time.  Mutating structural parameters (resistance, W/L,
``MOSParams``, switch thresholds) or rewiring terminals in place must go
through ``Circuit.touch()`` to drop stale plans; the in-repo flows
(fault injection, corners, Monte-Carlo) all mutate fresh clones, whose
caches start empty.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import expit

from .._profiling import COUNTERS
from .devices import (
    Capacitor,
    CurrentSource,
    Resistor,
    StampContext,
    Switch,
    VoltageControlledVoltageSource,
    VoltageSource,
    is_ground,
)
from .mosfet import MOSFET, PHI_T
from .resilience import condition_estimate_1norm, resilient_solve
from .solver import DEFAULT_GMIN, SolverError, factor, solve_factored

#: element classes whose stamps never depend on x, t, or xprev
_STATIC_TYPES = (Resistor, VoltageControlledVoltageSource)


class LinearSolverCache:
    """LU factorization cache for repeated solves of slowly-changing A.

    Mirrors ``np.linalg.solve`` semantics: an exactly-singular matrix
    raises :class:`SolverError`; near-singular systems return whatever
    LAPACK produces (faulted circuits rely on observing the resulting
    non-convergence rather than an exception).

    One slot holds the most recent factorization; it is hit when
    consecutive solves see a bitwise-equal matrix (linear circuits,
    converged Newton tails).  A hit replays ``getrs`` on the stored
    factorization, so solutions are bit-identical to what a fresh
    factorization would produce.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = None     # (A, (lu, piv)) of the newest factorization

    def invalidate(self) -> None:
        self._last = None

    # ------------------------------------------------------------------
    def solve(self, A: np.ndarray, b: np.ndarray, *, reuse: bool = True,
              assume_same: bool = False) -> np.ndarray:
        """Solve ``A @ x = b``, reusing a cached factorization when *A*
        is unchanged.

        The caller must not mutate *A* after passing it in (the fast path
        hands over a fresh array each assembly, so this holds by
        construction).  ``assume_same`` skips the equality check for
        circuits whose matrix is provably constant.
        """
        if A.shape[0] == 0:
            return np.zeros(0, dtype=A.dtype)
        if reuse:
            if assume_same and self._last is not None:
                lu_piv = self._last[1]
            else:
                lu_piv = self.last_factorization(A)
            if lu_piv is not None:
                COUNTERS.lu_reuse += 1
                return solve_factored(lu_piv, b)
        try:
            lu_piv = factor(A)
        except SolverError:
            self.invalidate()
            raise
        self._last = (A, lu_piv)
        COUNTERS.lu_factor += 1
        return solve_factored(lu_piv, b)

    def last_factorization(self, A: np.ndarray):
        """``(lu, piv)`` when the cached factorization is of *A*, else
        ``None`` (lets the resilience ladder refine and estimate the
        condition number without re-factoring)."""
        last = self._last
        if last is not None and (
                last[0] is A or (last[0].shape == A.shape
                                 and (last[0] == A).all())):
            return last[1]
        return None


def _vccs_entries(op: int, on: int, cp: int, cn: int, src: int):
    """COO entries for a VCCS gm*V(cp,cn) flowing op -> on (-1 = ground)."""
    for row, row_sign in ((op, 1.0), (on, -1.0)):
        if row < 0:
            continue
        if cp >= 0:
            yield row, cp, row_sign, src
        if cn >= 0:
            yield row, cn, -row_sign, src
    return


def _conductance_entries(p: int, n: int, src: int):
    """COO entries for a two-terminal conductance between p and n."""
    if p >= 0:
        yield p, p, 1.0, src
    if n >= 0:
        yield n, n, 1.0, src
    if p >= 0 and n >= 0:
        yield p, n, -1.0, src
        yield n, p, -1.0, src
    return


def _pack_matrix_entries(entries, n_total: int):
    """Turn (row, col, sign, src) tuples into flat scatter arrays."""
    if not entries:
        return None
    rows = np.array([e[0] for e in entries], dtype=np.intp)
    cols = np.array([e[1] for e in entries], dtype=np.intp)
    sign = np.array([e[2] for e in entries])
    src = np.array([e[3] for e in entries], dtype=np.intp)
    return rows * n_total + cols, sign, src


class CompiledAssembly:
    """Precompiled MNA assembly plan for one circuit and analysis mode.

    Supports ``mode='dc'`` and ``mode='tran'``; AC sweeps are decomposed
    directly in :mod:`repro.analog.ac` (the matrix is affine in omega).
    """

    def __init__(self, circuit, node_index: Dict[str, int], n_total: int,
                 mode: str, *, dt: float = 0.0, method: str = "be",
                 gmin: float = DEFAULT_GMIN):
        if mode not in ("dc", "tran"):
            raise ValueError(f"unsupported compiled mode {mode!r}")
        self.circuit = circuit
        self.node_index = dict(node_index)
        self.n_nodes = len(node_index)
        self.n_total = n_total
        self.mode = mode
        self.dt = dt
        self.method = method
        self.gmin = gmin
        self.lu_cache = LinearSolverCache()
        self.param_revision = getattr(circuit, "_param_revision", 0)
        self._compile()
        COUNTERS.compile_count += 1

    # ------------------------------------------------------------------
    def _idx(self, node: str) -> int:
        return -1 if is_ground(node) else self.node_index[node]

    def _compile(self) -> None:
        n_total = self.n_total
        A_static = np.zeros((n_total, n_total))
        b_scratch = np.zeros(n_total)
        zeros = np.zeros(n_total)
        ctx = StampContext(A_static, b_scratch, zeros, self.node_index,
                           self.mode, dt=self.dt, xprev=zeros,
                           method=self.method)

        mosfets: List[MOSFET] = []
        switches: List[Switch] = []
        caps: List[Capacitor] = []
        vsources: List[Tuple[VoltageSource, int]] = []
        isources: List[Tuple[CurrentSource, int, int]] = []
        fallback = []
        for elem in self.circuit:
            if isinstance(elem, MOSFET):
                mosfets.append(elem)
            elif isinstance(elem, Switch):
                switches.append(elem)
            elif isinstance(elem, Capacitor):
                caps.append(elem)
                elem.stamp(ctx)  # leak (dc) / companion geq (tran)
            elif isinstance(elem, VoltageSource):
                vsources.append((elem, elem.aux_base))
                elem.stamp(ctx)  # incidence rows; scratch b discarded
            elif isinstance(elem, CurrentSource):
                isources.append((elem, self._idx(elem.terminals["p"]),
                                 self._idx(elem.terminals["n"])))
            elif isinstance(elem, _STATIC_TYPES):
                elem.stamp(ctx)
            else:
                fallback.append(elem)

        diag = np.arange(self.n_nodes)
        A_static[diag, diag] += self.gmin

        self._A_static = A_static
        self._vsources = vsources
        self._isources = isources
        self._fallback = fallback
        self._xpad = np.zeros(n_total + 1)
        self._xprev_pad = np.zeros(n_total + 1)

        self._compile_mosfets(mosfets)
        self._compile_switches(switches)
        self._compile_caps(caps if self.mode == "tran" else [])
        self.is_linear = not (mosfets or switches or fallback)

    def _compile_mosfets(self, mosfets: List[MOSFET]) -> None:
        self._mosfets = mosfets
        m = len(mosfets)
        if not m:
            return
        self._read_mosfet_params()

        term = {k: np.array([self._idx(e.terminals[k]) for e in mosfets],
                            dtype=np.intp)
                for k in ("d", "g", "s", "b")}
        # (s, d, g) rows: one gather, and rows 0-1 pair up as (vsb, vdb)
        self._mos_sdg = np.stack([term["s"], term["d"], term["g"]])
        self._mos_b = term["b"]

        entries = []
        b_entries = []
        for j in range(m):
            d, g = int(term["d"][j]), int(term["g"][j])
            s, b = int(term["s"][j]), int(term["b"][j])
            entries.extend(_vccs_entries(d, s, g, b, j))          # gm
            entries.extend(_vccs_entries(d, s, d, b, m + j))      # gds
            entries.extend(_vccs_entries(d, s, s, b, 2 * m + j))  # gms
            if d >= 0:
                b_entries.append((d, 0, -1.0, j))
            if s >= 0:
                b_entries.append((s, 0, 1.0, j))
        self._mos_A = _pack_matrix_entries(entries, self.n_total)
        self._mos_brow = np.array([e[0] for e in b_entries], dtype=np.intp)
        self._mos_bsign = np.array([e[2] for e in b_entries])
        self._mos_bsrc = np.array([e[3] for e in b_entries], dtype=np.intp)
        self._mos_vals = np.empty(3 * m)

    def _read_mosfet_params(self) -> None:
        """(Re-)read every MOSFET's EKV coefficients, plus the derived
        ``1/n``, ``-beta`` and ``-lambda`` the stamp uses."""
        params = np.array([e.ekv_params() for e in self._mosfets],
                          dtype=float).T.copy()
        (self._mos_sign, self._mos_vt0, self._mos_n, self._mos_beta,
         self._mos_lam) = params
        self._mos_inv_n = 1.0 / self._mos_n
        self._mos_neg_beta = -self._mos_beta
        self._mos_neg_lam = -self._mos_lam

    def _compile_switches(self, switches: List[Switch]) -> None:
        self._switches = switches
        k = len(switches)
        if not k:
            return
        self._sw_ctrl = np.array([self._idx(e.terminals["ctrl"])
                                  for e in switches], dtype=np.intp)
        self._sw_thr = np.array([e.threshold for e in switches])
        self._sw_gon = np.array([1.0 / e.r_on for e in switches])
        self._sw_goff = np.array([1.0 / e.r_off for e in switches])
        entries = []
        for j, e in enumerate(switches):
            entries.extend(_conductance_entries(
                self._idx(e.terminals["p"]), self._idx(e.terminals["n"]), j))
        self._sw_A = _pack_matrix_entries(entries, self.n_total)

    def _compile_caps(self, caps: List[Capacitor]) -> None:
        self._caps = caps
        if not caps:
            return
        factor = 2.0 if self.method == "trap" else 1.0
        self._cap_p = np.array([self._idx(c.terminals["p"]) for c in caps],
                               dtype=np.intp)
        self._cap_n = np.array([self._idx(c.terminals["n"]) for c in caps],
                               dtype=np.intp)
        self._cap_geq = np.array([factor * c.capacitance / self.dt
                                  for c in caps])
        rows, sign, src = [], [], []
        for j, c in enumerate(caps):
            # add_current(p, n, -ieq): b[p] += ieq, b[n] -= ieq
            p, n = int(self._cap_p[j]), int(self._cap_n[j])
            if p >= 0:
                rows.append(p)
                sign.append(1.0)
                src.append(j)
            if n >= 0:
                rows.append(n)
                sign.append(-1.0)
                src.append(j)
        self._cap_brow = np.array(rows, dtype=np.intp)
        self._cap_bsign = np.array(sign)
        self._cap_bsrc = np.array(src, dtype=np.intp)

    # ------------------------------------------------------------------
    def refresh_parameters(self) -> None:
        """Re-read tunable device parameters into the compiled arrays.

        The scatter structure (node index, COO plans, static stamps) is
        untouched — only the per-device value vectors are re-read:
        MOSFET EKV coefficients, switch thresholds and on/off
        conductances, and capacitor companion conductances.  Callers
        signal the edit through :meth:`repro.analog.netlist.Circuit.retune`;
        :func:`get_compiled` then refreshes the cached plan instead of
        recompiling it.  The LU cache is dropped — the matrix values
        change even though its sparsity pattern does not.
        """
        if self._mosfets:
            self._read_mosfet_params()
        for j, e in enumerate(self._switches):
            self._sw_thr[j] = e.threshold
            self._sw_gon[j] = 1.0 / e.r_on
            self._sw_goff[j] = 1.0 / e.r_off
        if self.mode == "tran" and self._caps:
            factor = 2.0 if self.method == "trap" else 1.0
            for j, c in enumerate(self._caps):
                self._cap_geq[j] = factor * c.capacitance / self.dt
        self.lu_cache.invalidate()

    # ------------------------------------------------------------------
    def assemble(self, x: np.ndarray, *, time: float = 0.0,
                 xprev: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``A @ x_new = b`` linearised at *x* (cf. legacy
        :func:`repro.analog.solver.assemble`)."""
        COUNTERS.assemblies += 1
        n_total = self.n_total
        A = self._A_static.copy()
        b = np.zeros(n_total)
        xpad = self._xpad
        xpad[:n_total] = x  # xpad[-1] stays 0.0 so index -1 reads ground

        if self._mosfets:
            self._stamp_mosfets(A, b, xpad)
        if self._switches:
            flat, sign, src = self._sw_A
            v_ctrl = xpad[self._sw_ctrl]
            arg = np.clip((v_ctrl - self._sw_thr) / 0.025, -60.0, 60.0)
            g = self._sw_goff + (self._sw_gon - self._sw_goff) * expit(arg)
            np.add.at(A.reshape(-1), flat, sign * g[src])
        if self.mode == "tran" and self._caps:
            xpp = self._xprev_pad
            xpp[:n_total] = xprev
            v_prev = xpp[self._cap_p] - xpp[self._cap_n]
            ieq = self._cap_geq * v_prev
            if self.method == "trap":
                caps = self._caps
                ieq = ieq + np.fromiter(
                    (c.history_current for c in caps), float, len(caps))
                for c, g_used, i_used in zip(caps, self._cap_geq, ieq):
                    c.record_companion(g_used, i_used)
            np.add.at(b, self._cap_brow, self._cap_bsign * ieq[self._cap_bsrc])

        for elem, k in self._vsources:
            b[k] += elem.value_at(time)
        for elem, p, n in self._isources:
            i = elem.value_at(time)
            if p >= 0:
                b[p] -= i
            if n >= 0:
                b[n] += i

        if self._fallback:
            ctx = StampContext(A, b, x, self.node_index, self.mode,
                               dt=self.dt, xprev=xprev, method=self.method,
                               time=time)
            for elem in self._fallback:
                elem.stamp(ctx)
                COUNTERS.fallback_elements += 1
        return A, b

    def _stamp_mosfets(self, A: np.ndarray, b: np.ndarray,
                       xpad: np.ndarray) -> None:
        v = xpad[self._mos_sdg] - xpad[self._mos_b]   # (vs, vd, vg) - vb
        sign = self._mos_sign
        sv = sign * v                                 # vsb, vdb, vgb
        beta = self._mos_beta
        lam = self._mos_lam

        vp = (sv[2] - self._mos_vt0) / self._mos_n
        a = (vp - sv[:2]) / (2.0 * PHI_T)             # af, ar
        ln = np.logaddexp(0.0, a)                     # lf, lr
        dl = 2.0 * ln * expit(a) / (2.0 * PHI_T)      # dlf, dlr
        sq = ln * ln

        vds = sv[1] - sv[0]
        clm = 1.0 + lam * np.abs(vds)
        i_core = beta * (sq[0] - sq[1])
        i_d = i_core * clm
        dclm = np.where(vds >= 0.0, lam, self._mos_neg_lam)
        i_dclm = i_core * dclm

        gm = beta * (dl[0] - dl[1]) * self._mos_inv_n * clm
        gds = beta * dl[1] * clm + i_dclm
        gms = self._mos_neg_beta * dl[0] * clm - i_dclm
        gds = np.where(np.abs(gds) > 1e-12, gds, 1e-12)

        m = len(self._mosfets)
        vals = self._mos_vals
        vals[:m] = gm
        vals[m:2 * m] = gds
        vals[2 * m:] = gms
        flat, asign, asrc = self._mos_A
        np.add.at(A.reshape(-1), flat, asign * vals[asrc])

        i_lin = gm * v[2] + gds * v[1] + gms * v[0]
        i_res = sign * i_d - i_lin
        np.add.at(b, self._mos_brow, self._mos_bsign * i_res[self._mos_bsrc])

    # ------------------------------------------------------------------
    def solve(self, A: np.ndarray, b: np.ndarray, *,
              reuse: bool = True) -> np.ndarray:
        """Solve through the cached-LU layer (see :class:`LinearSolverCache`)."""
        return self.lu_cache.solve(A, b, reuse=reuse,
                                   assume_same=self.is_linear)

    def solve_diag(self, A: np.ndarray, b: np.ndarray, *,
                   reuse: bool = True, want_condition: bool = False):
        """Like :meth:`solve` but returns ``(x, SolveDiagnostics)``.

        Rung 0 of the ladder is exactly :meth:`solve` (cached LU, same
        ``assume_same`` shortcut), so healthy solves keep their bit
        pattern; refinement replays the cached factorization.
        """
        def direct(A_, b_):
            return self.lu_cache.solve(A_, b_, reuse=reuse,
                                       assume_same=self.is_linear)

        def refine(r):
            lu_piv = self.lu_cache.last_factorization(A)
            if lu_piv is None:
                raise SolverError("no factorization available to refine")
            return solve_factored(lu_piv, r)

        return resilient_solve(A, b, direct=direct, refine=refine,
                               want_condition=want_condition)

    def condition_estimate(self, A: np.ndarray) -> float:
        """1-norm condition estimate of *A*, reusing the cached LU."""
        return condition_estimate_1norm(
            A, self.lu_cache.last_factorization(A))


#: compiled-plan cache bound for a single circuit (gmin stepping can
#: legitimately want several plans; anything beyond this is churn)
_MAX_PLANS_PER_CIRCUIT = 16


def get_compiled(circuit, mode: str, *, node_index: Dict[str, int],
                 n_total: int, dt: float = 0.0, method: str = "be",
                 gmin: float = DEFAULT_GMIN) -> CompiledAssembly:
    """Fetch (or build) the compiled plan for *circuit* in *mode*.

    Plans are cached on the circuit keyed by every compile-relevant knob
    plus the circuit's structural revision, so ``add``/``remove`` (and
    ``Circuit.touch()``) naturally invalidate them.
    """
    cache = getattr(circuit, "plan_cache", None)
    if cache is None:
        # duck-typed stand-ins without the cache: plans are rebuilt
        # per call (real Circuits always own a plan_cache)
        cache = {}
    key = (mode, dt, method, gmin, getattr(circuit, "revision", 0))
    hit = cache.get(key)
    if hit is not None and hit.n_total == n_total:
        COUNTERS.compiled_cache_hits += 1
        rev = getattr(circuit, "param_revision", 0)
        if hit.param_revision != rev:
            hit.refresh_parameters()
            hit.param_revision = rev
            COUNTERS.plan_retunes += 1
        return hit
    if len(cache) >= _MAX_PLANS_PER_CIRCUIT:
        cache.clear()
    compiled = CompiledAssembly(circuit, node_index, n_total, mode,
                                dt=dt, method=method, gmin=gmin)
    cache[key] = compiled
    return compiled
