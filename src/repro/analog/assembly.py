"""Precompiled fast-path MNA assembly and the Newton iterations' LU solves.

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
  matrix through precompiled flat COO index arrays via ``np.add.at``;
  the right-hand side is one ``np.bincount`` over one precompiled row
  list, whose per-solve terms (:meth:`CompiledAssembly.solve_invariants`)
  are written once per Newton solve.

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

try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from ..core.profiling import COUNTERS
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
from .resilience import resilient_solve
from .solver import DEFAULT_GMIN

#: element classes whose stamps never depend on x, t, or xprev
_STATIC_TYPES = (Resistor, VoltageControlledVoltageSource)

#: the EKV normalisation ``2 phi_t`` of (pinch-off - terminal) voltages
_TWO_PHI_T = 2.0 * PHI_T


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
        self._vsources = [elem for elem, _ in vsources]
        # one aux row per source, so a fancy-index add is exact
        self._vs_rows = np.array([k for _, k in vsources], dtype=np.intp)
        self._isources = isources
        self._fallback = fallback
        self._xpad = np.zeros(n_total + 1)
        self._xprev_pad = np.zeros(n_total + 1)

        self._compile_mosfets(mosfets)
        self._compile_switches(switches)
        self._compile_caps(caps if self.mode == "tran" else [])
        self._compile_rhs()

    def _compile_mosfets(self, mosfets: List[MOSFET]) -> None:
        self._mosfets = mosfets
        self._mos_A = None
        self._mos_brow = np.zeros(0, dtype=np.intp)
        m = len(mosfets)
        if not m:
            return
        self._read_mosfet_params()

        term = {k: np.array([self._idx(e.terminals[k]) for e in mosfets],
                            dtype=np.intp)
                for k in ("d", "g", "s", "b")}
        # (s, d, g, b) rows: one gather; rows 0-1 pair up as (vsb, vdb)
        # and rows 2, 1, 0 are the controls of the (gm, gds, gms) rows
        self._mos_sdgb = np.stack([term["s"], term["d"], term["g"],
                                   term["b"]])

        # each device's (gm, gds, gms) VCCS stamps d -> s, controlled by
        # (g, d, s) against b: per device, 12 candidate entries in
        # stamp order, the grounded ones masked out (row-major boolean
        # indexing keeps device-major order, as np.add.at replays it)
        d, g, s, b = (term[k] for k in ("d", "g", "s", "b"))
        j = np.arange(m)
        rows = np.stack([d, d, s, s] * 3, axis=1)
        cols = np.stack([g, b, g, b, d, b, d, b, s, b, s, b], axis=1)
        src = np.repeat(np.stack([j, m + j, 2 * m + j], axis=1), 4, axis=1)
        sign = np.broadcast_to(np.tile([1.0, -1.0, -1.0, 1.0], 3), rows.shape)
        keep = (rows >= 0) & (cols >= 0)
        self._mos_A = ((rows * self.n_total + cols)[keep], sign[keep],
                       src[keep]) if keep.any() else None
        # residual currents: -i on the drain row, +i on the source row
        rows = np.stack([d, s], axis=1)
        keep = rows >= 0
        self._mos_brow = rows[keep]
        self._mos_bsign = np.broadcast_to([-1.0, 1.0], rows.shape)[keep]
        self._mos_bsrc = np.stack([j, j], axis=1)[keep]
        self._mos_g = np.empty((3, m))   # the (gm, gds, gms) block

    def _read_mosfet_params(self) -> None:
        """(Re-)read every MOSFET's EKV coefficients, plus the derived
        ``1/n``, ``-lambda`` and the ``(beta, beta, -beta)`` row scales
        of the (gm, gds, gms) block the stamp uses."""
        params = np.array([e.ekv_params() for e in self._mosfets],
                          dtype=float).T.copy()
        (self._mos_sign, self._mos_vt0, self._mos_n, self._mos_beta,
         self._mos_lam) = params
        self._mos_inv_n = 1.0 / self._mos_n
        self._mos_neg_lam = -self._mos_lam
        beta = self._mos_beta
        self._mos_beta3 = np.stack([beta, beta, -beta])

    def _compile_switches(self, switches: List[Switch]) -> None:
        self._switches = switches
        self._sw_A = None
        k = len(switches)
        if not k:
            return
        self._sw_ctrl = np.array([self._idx(e.terminals["ctrl"])
                                  for e in switches], dtype=np.intp)
        self._sw_thr = np.empty(k)
        self._sw_goff = np.empty(k)
        self._sw_gdiff = np.empty(k)
        self._read_switch_params()
        entries = []
        for j, e in enumerate(switches):
            entries.extend(_conductance_entries(
                self._idx(e.terminals["p"]), self._idx(e.terminals["n"]), j))
        self._sw_A = _pack_matrix_entries(entries, self.n_total)

    def _read_switch_params(self) -> None:
        """(Re-)read every switch's threshold, ``g_off`` and
        ``g_on - g_off``."""
        for j, e in enumerate(self._switches):
            g_on, g_off = 1.0 / e.r_on, 1.0 / e.r_off
            self._sw_thr[j] = e.threshold
            self._sw_goff[j] = g_off
            self._sw_gdiff[j] = g_on - g_off

    def _compile_caps(self, caps: List[Capacitor]) -> None:
        self._caps = caps
        self._cap_brow = np.zeros(0, dtype=np.intp)
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

    def _compile_rhs(self) -> None:
        """One row list for ``b``, in the order ``b`` accumulates its
        terms: the MOSFET residual rows, the capacitor companion rows,
        the voltage-source aux rows, then per current source ``-i`` on
        ``p`` and ``+i`` on ``n``.  ``np.bincount`` adds each row's
        weights in array order starting from +0.0, so one call makes
        the ``b`` those accumulations made one after another (and a
        subtraction is the addition of the negated term)."""
        rows, sign, src = [], [], []
        for j, (_, p, n) in enumerate(self._isources):
            if p >= 0:
                rows.append(p)
                sign.append(-1.0)
                src.append(j)
            if n >= 0:
                rows.append(n)
                sign.append(1.0)
                src.append(j)
        self._is_bsign = np.array(sign)
        self._is_bsrc = np.array(src, dtype=np.intp)
        self._n_mos_b = len(self._mos_brow)
        rows = np.concatenate([self._mos_brow, self._cap_brow,
                               self._vs_rows,
                               np.array(rows, dtype=np.intp)])
        # bincount of no rows at all returns integers: plain zeros then
        self._b_rows = rows if len(rows) else None

    # ------------------------------------------------------------------
    def refresh_parameters(self) -> None:
        """Re-read tunable device parameters into the compiled arrays.

        The scatter structure (node index, COO plans, static stamps) is
        untouched — only the per-device value vectors are re-read:
        MOSFET EKV coefficients, switch thresholds and on/off
        conductances, and capacitor companion conductances.  Callers
        signal the edit through :meth:`repro.analog.netlist.Circuit.retune`;
        :func:`get_compiled` then refreshes the cached plan instead of
        recompiling it.
        """
        if self._mosfets:
            self._read_mosfet_params()
        if self._switches:
            self._read_switch_params()
        if self.mode == "tran" and self._caps:
            factor = 2.0 if self.method == "trap" else 1.0
            for j, c in enumerate(self._caps):
                self._cap_geq[j] = factor * c.capacitance / self.dt

    # ------------------------------------------------------------------
    def solve_invariants(self, time: float = 0.0,
                         xprev: Optional[np.ndarray] = None) -> np.ndarray:
        """The right-hand-side weights a whole Newton solve keeps fixed.

        A weight vector over the row list of ``b``, its tail written
        here: in transient mode the capacitors' signed companion
        currents from the accepted step *xprev* (trapezoidal: plus each
        branch's history, recorded on the capacitor here), the
        voltage-source values at *time* and the signed current-source
        values at *time*.  Each :meth:`assemble` of the solve writes the
        MOSFET residual currents into its head.
        """
        weights = np.empty(0 if self._b_rows is None else len(self._b_rows))
        k = self._n_mos_b
        if self.mode == "tran" and self._caps:
            xpp = self._xprev_pad
            xpp[:self.n_total] = xprev
            v_prev = xpp[self._cap_p] - xpp[self._cap_n]
            ieq = self._cap_geq * v_prev
            if self.method == "trap":
                caps = self._caps
                ieq = ieq + np.fromiter(
                    (c.history_current for c in caps), float, len(caps))
                for c, g_used, i_used in zip(caps, self._cap_geq, ieq):
                    c.record_companion(g_used, i_used)
            end = k + len(self._cap_brow)
            np.multiply(self._cap_bsign, ieq[self._cap_bsrc],
                        out=weights[k:end])
            k = end
        if self._vsources:
            end = k + len(self._vsources)
            weights[k:end] = [e.value_at(time) for e in self._vsources]
            k = end
        if len(self._is_bsrc):
            values = np.array([e.value_at(time) for e, _, _
                               in self._isources], dtype=float)
            np.multiply(self._is_bsign, values[self._is_bsrc],
                        out=weights[k:])
        return weights

    def assemble(self, x: np.ndarray, *, time: float = 0.0,
                 xprev: Optional[np.ndarray] = None, invariants=None
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``A @ x_new = b`` linearised at *x* (cf. legacy
        :func:`repro.analog.solver.assemble`).

        *invariants* is :meth:`solve_invariants` of the same *time* and
        *xprev*, when the caller holds it; computed here otherwise.
        """
        COUNTERS.assemblies += 1
        weights = (self.solve_invariants(time, xprev) if invariants is None
                   else invariants)
        n_total = self.n_total
        A = self._A_static.copy()
        xpad = self._xpad
        xpad[:n_total] = x  # xpad[-1] stays 0.0 so index -1 reads ground

        if self._mosfets:
            self._stamp_mosfets(A, xpad, weights[:self._n_mos_b])
        if self._switches:
            flat, sign, src = self._sw_A
            arg = xpad[self._sw_ctrl] - self._sw_thr
            arg /= 0.025
            g = expit(_clip(arg, -60.0, 60.0, out=arg), out=arg)
            g *= self._sw_gdiff
            g += self._sw_goff
            np.add.at(A.reshape(-1), flat, sign * g[src])
        rows = self._b_rows
        b = (np.bincount(rows, weights=weights, minlength=n_total)
             if rows is not None else np.zeros(n_total))

        if self._fallback:
            ctx = StampContext(A, b, x, self.node_index, self.mode,
                               dt=self.dt, xprev=xprev, method=self.method,
                               time=time)
            for elem in self._fallback:
                elem.stamp(ctx)
                COUNTERS.fallback_elements += 1
        return A, b

    def _stamp_mosfets(self, A: np.ndarray, xpad: np.ndarray,
                       out: np.ndarray) -> None:
        """Stamp every MOSFET's EKV linearisation into *A* and write
        their signed residual currents, one per row entry of ``b``'s
        MOSFET head, into *out*.

        Each expression is the per-terminal EKV stamp's up to exact
        IEEE identities only (``a*b = b*a``, ``a+b = b+a``, in-place vs
        fresh outputs), so ``A`` and ``b`` are bit-identical to it
        (DESIGN.md §8).
        """
        t = xpad[self._mos_sdgb]
        v = t[:3]
        v -= t[3]                                     # (vs, vd, vg) - vb
        sign = self._mos_sign
        sv = v * sign                                 # vsb, vdb, vgb

        vp = sv[2] - self._mos_vt0
        vp /= self._mos_n
        a = vp - sv[:2]
        a /= _TWO_PHI_T                               # af, ar
        ln = np.logaddexp(0.0, a)                     # lf, lr
        dl = ln * 2.0
        dl *= expit(a, out=a)
        dl /= _TWO_PHI_T                              # dlf, dlr
        ln *= ln                                      # lf^2, lr^2

        vds = sv[1] - sv[0]
        clm = np.abs(vds)
        clm *= self._mos_lam
        clm += 1.0
        i_core = ln[0] - ln[1]
        i_core *= self._mos_beta
        i_dclm = np.where(vds >= 0.0, self._mos_lam, self._mos_neg_lam)
        i_dclm *= i_core

        # (gm, gds, gms) = (beta (dlf - dlr) / n, beta dlr, -beta dlf)
        # * clm, then +- i_core dclm on gds / gms
        g = self._mos_g
        np.subtract(dl[0], dl[1], out=g[0])
        g[1:] = dl[::-1]
        g *= self._mos_beta3
        g[0] *= self._mos_inv_n
        g *= clm
        g[1] += i_dclm
        g[2] -= i_dclm
        gds = g[1]
        g[1] = np.where(np.abs(gds) > 1e-12, gds, 1e-12)
        flat, asign, asrc = self._mos_A
        np.add.at(A.reshape(-1), flat, asign * g.reshape(-1)[asrc])

        g_v = g * v[::-1]                             # gm vg, gds vd, gms vs
        i_lin = g_v[0] + g_v[1]
        i_lin += g_v[2]
        i_res = i_core * clm                          # i_d
        i_res *= sign
        i_res -= i_lin
        np.multiply(self._mos_bsign, i_res[self._mos_bsrc], out=out)

    # ------------------------------------------------------------------
    def solve_diag(self, A: np.ndarray, b: np.ndarray, *,
                   want_condition: bool = False):
        """:func:`~repro.analog.resilience.resilient_solve` of *A*, *b*.

        The Newton loop runs rung 0 and the ladder itself and does not
        call this; it stays only because ``perfbench/layers.py`` wraps
        it by name (ROADMAP item 7).
        """
        return resilient_solve(A, b, want_condition=want_condition)


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
