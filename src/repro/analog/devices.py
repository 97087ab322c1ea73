"""Primitive circuit elements and the MNA stamping protocol.

Every element implements :meth:`Element.stamp`, writing its linearised
contribution into the modified-nodal-analysis (MNA) matrix held by a
:class:`StampContext`.  Nonlinear elements linearise around the present
Newton iterate ``ctx.x``; reactive elements use companion models derived
from the integration method selected by ``ctx.mode``.

Modes
-----
``'dc'``
    Capacitors are open circuits (a tiny conductance keeps floating nodes
    solvable); inductive behaviour is not modelled (on-chip links here are
    RC-dominant).
``'tran'``
    Backward-Euler or trapezoidal companion models, step ``ctx.dt``, with
    the previous time-point solution in ``ctx.xprev``.
``'ac'``
    Complex small-signal stamps at angular frequency ``ctx.omega`` around
    the DC operating point in ``ctx.xop``.
"""

from __future__ import annotations

import math
from typing import Dict


GROUND_NAMES = ("0", "gnd", "GND", "vss", "VSS")


def is_ground(node: str) -> bool:
    """Return True when *node* names the ground reference."""
    return node in GROUND_NAMES


class StampContext:
    """Assembly state handed to each element's ``stamp`` method.

    Attributes
    ----------
    A, b:
        MNA matrix and right-hand side (complex in AC mode).
    x:
        Current Newton iterate (node voltages then auxiliary currents).
    xprev:
        Previous transient time point (transient mode only).
    xop:
        DC operating point (AC mode only).
    mode:
        ``'dc'``, ``'tran'`` or ``'ac'``.
    dt:
        Transient time step.
    omega:
        AC angular frequency (rad/s).
    method:
        ``'be'`` (backward Euler) or ``'trap'`` (trapezoidal).
    """

    def __init__(self, A, b, x, node_index: Dict[str, int], mode: str,
                 dt: float = 0.0, xprev=None, xop=None, omega: float = 0.0,
                 method: str = "be", time: float = 0.0):
        self.A = A
        self.b = b
        self.x = x
        self.node_index = node_index
        self.mode = mode
        self.dt = dt
        self.xprev = xprev
        self.xop = xop
        self.omega = omega
        self.method = method
        self.time = time

    def idx(self, node: str) -> int:
        """Matrix row/column of *node*, or -1 for ground."""
        if node in GROUND_NAMES:
            return -1
        return self.node_index[node]

    def v(self, node: str, x=None) -> float:
        """Voltage of *node* in solution vector *x* (default: current iterate)."""
        i = self.idx(node)
        if i < 0:
            return 0.0
        vec = self.x if x is None else x
        return vec[i]

    # -- stamping helpers ------------------------------------------------
    def add_conductance(self, p: int, n: int, g: float) -> None:
        """Stamp conductance *g* between matrix indices *p* and *n* (-1=gnd)."""
        if p >= 0:
            self.A[p, p] += g
        if n >= 0:
            self.A[n, n] += g
        if p >= 0 and n >= 0:
            self.A[p, n] -= g
            self.A[n, p] -= g

    def add_current(self, p: int, n: int, i: float) -> None:
        """Stamp an equivalent current source of *i* amps flowing p -> n."""
        if p >= 0:
            self.b[p] -= i
        if n >= 0:
            self.b[n] += i

    def add_transconductance(self, op: int, on: int, cp: int, cn: int,
                             gm: float) -> None:
        """Stamp a VCCS: current gm*V(cp,cn) flows from *op* to *on*."""
        for row, sign_r in ((op, 1.0), (on, -1.0)):
            if row < 0:
                continue
            if cp >= 0:
                self.A[row, cp] += sign_r * gm
            if cn >= 0:
                self.A[row, cn] -= sign_r * gm


class Element:
    """Base class for all netlist elements.

    ``terminals`` maps terminal role names to node names; ``num_aux`` is the
    number of auxiliary (branch-current) unknowns the element needs, and
    ``aux_base`` is assigned by the solver before stamping.
    """

    num_aux = 0

    def __init__(self, name: str, terminals: Dict[str, str]):
        self.name = name
        self.terminals = dict(terminals)
        self.aux_base = -1  # set by the solver

    def stamp(self, ctx: StampContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " ".join(f"{k}={v}" for k, v in self.terminals.items())
        return f"<{type(self).__name__} {self.name} {terms}>"


class Resistor(Element):
    """Linear resistor."""

    def __init__(self, name: str, p: str, n: str, resistance: float):
        if resistance <= 0:
            raise ValueError(f"resistor {name}: resistance must be > 0")
        super().__init__(name, {"p": p, "n": n})
        self.resistance = resistance

    def stamp(self, ctx: StampContext) -> None:
        g = 1.0 / self.resistance
        ctx.add_conductance(ctx.idx(self.terminals["p"]),
                            ctx.idx(self.terminals["n"]), g)


class Capacitor(Element):
    """Linear capacitor with BE/trap companion model in transient mode."""

    #: conductance used at DC so purely capacitive nodes stay solvable
    DC_LEAK = 1e-12

    def __init__(self, name: str, p: str, n: str, capacitance: float):
        if capacitance <= 0:
            raise ValueError(f"capacitor {name}: capacitance must be > 0")
        super().__init__(name, {"p": p, "n": n})
        self.capacitance = capacitance
        self._i_hist = 0.0
        self._geq_used = 0.0
        self._ieq_used = 0.0

    def stamp(self, ctx: StampContext) -> None:
        p = ctx.idx(self.terminals["p"])
        n = ctx.idx(self.terminals["n"])
        if ctx.mode == "dc":
            ctx.add_conductance(p, n, self.DC_LEAK)
        elif ctx.mode == "ac":
            g = 1j * ctx.omega * self.capacitance
            ctx.add_conductance(p, n, g)
        else:  # transient companion
            c = self.capacitance
            vp_prev = ctx.v(self.terminals["p"], ctx.xprev)
            vn_prev = ctx.v(self.terminals["n"], ctx.xprev)
            v_prev = vp_prev - vn_prev
            if ctx.method == "trap":
                # trapezoidal: i_{k+1} = (2C/dt)(v_{k+1} - v_k) - i_k
                geq = 2.0 * c / ctx.dt
                ieq = geq * v_prev + self._i_hist
            else:
                geq = c / ctx.dt
                ieq = geq * v_prev
            self._geq_used = geq
            self._ieq_used = ieq
            ctx.add_conductance(p, n, geq)
            # history current flows n -> p (source pushing current into p)
            ctx.add_current(p, n, -ieq)

    def begin_transient(self) -> None:
        """Reset the branch-current history at the start of a transient."""
        self._i_hist = 0.0
        self._geq_used = 0.0
        self._ieq_used = 0.0

    @property
    def history_current(self) -> float:
        """Branch current of the last accepted step (trap history)."""
        return self._i_hist

    @history_current.setter
    def history_current(self, i_hist: float) -> None:
        # restores a saved history when a rejected sub-step sequence
        # is retried from the interval's start
        self._i_hist = i_hist

    def record_companion(self, geq: float, ieq: float) -> None:
        """Adopt externally stamped companion values.

        The compiled fast path stamps every capacitor's companion in
        one vectorised pass; it hands the values back here so the
        element's :meth:`accept_step` bookkeeping (and any later
        fallback stamp) sees exactly what was stamped.
        """
        self._geq_used = geq
        self._ieq_used = ieq

    def accept_step(self, v_new: float) -> None:
        """Record the branch current of the accepted step (trap history).

        *v_new* is the accepted capacitor voltage V(p) - V(n).
        """
        self._i_hist = self._geq_used * v_new - self._ieq_used


class VoltageSource(Element):
    """Independent voltage source; adds one branch-current unknown."""

    num_aux = 1

    def __init__(self, name: str, p: str, n: str, voltage: float):
        super().__init__(name, {"p": p, "n": n})
        self.voltage = voltage
        self.waveform = None  # optional callable t -> volts

    def value_at(self, t: float) -> float:
        """Source voltage at time *t* (uses ``waveform`` when set)."""
        if self.waveform is not None:
            return float(self.waveform(t))
        return self.voltage

    def stamp(self, ctx: StampContext) -> None:
        p = ctx.idx(self.terminals["p"])
        n = ctx.idx(self.terminals["n"])
        k = self.aux_base
        if p >= 0:
            ctx.A[p, k] += 1.0
            ctx.A[k, p] += 1.0
        if n >= 0:
            ctx.A[n, k] -= 1.0
            ctx.A[k, n] -= 1.0
        if ctx.mode == "ac":
            # independent sources are zeroed in AC unless marked as the input
            ctx.b[k] += getattr(self, "ac_magnitude", 0.0)
        else:
            ctx.b[k] += self.value_at(ctx.time)


class CurrentSource(Element):
    """Independent current source, *current* amps flowing from p to n."""

    def __init__(self, name: str, p: str, n: str, current: float):
        super().__init__(name, {"p": p, "n": n})
        self.current = current
        self.waveform = None  # optional callable t -> amps

    def value_at(self, t: float) -> float:
        if self.waveform is not None:
            return float(self.waveform(t))
        return self.current

    def stamp(self, ctx: StampContext) -> None:
        p = ctx.idx(self.terminals["p"])
        n = ctx.idx(self.terminals["n"])
        i = 0.0 if ctx.mode == "ac" else self.value_at(ctx.time)
        ctx.add_current(p, n, i)


class VoltageControlledVoltageSource(Element):
    """Ideal VCVS: V(p,n) = gain * V(cp,cn).  One auxiliary current."""

    num_aux = 1

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str,
                 gain: float):
        super().__init__(name, {"p": p, "n": n, "cp": cp, "cn": cn})
        self.gain = gain

    def stamp(self, ctx: StampContext) -> None:
        p = ctx.idx(self.terminals["p"])
        n = ctx.idx(self.terminals["n"])
        cp = ctx.idx(self.terminals["cp"])
        cn = ctx.idx(self.terminals["cn"])
        k = self.aux_base
        if p >= 0:
            ctx.A[p, k] += 1.0
            ctx.A[k, p] += 1.0
        if n >= 0:
            ctx.A[n, k] -= 1.0
            ctx.A[k, n] -= 1.0
        if cp >= 0:
            ctx.A[k, cp] -= self.gain
        if cn >= 0:
            ctx.A[k, cn] += self.gain


class Switch(Element):
    """Voltage-controlled switch: R_on when V(ctrl) > threshold else R_off.

    A smooth (logistic) interpolation between the two conductances keeps the
    Newton iteration differentiable.
    """

    def __init__(self, name: str, p: str, n: str, ctrl: str,
                 threshold: float = 0.6, r_on: float = 100.0,
                 r_off: float = 1e9):
        super().__init__(name, {"p": p, "n": n, "ctrl": ctrl})
        self.threshold = threshold
        self.r_on = r_on
        self.r_off = r_off

    def conductance(self, v_ctrl: float) -> float:
        """Smoothly interpolated conductance for control voltage *v_ctrl*."""
        g_on = 1.0 / self.r_on
        g_off = 1.0 / self.r_off
        # 25 mV transition width around the threshold
        arg = (v_ctrl - self.threshold) / 0.025
        s = 1.0 / (1.0 + math.exp(-max(-60.0, min(60.0, arg))))
        return g_off + (g_on - g_off) * s

    def stamp(self, ctx: StampContext) -> None:
        if ctx.mode == "ac":
            v_ctrl = ctx.v(self.terminals["ctrl"], ctx.xop)
        else:
            v_ctrl = ctx.v(self.terminals["ctrl"])
        g = self.conductance(v_ctrl)
        ctx.add_conductance(ctx.idx(self.terminals["p"]),
                            ctx.idx(self.terminals["n"]), g)


class Diode(Element):
    """Junction diode with exponential law (limited for convergence)."""

    def __init__(self, name: str, p: str, n: str, i_s: float = 1e-14,
                 n_ideality: float = 1.0):
        super().__init__(name, {"p": p, "n": n})
        self.i_s = i_s
        self.n_ideality = n_ideality

    def _iv(self, vd: float):
        vt = 0.02585 * self.n_ideality
        vd_lim = min(vd, 0.9)  # prevent overflow; gd continues linearly
        e = math.exp(vd_lim / vt)
        i = self.i_s * (e - 1.0)
        g = self.i_s * e / vt
        if vd > vd_lim:
            i += g * (vd - vd_lim)
        return i, max(g, 1e-12)

    def stamp(self, ctx: StampContext) -> None:
        p = ctx.idx(self.terminals["p"])
        n = ctx.idx(self.terminals["n"])
        if ctx.mode == "ac":
            vd = ctx.v(self.terminals["p"], ctx.xop) - ctx.v(self.terminals["n"], ctx.xop)
            _, g = self._iv(vd)
            ctx.add_conductance(p, n, g)
            return
        vd = ctx.v(self.terminals["p"]) - ctx.v(self.terminals["n"])
        i, g = self._iv(vd)
        ctx.add_conductance(p, n, g)
        ctx.add_current(p, n, i - g * vd)
