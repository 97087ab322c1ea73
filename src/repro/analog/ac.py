"""Small-signal AC analysis around a DC operating point.

Used by the channel/equalizer benches to extract transfer functions of the
capacitively coupled transmitter driving the RC line, and by unit tests on
basic amplifier cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .dc import OperatingPoint, dc_operating_point
from .devices import VoltageSource
from .netlist import Circuit, is_ground
from .resilience import SolveDiagnostics, resilient_solve
from .solver import SolverError, assemble, build_index


@dataclass
class ACResult:
    """Frequency response: complex node voltages per frequency point."""

    freqs: np.ndarray
    waves: Dict[str, np.ndarray]
    #: worst solve quality across the sweep (condition estimated at the
    #: highest frequency, where the capacitive coupling is strongest)
    diagnostics: Optional[SolveDiagnostics] = field(repr=False, default=None)

    def v(self, node: str) -> np.ndarray:
        if is_ground(node):
            return np.zeros_like(self.freqs, dtype=complex)
        return self.waves[node]

    def transfer(self, out_node: str, magnitude_db: bool = False) -> np.ndarray:
        """Transfer from the (unit) AC input to *out_node*."""
        h = self.v(out_node)
        if magnitude_db:
            return 20.0 * np.log10(np.maximum(np.abs(h), 1e-30))
        return h

    def bandwidth_3db(self, out_node: str) -> float:
        """First frequency where |H| drops 3 dB below its DC value."""
        mag = np.abs(self.v(out_node))
        ref = mag[0]
        if ref <= 0:
            return float("nan")
        target = ref / np.sqrt(2.0)
        below = np.nonzero(mag < target)[0]
        if len(below) == 0:
            return float(self.freqs[-1])
        i = below[0]
        if i == 0:
            return float(self.freqs[0])
        # log-linear interpolation between the straddling points
        f0, f1 = self.freqs[i - 1], self.freqs[i]
        m0, m1 = mag[i - 1], mag[i]
        frac = (m0 - target) / max(m0 - m1, 1e-30)
        return float(f0 + frac * (f1 - f0))


def ac_analysis(circuit: Circuit, input_source: str,
                freqs: Sequence[float],
                op: Optional[OperatingPoint] = None) -> ACResult:
    """Linearise *circuit* at its operating point and sweep frequency.

    *input_source* names the :class:`VoltageSource` to excite with a unit
    AC magnitude; every other independent source is zeroed (standard AC
    convention).
    """
    src = circuit[input_source]
    if not isinstance(src, VoltageSource):
        raise SolverError(f"{input_source!r} is not a voltage source")
    if op is None:
        op = dc_operating_point(circuit)
    if not op.converged:
        raise SolverError("AC analysis requires a converged operating point")

    node_index, n_nodes, n_total = build_index(circuit)
    xop = op.x
    freqs = np.asarray(list(freqs), dtype=float)
    waves = {name: np.empty(len(freqs), dtype=complex)
             for name in circuit.nodes()}

    src.ac_magnitude = 1.0
    try:
        # Every stamp is affine in omega (only capacitor susceptances
        # depend on it, linearly), so two reference assemblies pin down
        # the whole sweep: A(w) = A0 + j*w*C.
        xz = np.zeros(n_total, dtype=complex)
        A0, b = assemble(circuit, node_index, n_total, xz, "ac",
                         xop=xop, omega=0.0, dtype=complex)
        A1, _ = assemble(circuit, node_index, n_total, xz, "ac",
                         xop=xop, omega=1.0, dtype=complex)
        cmat = (A1 - A0).imag
        agg: Optional[SolveDiagnostics] = None
        last = len(freqs) - 1
        for k, f in enumerate(freqs):
            omega = 2.0 * np.pi * f
            x, diag = resilient_solve(A0 + (1j * omega) * cmat, b,
                                      want_condition=k == last)
            agg = diag.worst(agg)
            for name, i in node_index.items():
                waves[name][k] = x[i]
    finally:
        src.ac_magnitude = 0.0
        del src.ac_magnitude

    return ACResult(freqs=freqs, waves=waves, diagnostics=agg)


def logspace_freqs(f_start: float, f_stop: float, points: int = 60) -> np.ndarray:
    """Logarithmically spaced frequency grid."""
    return np.logspace(np.log10(f_start), np.log10(f_stop), points)
