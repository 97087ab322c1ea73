"""From-scratch analog circuit simulator (the SPICE substitute).

Modified nodal analysis with Newton-Raphson DC, fixed-step transient
(backward Euler / trapezoidal) and small-signal AC, plus a smooth EKV-style
MOSFET model parameterised to a 130 nm-class process.  See DESIGN.md for
why this substitutes for the paper's UMC 130 nm + commercial-SPICE flow.
"""

from .ac import ACResult, ac_analysis, logspace_freqs
from .assembly import CompiledAssembly, LinearSolverCache, get_compiled
from .corners import (
    ALL_CORNERS,
    FF,
    FS,
    MismatchSpec,
    ProcessCorner,
    SF,
    SS,
    TT,
    get_corner,
    monte_carlo,
    sweep_corners,
)
from .dc import OperatingPoint, dc_operating_point, dc_sweep
from .measure import (
    EdgeSummary,
    MeasureError,
    crossings,
    fall_time,
    overshoot,
    period_and_duty,
    propagation_delay,
    rise_time,
    settling_time,
    summarize_edges,
)
from .spice_io import (
    SpiceFormatError,
    load_spice,
    read_spice,
    save_spice,
    write_spice,
)
from .devices import (
    Capacitor,
    CurrentSource,
    Diode,
    Element,
    Resistor,
    StampContext,
    Switch,
    VoltageControlledVoltageSource,
    VoltageSource,
)
from .mosfet import (
    MOSFET,
    MOSParams,
    NMOS_130,
    NMOS_130_FF,
    NMOS_130_SS,
    PMOS_130,
    PMOS_130_FF,
    PMOS_130_SS,
    PHI_T,
)
from .netlist import Circuit, CircuitError, is_ground
from .resilience import (
    NumericsPolicy,
    SolveDiagnostics,
    UnsolvableError,
    condition_estimate_1norm,
    get_policy,
    numerics_policy,
    relative_residual,
    resilient_solve,
)
from .solver import DEFAULT_GMIN, SolverError, solve_linear, solve_linear_diag
from .transient import (
    TransientResult,
    bit_waveform,
    clock_waveform,
    step_waveform,
    transient,
)

__all__ = [
    "ACResult", "ac_analysis", "logspace_freqs",
    "CompiledAssembly", "LinearSolverCache", "get_compiled",
    "ALL_CORNERS", "FF", "FS", "MismatchSpec", "ProcessCorner", "SF",
    "SS", "TT", "get_corner", "monte_carlo", "sweep_corners",
    "EdgeSummary", "MeasureError", "crossings", "fall_time", "overshoot",
    "period_and_duty", "propagation_delay", "rise_time", "settling_time",
    "summarize_edges",
    "SpiceFormatError", "load_spice", "read_spice", "save_spice",
    "write_spice",
    "OperatingPoint", "dc_operating_point", "dc_sweep",
    "Capacitor", "CurrentSource", "Diode", "Element", "Resistor",
    "StampContext", "Switch", "VoltageControlledVoltageSource",
    "VoltageSource",
    "MOSFET", "MOSParams", "NMOS_130", "NMOS_130_FF", "NMOS_130_SS",
    "PMOS_130", "PMOS_130_FF", "PMOS_130_SS", "PHI_T",
    "Circuit", "CircuitError", "is_ground",
    "NumericsPolicy", "SolveDiagnostics", "UnsolvableError",
    "condition_estimate_1norm", "get_policy", "numerics_policy",
    "relative_residual", "resilient_solve",
    "DEFAULT_GMIN", "SolverError", "solve_linear", "solve_linear_diag",
    "TransientResult", "bit_waveform", "clock_waveform", "step_waveform",
    "transient",
]
