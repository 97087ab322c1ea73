"""Closed-loop clock synchronizer simulation (Fig 2) and lock analysis."""

from .baseline import (
    CalibrationResult,
    ForegroundReceiver,
    quantization_error_sweep,
)
from .drift import (
    DriftComparison,
    DriftRunResult,
    compare_under_drift,
    linear_drift,
    run_background_through_drift,
    run_foreground_through_drift,
    sinusoidal_drift,
)
from .jitter import (
    CHARGE_SHARE,
    JitterEstimate,
    jitter_from_vp_drift,
    sampling_jitter_knob,
)
from .lock import (
    LOCK_BUDGET_S,
    LockSweepResult,
    coarse_correction_bound,
    lock_sweep,
)
from .loop import (
    LOCK_PHASE_TOL,
    LOCK_QUIET_EVALS,
    LockVerdict,
    LoopResult,
    LoopTrace,
    SynchronizerLoop,
    run_synchronizer,
    stop_at_lock,
)

__all__ = [
    "CalibrationResult", "ForegroundReceiver", "quantization_error_sweep",
    "DriftComparison", "DriftRunResult", "compare_under_drift",
    "linear_drift", "run_background_through_drift",
    "run_foreground_through_drift", "sinusoidal_drift",
    "CHARGE_SHARE", "JitterEstimate", "jitter_from_vp_drift",
    "sampling_jitter_knob",
    "LOCK_BUDGET_S", "LockSweepResult",
    "coarse_correction_bound", "lock_sweep",
    "LOCK_PHASE_TOL", "LOCK_QUIET_EVALS", "LockVerdict", "LoopResult",
    "LoopTrace", "SynchronizerLoop", "run_synchronizer", "stop_at_lock",
]
