"""Transistor-level circuit library: the paper's Figs 3-9 as netlists."""

from .charge_pump import (
    ChargePumpDUT,
    ChargePumpPorts,
    build_charge_pump,
    build_charge_pump_dut,
    pump_current,
)
from .comparator import (
    ComparatorPorts,
    build_offset_comparator,
    comparator_output,
    measure_trip_offset,
)
from .cp_bist_comparator import (
    BIST_WINDOW_MV,
    CPBistVerdict,
    build_cp_bist_comparator,
    evaluate_cp_bist,
)
from .ffe_transmitter import (
    TransmitterArmPorts,
    TransmitterPorts,
    build_transmitter,
    build_transmitter_arm,
)
from .full_link import FullLinkPorts, build_full_link
from .phase_detector import (
    CLK_SAMPLE,
    CLK_SAMPLE_B,
    PhaseDetectorPorts,
    build_alexander_pd,
    pd_decision,
)
from .stdcells import (
    CellPorts,
    WL_DEFAULT,
    WL_OFFSET,
    build_bias_divider,
    build_inverter,
    build_transmission_gate,
)
from .termination import TerminationPorts, build_termination
from .vcdl import (
    VCDLPorts,
    build_vcdl,
    measure_vcdl_delay,
    vcdl_tuning_range,
)
from .window_comparator import (
    WindowComparatorPorts,
    build_window_comparator,
    window_comparator_output,
)

__all__ = [
    "ChargePumpDUT", "ChargePumpPorts", "build_charge_pump",
    "build_charge_pump_dut", "pump_current",
    "ComparatorPorts", "build_offset_comparator", "comparator_output",
    "measure_trip_offset",
    "BIST_WINDOW_MV", "CPBistVerdict", "build_cp_bist_comparator",
    "evaluate_cp_bist",
    "TransmitterArmPorts", "TransmitterPorts", "build_transmitter",
    "build_transmitter_arm",
    "FullLinkPorts", "build_full_link",
    "CLK_SAMPLE", "CLK_SAMPLE_B", "PhaseDetectorPorts",
    "build_alexander_pd", "pd_decision",
    "CellPorts", "WL_DEFAULT", "WL_OFFSET", "build_bias_divider",
    "build_inverter",
    "build_transmission_gate",
    "TerminationPorts", "build_termination",
    "VCDLPorts", "build_vcdl", "measure_vcdl_delay", "vcdl_tuning_range",
    "WindowComparatorPorts", "build_window_comparator",
    "window_comparator_output",
]
