"""Structural fault model, injection, behavioural mapping, and campaigns."""

from .behavior_map import map_fault_to_knobs
from .campaign import (
    CampaignResult,
    FaultCampaign,
    TIER_ORDER,
)
from .collapse import (
    CollapseReport,
    FaultCollapser,
    universe_report,
)
from .enumerate import (
    faults_for_caps,
    faults_for_devices,
    universe_summary,
)
from .inject import InjectionError, inject_fault
from .model import (
    DetectionRecord,
    FaultKind,
    MOSFET_FAULT_KINDS,
    R_GATE_RETAIN,
    R_OPEN,
    R_SHORT,
    StructuralFault,
)
from .sampling import (
    SampledCoverage,
    adaptive_estimate,
    estimate_coverage,
    stratified_sample,
    wilson_interval,
)

__all__ = [
    "map_fault_to_knobs",
    "CampaignResult", "FaultCampaign", "TIER_ORDER",
    "CollapseReport", "FaultCollapser", "universe_report",
    "faults_for_caps", "faults_for_devices", "universe_summary",
    "InjectionError", "inject_fault",
    "DetectionRecord", "FaultKind", "MOSFET_FAULT_KINDS",
    "R_GATE_RETAIN", "R_OPEN", "R_SHORT", "StructuralFault",
    "SampledCoverage", "adaptive_estimate", "estimate_coverage",
    "stratified_sample", "wilson_interval",
]
