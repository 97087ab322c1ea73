"""Top-level configuration of the testable link (public API).

:class:`LinkConfig` aggregates the channel, the behavioural loop
parameters, and the campaign options into one object a user constructs
once and hands to :class:`repro.core.testable_link.TestableLink`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..channel import ChannelConfig, WireModel, get_wire_model
from ..link.params import LinkParams


@dataclass
class LinkConfig:
    """User-facing configuration of the repeaterless low-swing link.

    Defaults reproduce the paper's operating point: UMC-130nm-class
    process, 1.2 V supply, 10 mm global wire, 2.5 Gbps, 10-phase DLL.
    """

    #: data rate [bit/s]
    data_rate: float = 2.5e9
    #: supply voltage [V]
    vdd: float = 1.2
    #: interconnect length [m]
    length_m: float = 10e-3
    #: wire preset name (see :mod:`repro.channel.wire_models`)
    wire: str = "global_min"
    #: number of DLL phases in the coarse loop
    n_dll_phases: int = 10
    #: coarse-loop clock divider ratio
    divider_ratio: int = 16
    #: scan clock frequency [Hz] (the paper assumes 100 MHz)
    scan_frequency: float = 100e6
    #: PRBS order for the at-speed BIST stimulus
    prbs_order: int = 7

    def __post_init__(self):
        if self.data_rate <= 0:
            raise ValueError("data_rate must be positive")
        if self.length_m <= 0:
            raise ValueError("length_m must be positive")
        if self.n_dll_phases < 2:
            raise ValueError("need at least 2 DLL phases")
        if self.divider_ratio <= 0:
            raise ValueError("divider_ratio must be positive")
        get_wire_model(self.wire)  # validate early

    # ------------------------------------------------------------------
    @property
    def bit_time(self) -> float:
        return 1.0 / self.data_rate

    @property
    def wire_model(self) -> WireModel:
        return get_wire_model(self.wire)

    def channel_config(self) -> ChannelConfig:
        """Channel analysis view of this configuration."""
        return ChannelConfig(wire=self.wire_model, length_m=self.length_m,
                             vdd=self.vdd)

    def link_params(self, **fault_knobs) -> LinkParams:
        """Behavioural loop parameters (optionally with fault knobs)."""
        params = LinkParams(
            bit_time=self.bit_time,
            n_phases=self.n_dll_phases,
            vdd=self.vdd,
            divider_ratio=self.divider_ratio,
            eye_center=0.5 * self.bit_time,
        )
        if fault_knobs:
            params = replace(params, **fault_knobs)
        return params

    def with_overrides(self, **kwargs) -> "LinkConfig":
        """Copy with the given fields replaced."""
        return replace(self, **kwargs)


#: the configuration the paper evaluates
PAPER_CONFIG = LinkConfig()
