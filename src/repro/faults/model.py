"""Structural fault model for analog circuits (Table I taxonomy).

Per MOSFET: gate open, drain open, source open, gate-drain short,
gate-source short, drain-source short.  Per capacitor: short.  (A
capacitor *open* in a series coupling position is electrically the same
netlist minus the capacitor; the paper's Table I lists only the short,
and we follow it.)

Each fault also carries the *block* it lives in and the device *role*
tag assigned by the circuit builders — the behavioural mapping uses the
role to decide what a fault does to the closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class FaultKind(Enum):
    """The seven structural defect classes of Table I."""

    GATE_OPEN = "gate_open"
    DRAIN_OPEN = "drain_open"
    SOURCE_OPEN = "source_open"
    GATE_DRAIN_SHORT = "gate_drain_short"
    GATE_SOURCE_SHORT = "gate_source_short"
    DRAIN_SOURCE_SHORT = "drain_source_short"
    CAP_SHORT = "cap_short"

    @property
    def is_open(self) -> bool:
        return self in (FaultKind.GATE_OPEN, FaultKind.DRAIN_OPEN,
                        FaultKind.SOURCE_OPEN)

    @property
    def is_short(self) -> bool:
        return not self.is_open

    @property
    def table_label(self) -> str:
        """Row label used in Table I."""
        return {
            FaultKind.GATE_OPEN: "Gate open",
            FaultKind.DRAIN_OPEN: "Drain open",
            FaultKind.SOURCE_OPEN: "Source open",
            FaultKind.GATE_DRAIN_SHORT: "Gate drain short",
            FaultKind.GATE_SOURCE_SHORT: "Gate source short",
            FaultKind.DRAIN_SOURCE_SHORT: "Drain source short",
            FaultKind.CAP_SHORT: "Capacitor short",
        }[self]


MOSFET_FAULT_KINDS = (
    FaultKind.GATE_OPEN, FaultKind.DRAIN_OPEN, FaultKind.SOURCE_OPEN,
    FaultKind.GATE_DRAIN_SHORT, FaultKind.GATE_SOURCE_SHORT,
    FaultKind.DRAIN_SOURCE_SHORT,
)


@dataclass(frozen=True)
class StructuralFault:
    """One structural fault instance in the analog fault universe."""

    device: str            # element name in the block's netlist
    kind: FaultKind
    block: str             # 'tx' | 'termination' | 'window_comp' | ...
    role: str = ""         # device role tag from the builders

    def __str__(self) -> str:
        return f"{self.block}:{self.device}/{self.kind.value}"

    def key(self) -> Tuple[str, str, str, str]:
        """Stable identity used by campaign checkpoints."""
        return (self.device, self.kind.value, self.block, self.role)

    def to_dict(self) -> Dict[str, str]:
        return {"device": self.device, "kind": self.kind.value,
                "block": self.block, "role": self.role}

    @classmethod
    def from_dict(cls, data: Mapping[str, str]) -> "StructuralFault":
        return cls(device=data["device"], kind=FaultKind(data["kind"]),
                   block=data["block"], role=data.get("role", ""))


#: resistance used to realise an open.  Must be far above the solver's
#: gmin floor (1e-12 S ~ 1 TOhm) so a floated node genuinely floats —
#: with a mere 1 GOhm "open" the leak arithmetic still drives the node
#: to its healthy level and opens become undetectable artefacts.
R_OPEN = 1e14
#: resistance used to realise a short
R_SHORT = 10.0
#: pull resistance tying a floating gate to its retained bias
R_GATE_RETAIN = 1e8


class DetectionRecord:
    """Which test tiers detected a fault.

    ``tiers`` maps a tier name to ``True`` for every tier that detected
    the fault; tiers that missed (or did not apply) are simply absent,
    so records work for any registered tier set, not just the paper's
    ``dc``/``scan``/``bist``.  Those three stay readable as attributes
    and settable as constructor flags for the common case.

    ``errors`` collects ``(tier, repr(exception))`` pairs from detectors
    that raised; it is a first-class field, so it survives pickling
    through forked campaign workers and JSON round-trips.

    ``outcome`` is ``"ok"`` for a normally evaluated fault; the
    supervised runner (:mod:`repro.core.supervisor`) settles a fault
    that hung as ``"timeout"`` and one that repeatedly killed its
    worker as ``"quarantined"``.  Non-ok records carry no tier hits —
    an unevaluated fault must never inflate coverage — and they stay
    visible in the accounting instead of being silently dropped.

    A record does not say how its verdicts were reached: a collapsed
    campaign's records equal per-fault ones, and the representative
    behind each copied verdict goes to the run trace (DESIGN.md §14).
    """

    __slots__ = ("fault", "tiers", "errors", "outcome")

    def __init__(self, fault: StructuralFault,
                 tiers: Optional[Mapping[str, bool]] = None,
                 errors: Optional[Iterable[Sequence[str]]] = None,
                 outcome: str = "ok",
                 **tier_flags: bool):
        self.fault = fault
        self.tiers: Dict[str, bool] = {name: True for name, hit
                                       in (tiers or {}).items() if hit}
        for name, hit in tier_flags.items():
            if hit:
                self.tiers[name] = True
        self.errors: List[Tuple[str, str]] = \
            [tuple(e) for e in (errors or [])]
        self.outcome = outcome

    # -- paper-tier attribute compatibility ----------------------------
    @property
    def dc(self) -> bool:
        return bool(self.tiers.get("dc"))

    @property
    def scan(self) -> bool:
        return bool(self.tiers.get("scan"))

    @property
    def bist(self) -> bool:
        return bool(self.tiers.get("bist"))

    # ------------------------------------------------------------------
    def hit(self, tier: str) -> bool:
        """True when the named tier detected this fault."""
        return bool(self.tiers.get(tier))

    @property
    def detected(self) -> bool:
        return any(self.tiers.values())

    def first_tier(self, order: Optional[Sequence[str]] = None
                   ) -> Optional[str]:
        """First detecting tier, by *order* (default: evaluation order —
        hits are inserted as the campaign walks its tier list)."""
        for name in (self.tiers if order is None else order):
            if self.tiers.get(name):
                return name
        return None

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionRecord):
            return NotImplemented
        return (self.fault == other.fault and self.tiers == other.tiers
                and self.errors == other.errors
                and self.outcome == other.outcome)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        suffix = "" if self.outcome == "ok" else f", outcome={self.outcome}"
        return (f"DetectionRecord(fault={self.fault!s}, "
                f"tiers={sorted(self.tiers)}, "
                f"errors={len(self.errors)}{suffix})")

    # -- artifact serialization ----------------------------------------
    def to_dict(self) -> Dict[str, object]:
        # "outcome" is emitted only for abnormal records so ok-records
        # stay byte-identical to pre-supervision artifacts/checkpoints
        data: Dict[str, object] = {
            "fault": self.fault.to_dict(),
            "tiers": dict(self.tiers),
            "errors": [list(e) for e in self.errors]}
        if self.outcome != "ok":
            data["outcome"] = self.outcome
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DetectionRecord":
        """Parse a :meth:`to_dict` document; keys it does not know, such
        as the per-member provenance that older collapsed runs stored,
        are ignored."""
        return cls(fault=StructuralFault.from_dict(data["fault"]),
                   tiers=data.get("tiers") or {},
                   errors=data.get("errors") or [],
                   outcome=str(data.get("outcome", "ok")))
