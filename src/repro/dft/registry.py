"""Pluggable test-tier registry: the first-class test-tier layer.

The paper's flow is a *pipeline of test instruments* — DC test, scan
integration, BIST — and related ATPG/BIST work treats such stages as
composable.  This module makes that the code's shape too: a tier is any
object satisfying the :class:`TestTier` protocol, registered under a
name, and a campaign is built from an ordered list of names.

The built-in tiers self-register on import: ``dc``, ``scan``, ``bist``
(the paper's pipeline), plus the extension stages ``delay_scan``
(launch-on-capture transition test of the coarse path) and ``dll_bist``
(stand-alone digital DLL BIST).  Registering a custom tier:

>>> from repro.dft import register_tier, create_tier
>>> @register_tier("burn_in")
... class BurnInTier:
...     name = "burn_in"
...     def __init__(self, goldens):
...         self.goldens = goldens
...     golden = {}
...     def applies_to(self, fault):
...         return fault.block == "tx"
...     def detect(self, fault):
...         return fault.kind.is_short
>>> tier = create_tier("burn_in")

Factories are called as ``factory(goldens)`` with the campaign's shared
:class:`~repro.dft.golden.GoldenSignatures` cache, so every tier built
for one campaign reuses the same healthy-circuit reference data.
"""

from __future__ import annotations

import importlib
import inspect
from typing import (Callable, Dict, List, Mapping, Optional, Protocol,
                    Sequence, Tuple, runtime_checkable)

from ..faults.model import StructuralFault
from .golden import GoldenSignatures


@runtime_checkable
class TestTier(Protocol):
    """What a test stage must provide to join a fault campaign.

    Tiers may additionally expose an *optional* ``screen() -> bool``:
    the healthy-die pass/fail compare that the Monte-Carlo mismatch
    campaign (:mod:`repro.variation`) runs on fault-free sampled dies
    to measure yield loss.  It is not part of the required protocol —
    campaigns treat a tier without one as always passing healthy dies.
    """

    name: str

    def applies_to(self, fault: StructuralFault) -> bool:
        """Does this tier physically observe the fault's block?"""
        ...

    def detect(self, fault: StructuralFault) -> bool:
        """Run the tier against *fault*; True when detected."""
        ...

    @property
    def golden(self) -> Mapping[str, object]:
        """The tier's healthy-circuit reference signatures."""
        ...


TierFactory = Callable[[GoldenSignatures], TestTier]

#: tier name -> module whose import registers it (the built-ins)
_BUILTIN_MODULES = {
    "dc": "repro.dft.dc_test",
    "scan": "repro.dft.scan_test",
    "bist": "repro.dft.bist",
    "delay_scan": "repro.dft.delay_scan",
    "dll_bist": "repro.dft.dll_bist",
}

_FACTORIES: Dict[str, TierFactory] = {}


def register_tier(name: str, factory: Optional[TierFactory] = None):
    """Register a tier factory under *name*.

    Usable as a class decorator (the class is the factory — it must be
    constructible as ``cls(goldens)``) or called directly with any
    ``factory(goldens) -> TestTier`` callable.  Re-registering a name
    with a different factory raises; use :func:`unregister_tier` first
    to replace one deliberately.
    """
    def _register(obj):
        existing = _FACTORIES.get(name)
        if existing is not None and existing is not obj:
            raise ValueError(f"tier {name!r} is already registered")
        _FACTORIES[name] = obj
        return obj

    if factory is not None:
        return _register(factory)
    return _register


def unregister_tier(name: str) -> None:
    """Remove a registered tier (no-op when absent)."""
    _FACTORIES.pop(name, None)


def registered_tiers() -> Tuple[str, ...]:
    """Every registered tier name (built-ins included), sorted."""
    for module in _BUILTIN_MODULES.values():
        importlib.import_module(module)
    return tuple(sorted(_FACTORIES))


def check_tier_names(names: Sequence[str]) -> None:
    """Refuse, with ValueError, a tier list no campaign can run.

    Each name must be a registered tier, or ``base@pattern`` whose base
    factory takes a ``pattern`` and whose stimulus is known and not the
    factory's default (that tier is spelled ``base``), and no name may
    repeat: the names :func:`create_tiers` and
    ``FaultCampaign.add_tier`` accept.  Front ends call this before
    anything is built or queued.
    """
    from ..patterns.sources import PATTERN_NAMES

    known = registered_tiers()
    for i, name in enumerate(names):
        base, at, pattern = name.partition("@")
        if base not in known:
            raise ValueError(f"unknown tier {name!r}; registered tiers: "
                             f"{', '.join(known)}")
        if at:
            param = inspect.signature(_FACTORIES[base]).parameters.get(
                "pattern")
            if param is None:
                raise ValueError(f"tier {base!r} takes no pattern: {name!r}")
            if pattern not in PATTERN_NAMES:
                raise ValueError(
                    f"unknown pattern {pattern!r} in tier {name!r}; "
                    f"choices: {', '.join(PATTERN_NAMES)}")
            if pattern == param.default:
                raise ValueError(f"tier {name!r} is spelled {base!r}")
        if name in names[:i]:
            raise ValueError(f"duplicate tier name {name!r}")


def create_tier(name: str,
                goldens: Optional[GoldenSignatures] = None) -> TestTier:
    """Build the named tier, sharing *goldens* when given.

    A ``base@param`` name parameterises the base factory: the part
    after ``@`` is passed as ``factory(goldens, pattern=param)`` and
    the built tier must report the full spelling as its name —
    ``create_tier("bist@isi")`` is the BIST tier driven by the ISI
    stimulus.  Plain names keep the historical ``factory(goldens)``
    call exactly.
    """
    base, _, param = name.partition("@")
    if base not in _FACTORIES and base in _BUILTIN_MODULES:
        importlib.import_module(_BUILTIN_MODULES[base])
    try:
        factory = _FACTORIES[base]
    except KeyError:
        raise KeyError(f"unknown tier {name!r}; registered tiers: "
                       f"{', '.join(registered_tiers())}") from None
    goldens = goldens if goldens is not None else GoldenSignatures()
    if param:
        tier = factory(goldens, pattern=param)
    else:
        tier = factory(goldens)
    _validate_tier(tier, name)
    return tier


def create_tiers(names: Sequence[str],
                 goldens: Optional[GoldenSignatures] = None
                 ) -> List[TestTier]:
    """Build an ordered tier pipeline over one shared golden cache."""
    goldens = goldens if goldens is not None else GoldenSignatures()
    return [create_tier(name, goldens) for name in names]


def _validate_tier(tier: object, name: str) -> None:
    for attr in ("name", "applies_to", "detect", "golden"):
        # looked up without evaluating: ``golden`` may be a property
        # that builds what it returns (ScanTest's toggle transient)
        try:
            inspect.getattr_static(tier, attr)
        except AttributeError:
            raise TypeError(f"tier {name!r} factory returned {tier!r}, "
                            f"which lacks TestTier.{attr}") from None
    if tier.name != name:
        raise TypeError(f"tier registered as {name!r} reports "
                        f"name={tier.name!r}")
