"""Active-die context: variation-aware bench building with plan reuse.

The test tiers take every DUT netlist from the bench builders of
:data:`repro.dft.duts.BENCHES`.  To re-run a tier on a sampled die those
builders must hand back *variation-shifted* circuits — without the
tiers knowing anything about Monte-Carlo.  This module is that seam:

* builders are wrapped with :func:`die_bench`; with no active context
  the wrapper is a pass-through (zero behaviour change for every
  existing flow);
* inside a campaign, :class:`DieContext` is activated and the wrapper
  routes through a **bench cache**: the netlist is built once per
  worker process, its nominal state (MOSFET parameters, source values
  and waveforms) is snapshotted, and each subsequent die *re-tunes* the
  same circuit — restore nominal, apply the die's corner+mismatch
  transform, :meth:`~repro.analog.netlist.Circuit.retune`.

Because ``retune`` keeps the compiled MNA assembly plans (only the
device-parameter vectors are re-stamped — see
:meth:`repro.analog.assembly.CompiledAssembly.refresh_parameters`), a
256-die sweep pays for topology compilation once per bench, not once
per die.  Fault injection still clones the tuned bench, so faulted
netlists inherit the die's mismatch without ever mutating the cache.

Per-die determinism: a bench's observable state is a pure function of
the die key.  The snapshot/restore covers everything a measurement may
have mutated (source values, waveforms) and the transform itself is
keyed sampling (:mod:`repro.variation.mismatch`), so results do not
depend on which dies a worker evaluated earlier — the property that
makes ``--workers N`` and checkpoint resume byte-identical to a serial
run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.profiling import COUNTERS
from ..analog.corners import TT
from ..analog.devices import CurrentSource, VoltageSource
from ..analog.mosfet import MOSFET, MOSParams
from .mismatch import DieSample, MismatchModel

#: the context the wrapped builders consult; exactly one (or none) is
#: active per process — campaigns are single-threaded within a worker
_ACTIVE: Optional["DieContext"] = None


@dataclass
class _Bench:
    """One cached DUT build plus its nominal-state snapshot."""

    ports: object
    mos_nominals: List[Tuple[MOSFET, MOSParams]]
    source_state: List[Tuple[object, str, float, Optional[Callable]]]
    tuned_for: Optional[int] = None


def _snapshot(circuit) -> Tuple[List, List]:
    mos = [(dev, dev.params) for dev in circuit.elements_of_type(MOSFET)]
    sources = []
    for elem in circuit:
        if isinstance(elem, VoltageSource):
            sources.append((elem, "voltage", elem.voltage, elem.waveform))
        elif isinstance(elem, CurrentSource):
            sources.append((elem, "current", elem.current, elem.waveform))
    return mos, sources


class DieContext:
    """Routes bench builds through per-die re-tuning while active."""

    def __init__(self, seed: int, model=None, corner=None):
        self.seed = seed
        self.model = model if model is not None else MismatchModel()
        self.corner = corner if corner is not None else TT
        self.die_index: Optional[int] = None
        self._benches: Dict[object, _Bench] = {}

    # ------------------------------------------------------------------
    def set_die(self, die_index: int) -> None:
        """Select the die subsequent bench builds are tuned for."""
        self.die_index = die_index

    def sample(self) -> DieSample:
        if self.die_index is None:
            raise RuntimeError("DieContext has no die selected; "
                               "call set_die() first")
        return DieSample(seed=self.seed, die_index=self.die_index,
                         model=self.model, corner=self.corner)

    # ------------------------------------------------------------------
    def realize(self, key: object, builder: Callable[[], object]) -> object:
        """Build-or-retune the bench behind *key* for the current die."""
        bench = self._benches.get(key)
        if bench is None:
            ports = builder()
            mos, sources = _snapshot(ports.circuit)
            bench = _Bench(ports=ports, mos_nominals=mos,
                           source_state=sources)
            self._benches[key] = bench
        else:
            COUNTERS.mc_bench_reuse += 1
        if bench.tuned_for != self.die_index:
            self._tune(bench)
            bench.tuned_for = self.die_index
        return bench.ports

    def _tune(self, bench: _Bench) -> None:
        sample = self.sample()
        for dev, nominal in bench.mos_nominals:
            dev.params = sample.params_for(dev, nominal)
        for elem, attr, value, waveform in bench.source_state:
            setattr(elem, attr, value)
            elem.waveform = waveform
        bench.ports.circuit.retune()


# ----------------------------------------------------------------------
# activation + the builder seam
# ----------------------------------------------------------------------
class activated:
    """Context manager installing *ctx* as the process-active die context.

    ``activated(None)`` suspends whatever context is active, so the
    builders inside the block return nominal benches (how the shared
    golden cache builds its references).
    """

    def __init__(self, ctx: Optional[DieContext]):
        self._ctx = ctx
        self._prev: Optional[DieContext] = None

    def __enter__(self) -> DieContext:
        global _ACTIVE
        self._prev, _ACTIVE = _ACTIVE, self._ctx
        return self._ctx

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = self._prev


def active_context() -> Optional[DieContext]:
    """The installed :class:`DieContext`, or None outside a campaign."""
    return _ACTIVE


def die_bench(builder: Callable) -> Callable:
    """Wrap a DUT builder so campaigns reuse and re-tune its netlist.

    Without an active context the builder runs untouched.  With one,
    calls are keyed by the builder identity plus its (hashable)
    arguments, and the built ports are the context's to keep: a caller
    that needs a different netlist (a fault-injected clone) puts it in
    ports of its own (:func:`repro.dft.duts.bench`).
    """

    @functools.wraps(builder)
    def wrapper(*args, **kwargs):
        ctx = _ACTIVE
        if ctx is None or ctx.die_index is None:
            return builder(*args, **kwargs)
        key = (builder.__module__, builder.__qualname__,
               args, tuple(sorted(kwargs.items())))
        return ctx.realize(key, lambda: builder(*args, **kwargs))

    return wrapper
