"""Shared golden-signature cache for the test tiers.

Golden extraction — solving the healthy full link, receiver bench, and
VCDL for their reference operating points — is the expensive part of
building a test tier, and several tiers need the *same* data: the DC
tier's retention voltages seed the fault injector for the scan and BIST
tiers too.  Historically the tiers threaded those dictionaries between
each other through private attributes (``dc._retention_link`` etc.);
:class:`GoldenSignatures` replaces that with one build-once cache object
that every tier in a campaign shares.

Each reference is built lazily on first access and memoized, so
whichever tier needs it first pays for it and the rest reuse it.  In a
campaign the tiers are constructed (and therefore the cache populated)
*before* worker processes fork, so workers inherit every signature
without re-solving.

Every reference is the *nominal* design's: a build runs with any
active :class:`~repro.variation.context.DieContext` and stage memo
(:func:`repro.faults.collapse.stage_memo`) suspended, so a reference
first read on a Monte-Carlo die never carries that die's mismatch or
reads its stage results.  That makes one cache valid for every
campaign of a process (the service builds all its jobs' tiers over
one).

Custom tiers can park their own build-once data in the same cache via
:meth:`GoldenSignatures.get` with a namespaced key.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..analog import dc_operating_point
from ..faults.collapse import no_stage_memo
from ..variation.context import activated
from .duts import bench, run_link_static


class GoldenSignatures:
    """Build-once cache of healthy-circuit reference data.

    The named properties cover the paper's shared reference points;
    :meth:`get` is the generic extension hook for registered custom
    tiers.
    """

    def __init__(self):
        self._store: Dict[str, object] = {}

    # -- generic extension hook ----------------------------------------
    def get(self, key: str, build: Callable[[], object]) -> object:
        """Memoized ``build()``: compute once per cache, reuse after.

        ``build`` runs with any active die context and stage memo
        suspended.
        """
        return self._once(key, build)

    def _once(self, key: str, build: Callable[[], object]) -> object:
        if key not in self._store:
            with activated(None), no_stage_memo():
                self._store[key] = build()
        return self._store[key]

    def __contains__(self, key: str) -> bool:
        return key in self._store

    # -- the paper's shared reference points ---------------------------
    @property
    def dc_link(self) -> Dict:
        """Two-pattern DC-test signature of the healthy full link."""
        return self._once("link", _healthy_link)[0]

    @property
    def probe_link(self) -> Dict:
        """Probe-FF capture of the healthy full link, both data values."""
        return self._once("link", _healthy_link)[1]

    @property
    def retention_link(self) -> Dict[str, float]:
        """Healthy full-link operating point at data = 1 (the retention
        condition floating gates fall back to when opened)."""
        return self._once("link", _healthy_link)[2]

    @property
    def dc_receiver(self) -> Dict:
        """Quiescent observation of the healthy receiver bench."""
        return self._once("receiver", _healthy_receiver)[0]

    @property
    def retention_receiver(self) -> Dict[str, float]:
        """Healthy receiver-bench operating point (quiescent)."""
        return self._once("receiver", _healthy_receiver)[1]

    @property
    def retention_vcdl(self) -> Dict[str, float]:
        """Healthy VCDL operating point with the clock input low."""
        return self._once("retention_vcdl", _healthy_vcdl)


# ----------------------------------------------------------------------
def _healthy_link() -> Tuple[Dict, Dict, Dict[str, float]]:
    dc, probe, (op_1, _) = run_link_static(bench("L", None))
    return dc, probe, dict(op_1.voltages)


def _healthy_receiver() -> Tuple[Dict, Dict[str, float]]:
    dut = bench("R", None)
    dut.set_condition()
    op = dut.solve()
    return dut.observe(op), dict(op.voltages)


def _healthy_vcdl() -> Dict[str, float]:
    dut = bench("V", None)
    dut.set_input(0)
    op = dc_operating_point(dut.circuit)
    return dict(op.voltages) if op.converged else {}
