"""Shared plumbing for collapsed (one-representative-per-class) tiers.

A tier's ``detect_collapsed`` groups its faults by the structural
signatures of :class:`repro.faults.collapse.FaultCollapser`, executes
each test *stage* once per distinct sub-stage digest, and expands the
verdict to every group member.  Stage results live in a memo dictionary
shared across tiers of one campaign, keyed by ``(stage name, digest)``
— which is how the DC tier's link observation and the scan tier's probe
capture end up paying for the same two solves only once (the combined
``link_static`` stage).

Accounting convention (the BENCH ratio depends on it):

* ``collapse_rep_evals`` ticks when a group's sub-stage result was
  freshly executed for this group's representative;
* ``class_hits`` ticks for every member run the memo absorbed — the
  whole group when the result was already memoized, the non-
  representatives otherwise;
* groups whose stage raised tick nothing: they stay unresolved, and the
  serial detector reproduces each member's exact error record.

Every stage runs the owning tier's own serial stage code on the
representative (``ScanTest._run_probe`` and friends); the one stage no
single tier owns, the combined ``link_static`` solve pair, is
:func:`run_link_static` below.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..core.profiling import COUNTERS
from ..faults.model import StructuralFault


def group_by_signature(faults, collapser, tier: str
                       ) -> Dict[Tuple, List[StructuralFault]]:
    """Signature -> members (in order); unsignable faults are left out
    (they take the uncollapsed serial path unchanged)."""
    groups: Dict[Tuple, List[StructuralFault]] = {}
    for f in faults:
        sig = collapser.tier_signature(f, tier)
        if sig is not None:
            groups.setdefault(sig, []).append(f)
    return groups


def stage_exec(memo: Dict, need: Dict[Tuple, StructuralFault],
               stage: Callable[[StructuralFault], object]) -> Set:
    """Run *stage* on every representative whose key is not yet
    memoized; results land in *memo*.  A representative whose stage
    raised gets the exception in its slot, so its class stays
    unresolved and falls back to the serial detector.  Returns the
    freshly executed keys (consumed by :func:`consume` for rep-eval
    accounting)."""
    fresh: Set = set()
    for key, rep in need.items():
        if key in memo:
            continue
        try:
            memo[key] = stage(rep)
        except Exception as exc:  # noqa: BLE001 - serial path covers it
            memo[key] = exc
        fresh.add(key)
    return fresh


def consume(fresh: Set, key: Tuple, n_members: int) -> None:
    """Account one group's use of a memoized sub-stage result."""
    if key in fresh:
        fresh.discard(key)
        COUNTERS.collapse_rep_evals += 1
        COUNTERS.class_hits += n_members - 1
    else:
        COUNTERS.class_hits += n_members


def expand(resolved: Dict, provenance: Dict,
           members: Sequence[StructuralFault], verdict: bool) -> None:
    """Record *verdict* for every member, crediting the representative."""
    rep_key = members[0].key()
    resolved[rep_key] = bool(verdict)
    for f in members[1:]:
        resolved[f.key()] = bool(verdict)
        provenance[f.key()] = rep_key


def run_link_static(goldens, fault: StructuralFault) -> Tuple[Dict, Dict]:
    """The combined DC-signature + probe-capture stage on the full link.

    The DC tier's two-pattern link observation
    (:meth:`FullLinkPorts.run_dc_test`) and the scan tier's probe
    capture (:meth:`ScanTest._run_probe`) drive identical source values
    on the same faulted netlist, so one serial solve per data bit
    serves both tiers.  Returns ``(dc_signature, probe_capture)``.
    """
    from dataclasses import replace

    from ..analog import dc_operating_point
    from ..circuits.full_link import build_full_link
    from ..faults.inject import inject_fault
    from .scan_test import ScanTest, _digitize

    link = build_full_link()
    link = replace(link, circuit=inject_fault(
        link.circuit, fault, retention=goldens.retention_link))
    dc_sig: Dict = {}
    probe: Dict = {}
    for bit in (1, 0):
        link.apply_data(bit)
        op = dc_operating_point(link.circuit)
        obs = link.observe(op) if op.converged else {}
        obs["converged"] = op.converged
        dc_sig[bit] = obs
        probe[bit] = (_digitize(op, ScanTest.PROBE_NODES, link.vdd)
                      if op.converged else ("no_convergence",))
    return dc_sig, probe
