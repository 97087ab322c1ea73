"""Structural fault-universe compression: equivalence classes over
canonical netlist perturbations.

Many structural faults are electrically indistinguishable at the nodes
any test tier observes: the drain open and the source open of a series
device cut the same private chain, several bridge faults short the same
node pair, and a capacitor short across an already-connected pair is a
no-op.  This module maps each
:class:`~repro.faults.model.StructuralFault` to the *canonical
perturbation* its injection applies to the relevant golden circuit — a
node-renaming-invariant digest of the added / rewired stamps restricted
to the observation cone — and groups faults whose perturbations are
identical on every bench their stages simulate.  During a campaign run
(:meth:`repro.faults.campaign.FaultCampaign.run`) the tiers' stages
look their results up in a per-run :class:`StageMemo` keyed by these
digests, so a stage runs once per distinct perturbation and every
later fault with that perturbation reuses its result; CI proves the
equivalence by comparing whole exports with the per-fault path and the
committed verdicts.

The digests are structural, not stimulus-specific: two faults with the
same digest in a context produce identical netlists up to the renaming
of private internal nodes, so *every* analysis of that circuit agrees
on them, whatever the test drives.  The observation cone only enters
through chain privacy — a node a tier observes can never be absorbed
into a cut chain's interior.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..analog.devices import Resistor, Switch, is_ground
from ..analog.mosfet import MOSFET
from ..core.profiling import COUNTERS
from .behavior_map import map_fault_to_knobs
from .inject import SHORTED_TERMINALS, retained_gate_voltage
from .model import FaultKind, R_SHORT, StructuralFault

#: the benches (:data:`repro.dft.duts.BENCHES` tags) each block's
#: stages simulate, so its faults digest under
BLOCK_TAGS = {
    "tx": ("L", "T"),
    "termination": ("L", "T"),
    "cp": ("R",),
    "window_comp": ("R",),
    "vcdl": ("V", "C"),
}


def canon_value(v: Any) -> Any:
    """Hashable stand-in for a knob value (callables by qualified name)."""
    if callable(v):
        mod = getattr(v, "__module__", "?")
        qual = getattr(v, "__qualname__", repr(v))
        return f"fn:{mod}.{qual}"
    return v


def canon_knobs(knobs: Optional[Mapping[str, Any]]):
    """Order-free hashable form of a behavioural knob mapping."""
    if knobs is None:
        return None
    return tuple(sorted((k, canon_value(v)) for k, v in knobs.items()))


#: element classes with a series "channel" and its two terminals —
#: the path a drain/source open physically interrupts
CHANNEL_TERMS = {MOSFET: ("d", "s"), Resistor: ("p", "n"),
                 Switch: ("p", "n")}


def channel_terms(elem) -> Optional[Tuple[str, str]]:
    for cls, terms in CHANNEL_TERMS.items():
        if isinstance(elem, cls):
            return terms
    return None


def build_incidence(circuit) -> Dict[str, List[Tuple[Any, str]]]:
    """node name -> list of (element, terminal role) touching it."""
    inc: Dict[str, List[Tuple[Any, str]]] = defaultdict(list)
    for e in circuit:
        for role, node in e.terminals.items():
            inc[node].append((e, role))
    return inc


def _node_id(node: str) -> str:
    """Ground aliases collapse to the canonical ground name."""
    return "0" if is_ground(node) else node


def chain_for(circuit, inc, observed, dev_name):
    """Maximal private series chain containing *dev_name*'s channel.

    A node is *private* when it is neither ground nor observed and
    carries exactly two channel-terminal incidences: cutting any device
    of such a chain severs the same branch, so every open along it is
    one equivalence class.  Returns the direction-normalized member
    names and the (lo, hi) endpoint nodes.
    """
    elem = circuit[dev_name]
    terms = channel_terms(elem)
    chain = [elem.name]
    seen = {elem.name}

    def is_private(node):
        if is_ground(node) or node in observed:
            return False
        ent = inc.get(node, ())
        if len(ent) != 2:
            return False
        for e, role in ent:
            ct = channel_terms(e)
            if ct is None or role not in ct:
                return False
        return True

    def extend(node, append):
        while is_private(node):
            (e1, r1), (e2, r2) = inc[node]
            e, role = (e2, r2) if e1.name in seen else (e1, r1)
            if e.name in seen:
                break
            seen.add(e.name)
            if append:
                chain.append(e.name)
            else:
                chain.insert(0, e.name)
            ct = channel_terms(e)
            other = ct[0] if role == ct[1] else ct[1]
            node = e.terminals[other]
        return node

    lo = extend(elem.terminals[terms[0]], append=False)
    hi = extend(elem.terminals[terms[1]], append=True)
    names = tuple(chain)
    rev = tuple(reversed(names))
    if rev < names:
        names, lo, hi = rev, hi, lo
    return names, (_node_id(lo), _node_id(hi))


def canon_perturbation(circuit, inc, observed, retention, fault):
    """Canonical digest of the netlist change *fault* injects.

    * shorts become ``("bridge", sorted node pair, R_SHORT)`` — or
      ``("null",)`` when both ends are already the same net (a
      perturbation that stamps nothing);
    * drain/source opens become ``("cut", chain names, endpoints)`` of
      the maximal private series chain they sever;
    * gate opens pin a retention voltage whose value is the whole
      observable effect, ``("gate_open", device, round(v_keep, 12))``;
    * anything unrecognised stays a singleton.

    The bridged terminals and the retained voltage are the injector's
    own (:data:`~repro.faults.inject.SHORTED_TERMINALS`,
    :func:`~repro.faults.inject.retained_gate_voltage`).
    """
    elem = circuit[fault.device]
    k = fault.kind
    if k in SHORTED_TERMINALS:
        a, b = (elem.terminals[t] for t in SHORTED_TERMINALS[k])
        if a == b or (is_ground(a) and is_ground(b)):
            return ("null",)
        return ("bridge", tuple(sorted((_node_id(a), _node_id(b)))), R_SHORT)
    if k in (FaultKind.DRAIN_OPEN, FaultKind.SOURCE_OPEN):
        names, ends = chain_for(circuit, inc, observed, fault.device)
        return ("cut", names, ends)
    if k == FaultKind.GATE_OPEN:
        return ("gate_open", fault.device,
                round(retained_gate_voltage(elem, retention), 12))
    return ("unknown", fault.device, k.value)


class FaultCollapser:
    """Digest faults against the golden DUT circuits and group them.

    Each context is a bench of :data:`repro.dft.duts.BENCHES`, built the
    first time a digest needs it, so a run pays only for the contexts
    its faults touch; a shared
    :class:`~repro.dft.golden.GoldenSignatures` may be passed so
    retention profiles are not re-solved.
    """

    def __init__(self, goldens=None):
        self._goldens = goldens
        self._contexts: Dict[str, Tuple] = {}
        self._digests: Dict[Tuple, Tuple] = {}

    def _context(self, tag: str) -> Tuple:
        """``(circuit, observed nodes, retention, incidence)`` of bench
        *tag*, built nominal: any active die context is suspended, as
        golden builds do, so a digest taken on a Monte-Carlo die never
        touches that die's benches.  Only source values differ between
        builder arguments (the characterisation's lo/hi control points),
        which a structural digest ignores, so each bench is built with
        its builder's defaults."""
        ctx = self._contexts.get(tag)
        if ctx is None:
            from ..dft.duts import BENCHES, bench
            from ..dft.golden import GoldenSignatures
            from ..variation.context import activated

            if self._goldens is None:
                self._goldens = GoldenSignatures()
            entry = BENCHES[tag]
            with activated(None):
                circuit = bench(tag, self._goldens).circuit
                retention = getattr(self._goldens, entry.retention)
            ctx = self._contexts[tag] = (circuit, entry.observed, retention,
                                         build_incidence(circuit))
        return ctx

    def digest(self, fault: StructuralFault, tag: str):
        """Canonical perturbation of *fault* in context *tag* (memoized):
        ``L`` full link, ``T`` toggle bench, ``R`` receiver bench, ``V``
        VCDL, ``C`` VCDL characterisation circuit.

        A digest failure (unknown device in that context, etc.) yields a
        per-device ``("error", ...)`` digest: the fault stays a
        singleton and its stage execution reproduces the exact error.
        """
        key = (fault.key(), tag)
        got = self._digests.get(key)
        if got is None:
            circuit, obs, ret, inc = self._context(tag)
            try:
                got = canon_perturbation(circuit, inc, obs, ret, fault)
            except Exception as exc:
                got = ("error", fault.device, repr(exc))
            self._digests[key] = got
        return got

    def class_key(self, fault: StructuralFault):
        """Fault-level equivalence class: block + the digest of each
        bench the block's stages simulate (:data:`BLOCK_TAGS`), and for
        a charge-pump fault its knob set, through which alone it reaches
        the lock test.

        Faults of a block with no bench stay singletons (keyed by
        identity) rather than pooling into one catch-all class.
        """
        tags = BLOCK_TAGS.get(fault.block)
        if tags is None:
            return (fault.block, ("singleton", fault.key()))
        key = (fault.block,) + tuple(self.digest(fault, t) for t in tags)
        if fault.block == "cp":
            key += (canon_knobs(map_fault_to_knobs(fault)),)
        return key

    def classes(self, universe: Iterable[StructuralFault]):
        """class key -> members, in universe order."""
        grouped: Dict[Tuple, List[StructuralFault]] = {}
        for f in universe:
            grouped.setdefault(self.class_key(f), []).append(f)
        return grouped

    def report(self, universe: Sequence[StructuralFault]):
        """Structural analysis of *universe*: classes, dominance,
        golden-equivalent faults (report only — no verdicts move)."""
        universe = list(universe)
        grouped = self.classes(universe)
        null_faults = []
        digests: Dict[Tuple, Dict[str, Tuple]] = {}
        for f in universe:
            tags = BLOCK_TAGS.get(f.block, ())
            d = {tag: self.digest(f, tag) for tag in tags}
            digests[f.key()] = d
            if d and all(v == ("null",) for v in d.values()):
                null_faults.append(f)
        # dominance (proper structural subset): A is dominated by B
        # when A's perturbation vanishes in some contexts and matches
        # B's in every other — any test that catches A catches B
        dominated: List[Tuple[Tuple, Tuple]] = []
        by_block: Dict[str, List[StructuralFault]] = defaultdict(list)
        for f in universe:
            by_block[f.block].append(f)
        for block, members in by_block.items():
            tags = BLOCK_TAGS.get(block, ())
            if not tags:
                continue
            for a in members:
                da = digests[a.key()]
                nulls = [t for t in tags if da[t] == ("null",)]
                if not nulls or len(nulls) == len(tags):
                    continue
                for b in members:
                    if b is a:
                        continue
                    db = digests[b.key()]
                    if all(da[t] == db[t]
                           for t in tags if t not in nulls):
                        dominated.append((a.key(), b.key()))
        return CollapseReport(
            n_faults=len(universe),
            classes=grouped,
            null_faults=[f.key() for f in null_faults],
            dominance_pairs=dominated,
        )


@dataclass
class CollapseReport:
    """Outcome of a structural collapse analysis (reporting only)."""

    n_faults: int
    classes: Dict[Tuple, List[StructuralFault]]
    null_faults: List[Tuple] = field(default_factory=list)
    dominance_pairs: List[Tuple[Tuple, Tuple]] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def ratio(self) -> float:
        return self.n_faults / self.n_classes if self.classes else 1.0

    def histogram(self) -> Dict[int, int]:
        """class size -> number of classes of that size."""
        return dict(sorted(Counter(
            len(m) for m in self.classes.values()).items()))

    def classes_by_block(self) -> Dict[str, int]:
        by_block: Counter = Counter()
        for members in self.classes.values():
            by_block[members[0].block] += 1
        return dict(by_block)

    def format(self) -> str:
        lines = [
            f"classes: {self.n_classes} over {self.n_faults} faults "
            f"({self.ratio:.2f}x)",
            "by block:",
        ]
        for block, n in sorted(self.classes_by_block().items()):
            lines.append(f"  {block:<14} {n}")
        hist = ", ".join(f"{size}:{count}"
                         for size, count in self.histogram().items())
        lines.append(f"class sizes (size:count): {hist}")
        if self.null_faults:
            lines.append(f"golden-equivalent faults: {len(self.null_faults)} "
                         "(perturbation stamps nothing observable)")
        if self.dominance_pairs:
            lines.append(f"dominance pairs: {len(self.dominance_pairs)} "
                         "(reported only; verdicts never move)")
        return "\n".join(lines)


def universe_report(universe: Sequence[StructuralFault],
                    goldens=None) -> CollapseReport:
    """One-call structural analysis used by ``repro faults``."""
    return FaultCollapser(goldens=goldens).report(universe)


# ----------------------------------------------------------------------
# per-run stage memo
# ----------------------------------------------------------------------
class StageMemo:
    """Test-stage results of one campaign run, keyed by structure.

    A result's key is the stage name, the perturbation digest of each
    circuit the stage simulates (its context *tags*) and any other input
    it reads (*extra*: the stimulus pattern, the charge-pump knob set).
    Equal keys mean the same injected netlist change, so the first fault
    to run a stage (its *representative*) supplies the result to every
    later one.

    A fault of None stands for the fault-free netlist (a Monte-Carlo
    die's healthy screens): its key is the stage and *extra* alone.

    Only a fault's outermost lookup counts: a fresh result ticks
    ``collapse_rep_evals``, a reused one ``class_hits``, and a lookup
    made while computing another stage (the thresholds and delays under
    a lock verdict) or for the fault-free netlist ticks nothing.
    ``classes`` counts the distinct :meth:`FaultCollapser.class_key`
    values among the faults served.  With *trace* open each counted
    reuse is one ``stage_reused`` event, written only by the process
    that opened the memo (never by a forked worker that inherited it).
    The digests come from one :class:`FaultCollapser` parked in the
    golden cache: they are structural, so every memo over that cache
    (every die of a Monte-Carlo campaign) shares them.
    """

    def __init__(self, trace=None):
        self.trace = trace
        self._pid = os.getpid()
        self._collapser: Optional[FaultCollapser] = None
        self._results: Dict[Tuple, Tuple[Any, StructuralFault]] = {}
        self._classes: Set[Tuple] = set()
        self._depth = 0

    def _key(self, goldens, stage: str, fault: Optional[StructuralFault],
             tags: Sequence[str], extra: Any) -> Tuple:
        if fault is None:
            return (stage, None, extra)
        if self._collapser is None:
            self._collapser = goldens.get(
                "faults.collapser", lambda: FaultCollapser(goldens))
        return (stage,
                tuple(self._collapser.digest(fault, t) for t in tags), extra)

    def stored(self, goldens, stage: str, fault: Optional[StructuralFault],
               tags: Sequence[str], extra: Any = None) -> Any:
        """The result an equal-keyed lookup already stored, or None.
        Runs nothing and counts nothing."""
        hit = self._results.get(self._key(goldens, stage, fault, tags,
                                          extra))
        return None if hit is None else hit[0]

    def result(self, goldens, stage: str,
               fault: Optional[StructuralFault], tags: Sequence[str],
               run: Callable[[Optional[StructuralFault]], Any],
               extra: Any = None) -> Any:
        """``run(fault)``, or the result an equal-keyed fault got.  A
        stage that raises stores nothing, so each fault with its key
        reproduces its own error."""
        outer = self._depth == 0 and fault is not None
        key = self._key(goldens, stage, fault, tags, extra)
        if outer:
            cls = self._collapser.class_key(fault)
            if cls not in self._classes:
                self._classes.add(cls)
                COUNTERS.classes += 1
        hit = self._results.get(key)
        if hit is not None:
            value, representative = hit
            if outer:
                COUNTERS.class_hits += 1
                if self.trace is not None and os.getpid() == self._pid:
                    self.trace.emit("stage_reused", fault=str(fault),
                                    stage=stage,
                                    representative=str(representative))
            return value
        self._depth += 1
        try:
            value = run(fault)
        finally:
            self._depth -= 1
        self._results[key] = (value, fault)
        if outer:
            COUNTERS.collapse_rep_evals += 1
        return value


_active: Optional[StageMemo] = None


@contextmanager
def stage_memo(trace=None) -> Iterator[StageMemo]:
    """Activate a fresh :class:`StageMemo` for the duration of a run
    (a fault campaign's, or one Monte-Carlo die's).

    Forked workers inherit it and each fills its own copy.  Outside a
    run none is active, so a direct ``detect`` call never sees another
    fault's result, and a die never sees another die's.
    """
    global _active
    outer, _active = _active, StageMemo(trace)
    try:
        yield _active
    finally:
        _active = outer


@contextmanager
def no_stage_memo() -> Iterator[None]:
    """Suspend the active run's memo: a golden build solves nominal
    netlists, so it neither reads nor fills a run's (or a die's)
    results."""
    global _active
    outer, _active = _active, None
    try:
        yield
    finally:
        _active = outer


def stored_stage_result(goldens, stage: str,
                        fault: Optional[StructuralFault],
                        tags: Sequence[str], extra: Any = None) -> Any:
    """The result the active run's memo already holds for this key
    (see :func:`stage_result`), or None when no run is active or no
    equal-keyed lookup ran the stage yet (or it raised)."""
    if _active is None:
        return None
    return _active.stored(goldens, stage, fault, tags, extra)


def stage_result(goldens, stage: str, fault: Optional[StructuralFault],
                 tags: Sequence[str],
                 run: Callable[[Optional[StructuralFault]], Any],
                 extra: Any = None) -> Any:
    """``run(fault)`` through the active run's :class:`StageMemo`.

    *tags* name the contexts of the circuits the stage simulates (see
    :meth:`FaultCollapser.digest`); *extra* is any other input it reads;
    a *fault* of None is the fault-free netlist.
    """
    if _active is None:
        return run(fault)
    return _active.result(goldens, stage, fault, tags, run, extra)
