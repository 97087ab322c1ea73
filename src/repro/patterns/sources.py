"""Pattern sources: the at-speed BIST stimulus classes.

The paper's BIST runs "random data at speed"; LiteSATA's BIST (the
exemplar generator/checker pair, SNIPPETS 2/3) drives the link from a
scrambler instead.  This module makes the stimulus a first-class axis:
every source satisfies the tiny :class:`PatternSource` protocol —
``name`` / ``next_bit()`` / ``reset()`` — so the behavioural
synchronizer loop, the checker FSM and the coverage-vs-pattern
campaigns can swap stimulus classes freely.  The PRBS, ISI and
aggressor stimuli also read a block at a time through ``bits(n)``
(exactly *n* ``next_bit()`` calls), which the loop reads once per
coarse period.

Classes
-------
``PRBSSource``       PRBS7/15/23/31 (the classic "random data")
``ScramblerSource``  LiteSATA-style multiplicative scrambler stream
``ISISource``        worst-case ISI template: long runs + lone bits
``BurstErrorSource`` wraps a source, flipping bursts (checker tests)
``AggressorSource``  victim PRBS + a toggling coupled-lane aggressor

``create_source(name)`` builds any registered stimulus by name
(``"prbs7"``, ``"prbs15"``, ``"prbs23"``, ``"prbs31"``,
``"scrambler"``, ``"isi"``, ``"aggressor"``); ``build_stimulus(name)``
additionally returns the crosstalk aggressor hook the loop consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from ..channel.rc_line import CoupledRCLines, default_coupled_lines
from ..link.prbs import PRBS, bit_reader

#: seed every behavioural-loop stimulus starts from — the loop's
#: historical PRBS7 seed, so ``PRBSSource(7)`` reproduces the legacy
#: bit stream exactly
LOOP_SEED = 7


class PatternSource(Protocol):
    """What a stimulus class must provide.

    A source may also provide ``bits(n)``, the next *n* bits as a list
    (exactly *n* ``next_bit()`` calls); readers fall back to
    ``next_bit`` through :func:`repro.link.prbs.bit_reader` when it
    does not.
    """

    name: str

    def next_bit(self) -> int:
        """Advance one bit period and return the transmitted bit."""
        ...

    def reset(self) -> None:
        """Rewind to the first bit of the sequence."""
        ...


# ----------------------------------------------------------------------
class PRBSSource:
    """Maximal-length LFSR stimulus (the paper's "random data")."""

    def __init__(self, order: int = 7, seed: int = LOOP_SEED):
        self.name = f"prbs{order}"
        self._order = order
        self._seed = seed
        self._gen = PRBS(order=order, seed=seed)

    @property
    def period(self) -> int:
        return self._gen.period

    def next_bit(self) -> int:
        return self._gen.next_bit()

    def bits(self, n: int) -> List[int]:
        return self._gen.bits(n)

    def reset(self) -> None:
        self._gen = PRBS(order=self._order, seed=self._seed)


# ----------------------------------------------------------------------
#: the SATA scrambler polynomial x^16 + x^15 + x^13 + x^4 + 1 as a
#: 17-bit word; the polynomial is primitive, so the Galois LFSR below
#: walks all 2^16 - 1 nonzero contexts (LiteSATA's Scrambler value)
_SCRAMBLER_POLY = 0x1A011
_SCRAMBLER_INIT = 0xFFFF


class ScramblerSource:
    """LiteSATA-style multiplicative scrambler stream, one bit a time.

    LiteSATA's BIST generator feeds the lane from its frame scrambler
    running over constant payload — on the wire that is simply the
    scrambler's own keystream.  This source serialises that keystream
    MSB-first from a 16-bit Galois LFSR over the SATA polynomial.  Its
    spectrum is PRBS-like (transition density ~0.5) but the sequence,
    run-length texture and period (2^16 - 1 bits) are distinct from
    any of the PRBS orders — a genuinely different member of the
    "random-looking" class.
    """

    name = "scrambler"

    def __init__(self, init: int = _SCRAMBLER_INIT):
        if not 0 < init <= 0xFFFF:
            raise ValueError("scrambler context must be a nonzero 16-bit "
                             "word")
        self._init = init
        self._state = init

    @property
    def period(self) -> int:
        """Keystream period in bits (one bit per LFSR state)."""
        return 2 ** 16 - 1

    def next_bit(self) -> int:
        self._state <<= 1
        if self._state & 0x10000:
            self._state ^= _SCRAMBLER_POLY
            return 1
        return 0

    def reset(self) -> None:
        self._state = self._init


# ----------------------------------------------------------------------
#: default ISI template run length (bits); calibrated so the healthy
#: loop still locks inside the 2 us budget while the reduced transition
#: density starves pattern-sensitive charge-pump faults (see
#: DESIGN.md section 15)
ISI_RUN_LENGTH = 9


class ISISource:
    """Worst-case ISI template: long runs broken by lone bits.

    One period is ``run_length`` zeros, a lone one, ``run_length``
    ones, a lone zero — the two classic data-dependent-jitter
    stressors (a lone bit after a long run lands on the most displaced
    edge the channel can produce, and the runs themselves starve the
    transition-driven phase detector).  Transition density is
    ``1 / (run_length + 1)`` — two edges per ``2 (run_length + 1)``-bit
    period — versus PRBS's 0.5.
    """

    def __init__(self, run_length: int = ISI_RUN_LENGTH):
        if run_length < 1:
            raise ValueError("run_length must be >= 1")
        self.name = "isi" if run_length == ISI_RUN_LENGTH \
            else f"isi{run_length}"
        self.run_length = run_length
        self._template: List[int] = ([0] * run_length + [1]
                                     + [1] * run_length + [0])
        self._pos = 0

    @property
    def period(self) -> int:
        """Template length in bits."""
        return 2 * self.run_length + 2

    @property
    def lock_budget_scale(self) -> float:
        """Lock-budget stretch for this stimulus (see DESIGN.md §15).

        The coarse staircase advances only on PD activity, which the
        long runs starve, so acquisition slows superlinearly in the run
        length; ``(run_length + 1) / 2`` (5x at the default template)
        keeps the healthy die inside the stretched budget from the
        worst-case startup phase while the leak faults still rail the
        lock detector long before any budget matters.
        """
        return (self.run_length + 1) / 2

    def next_bit(self) -> int:
        bit = self._template[self._pos]
        self._pos = (self._pos + 1) % len(self._template)
        return bit

    def bits(self, n: int) -> List[int]:
        start, period = self._pos, len(self._template)
        self._pos = (start + n) % period
        laps = (start + n) // period + 1
        return (self._template * laps)[start:start + n]

    def reset(self) -> None:
        self._pos = 0


# ----------------------------------------------------------------------
class BurstErrorSource:
    """A source whose output suffers periodic error bursts.

    Wraps *base* and flips ``burst`` consecutive bits every ``gap``
    bits (gap counted start-to-start, so ``gap`` must exceed
    ``burst``).  This is channel-error *injection*, not a stimulus
    class of its own: the checker tests drive a
    :class:`~repro.patterns.checker.PatternChecker` expecting the clean
    *base* stream through one of these and assert every burst is
    tallied in exactly one sector.
    """

    def __init__(self, base: PatternSource, burst: int = 4,
                 gap: int = 100):
        if burst < 1:
            raise ValueError("burst must be >= 1")
        if gap <= burst:
            raise ValueError("gap must exceed the burst length")
        self.base = base
        self.burst = burst
        self.gap = gap
        self.name = f"{base.name}+burst{burst}/{gap}"
        self._count = 0

    def next_bit(self) -> int:
        bit = self.base.next_bit()
        if self._count % self.gap < self.burst:
            bit ^= 1
        self._count += 1
        return bit

    def reset(self) -> None:
        self.base.reset()
        self._count = 0


# ----------------------------------------------------------------------
#: aggressor full swing [V] — the neighbouring lane runs the same
#: low-swing signalling (~300 mV differential) as the victim
AGGRESSOR_SWING = 0.30
#: deterministic crest factor applied to the rms sampling-jitter knob
#: when a crosstalk event and the jitter tail coincide (a 4-sigma
#: event per aggressor edge is the standard budget line)
JITTER_CREST = 4.0


@dataclass
class CrosstalkAggressor:
    """Per-cycle sampling-margin penalty from a coupled toggling lane.

    Each bit period the aggressor lane emits its next bit; on an
    aggressor *transition* the victim's eye edge shifts by the coupled
    lanes' charge-sharing estimate
    (:meth:`repro.channel.rc_line.CoupledRCLines.victim_timing_shift`),
    plus a deterministic ``JITTER_CREST``-sigma allowance for the
    receiver's own sampling jitter (zero on a healthy die — the knob
    only becomes nonzero under V_p-drift faults, which is exactly the
    fault class this stimulus uniquely stresses).  Deterministic by
    construction: campaign records stay byte-identical across workers.
    """

    lanes: CoupledRCLines = field(default_factory=default_coupled_lines)
    pattern: Optional[PatternSource] = None
    swing: float = AGGRESSOR_SWING

    def __post_init__(self):
        if self.pattern is None:
            # worst case: the neighbour carries a half-rate clock, so
            # every victim bit sees one aggressor edge
            self.pattern = ClockSource()
        self._last = self.pattern.next_bit()
        #: per-edge penalty memo keyed by the eye parameters it reads;
        #: ``lanes`` and ``swing`` are fixed for the hook's life
        self._edge_penalty: Dict[Tuple[float, float, float], float] = {}

    def penalty(self, params) -> float:
        """Margin loss [s] for the current bit period."""
        bit = self.pattern.next_bit()
        toggled = bit != self._last
        self._last = bit
        return self._edge(params) if toggled else 0.0

    def penalties(self, params, n: int) -> List[float]:
        """Margin losses [s] of the next *n* bit periods: exactly *n*
        :meth:`penalty` calls."""
        last = self._last
        out = []
        edge = None
        for bit in bit_reader(self.pattern)(n):
            if bit == last:
                out.append(0.0)
            else:
                if edge is None:
                    edge = self._edge(params)
                out.append(edge)
                last = bit
        self._last = last
        return out

    def _edge(self, params) -> float:
        """Margin loss of one aggressor edge under *params*."""
        key = (params.eye_amplitude, params.eye_half_width,
               params.sampling_jitter_rms)
        value = self._edge_penalty.get(key)
        if value is None:
            shift = self.lanes.victim_timing_shift(
                self.swing, params.eye_amplitude, params.eye_half_width)
            value = shift + JITTER_CREST * params.sampling_jitter_rms
            self._edge_penalty[key] = value
        return value

    def reset(self) -> None:
        self.pattern.reset()
        self._last = self.pattern.next_bit()


class ClockSource:
    """0101... — the densest aggressor toggle pattern."""

    name = "clock"

    def __init__(self):
        self._bit = 0

    def next_bit(self) -> int:
        self._bit ^= 1
        return self._bit

    def reset(self) -> None:
        self._bit = 0


class AggressorSource:
    """Victim PRBS7 data while the coupled lane toggles.

    The *victim* stream is the plain PRBS7 stimulus; the crosstalk
    physics ride along as the :attr:`aggressor` hook the synchronizer
    loop consumes (``SynchronizerLoop(source=…, aggressor=…)``).
    """

    name = "aggressor"

    def __init__(self, lanes: Optional[CoupledRCLines] = None,
                 swing: float = AGGRESSOR_SWING):
        self._victim = PRBSSource(7)
        self.aggressor = CrosstalkAggressor(
            lanes=lanes if lanes is not None else default_coupled_lines(),
            swing=swing)

    @property
    def period(self) -> int:
        """Victim-stream period in bits."""
        return self._victim.period

    def next_bit(self) -> int:
        return self._victim.next_bit()

    def bits(self, n: int) -> List[int]:
        return self._victim.bits(n)

    def reset(self) -> None:
        self._victim.reset()
        self.aggressor.reset()


# ----------------------------------------------------------------------
_SOURCES: Dict[str, Callable[[], PatternSource]] = {
    "prbs7": lambda: PRBSSource(7),
    "prbs15": lambda: PRBSSource(15),
    "prbs23": lambda: PRBSSource(23),
    "prbs31": lambda: PRBSSource(31),
    "scrambler": ScramblerSource,
    "isi": ISISource,
    "aggressor": AggressorSource,
}

#: every registered stimulus name, campaign sweep order
PATTERN_NAMES: Tuple[str, ...] = tuple(_SOURCES)


def create_source(name: str) -> PatternSource:
    """Build the named stimulus source."""
    try:
        factory = _SOURCES[name]
    except KeyError:
        raise KeyError(f"unknown pattern {name!r}; choices: "
                       f"{', '.join(PATTERN_NAMES)}") from None
    return factory()


def build_stimulus(name: str):
    """``(source, aggressor-or-None)`` for the synchronizer loop."""
    source = create_source(name)
    return source, getattr(source, "aggressor", None)
