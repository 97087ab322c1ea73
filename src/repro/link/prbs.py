"""PRBS generators used for the at-speed BIST stimulus.

Standard Fibonacci LFSRs: PRBS7 (x^7 + x^6 + 1), PRBS15
(x^15 + x^14 + 1), PRBS23 (x^23 + x^18 + 1) and PRBS31
(x^31 + x^28 + 1) — all primitive trinomials, so every generator walks
the full 2^order - 1 state cycle.  The BIST runs the link "with random
data at speed" (Section III); PRBS7 is the default stimulus, and the
longer orders feed the BER-vs-pattern-length sweeps of
:mod:`repro.patterns`.

Seed contract: the seed must already lie inside the register
(``0 <= seed <= 2^order - 1``).  An out-of-range seed is rejected
rather than silently reduced — ``PRBS(7, seed=0x85)`` and
``PRBS(15, seed=0x85)`` would otherwise start from *different* points
of their cycles than the equal-modulo-mask ``seed=0x05`` suggests,
which made cross-order sweeps quietly incomparable.  The single
in-range coercion kept (and documented) is ``seed == 0 -> 1``: the
all-zero word is the LFSR's fixed point and can never be a state on
the maximal cycle.
"""

from __future__ import annotations

from typing import Callable, Iterator, List

#: widest word :meth:`PRBS.bits` steps at once
_WORD = 8
#: ``_WORD_BITS[m][w]`` -- the m-bit word *w* as a tuple of bits, MSB
#: first (the order the LFSR emits them)
_WORD_BITS = [[tuple((w >> (m - 1 - i)) & 1 for i in range(m))
               for w in range(1 << m)] for m in range(_WORD + 1)]


class PRBS:
    """Fibonacci LFSR producing a maximal-length bit sequence."""

    #: supported polynomial degrees -> feedback tap pairs
    TAPS = {7: (7, 6), 15: (15, 14), 23: (23, 18), 31: (31, 28)}

    def __init__(self, order: int = 7, seed: int = 0x5A):
        if order not in self.TAPS:
            raise ValueError(f"unsupported PRBS order {order}; "
                             f"choices {sorted(self.TAPS)}")
        self.order = order
        mask = (1 << order) - 1
        if not 0 <= seed <= mask:
            raise ValueError(
                f"PRBS{order} seed 0x{seed:X} outside 0..0x{mask:X}; "
                f"seeds are not reduced modulo the register mask (equal "
                f"residues would silently alias across orders)")
        if seed == 0:
            seed = 1  # all-zero state is the LFSR's only fixed point
        self.state = seed
        self._mask = mask

    @property
    def period(self) -> int:
        """Sequence period 2^order - 1."""
        return (1 << self.order) - 1

    def next_bit(self) -> int:
        """Advance one step and return the output bit."""
        t1, t2 = self.TAPS[self.order]
        bit = ((self.state >> (t1 - 1)) ^ (self.state >> (t2 - 1))) & 1
        self.state = ((self.state << 1) | bit) & self._mask
        return bit

    def bits(self, n: int) -> List[int]:
        """The next *n* bits: exactly *n* :meth:`next_bit` calls.

        Steps the register a word at a time (the word-per-``ce`` idiom
        of the LiteSATA scrambler, SNIPPETS 2-3).  The register holds
        the last ``order`` output bits, newest lowest, and each output
        bit is the XOR of the bits ``t1`` and ``t2`` steps back, so the
        next ``m <= t2`` bits depend on the current state alone: they
        are the m-bit word ``(state >> (t1 - m)) ^ (state >> (t2 - m))``.
        """
        t1, t2 = self.TAPS[self.order]
        width = min(t2, _WORD)
        state, mask = self.state, self._mask
        out: List[int] = []
        while n > 0:
            m = width if n >= width else n
            word = ((state >> (t1 - m)) ^ (state >> (t2 - m))) \
                & ((1 << m) - 1)
            state = ((state << m) | word) & mask
            out += _WORD_BITS[m][word]
            n -= m
        self.state = state
        return out

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next_bit()


def bit_reader(source) -> Callable[[int], List[int]]:
    """A ``bits(n)`` reader for any stimulus: the source's own
    ``bits`` when it has one, else *n* ``next_bit()`` calls."""
    bits = getattr(source, "bits", None)
    if bits is not None:
        return bits
    next_bit = source.next_bit
    return lambda n: [next_bit() for _ in range(n)]


def transition_density(bits: List[int]) -> float:
    """Fraction of adjacent bit pairs that differ (PD activity factor)."""
    if len(bits) < 2:
        return 0.0
    flips = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    return flips / (len(bits) - 1)
