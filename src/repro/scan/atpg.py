"""Lightweight test pattern generation for the link's digital logic.

The link's digital blocks are small (the paper: "Since the digital
circuits are simple, a 100% coverage is possible"), so exhaustive or
random-plus-fault-sim pattern generation is entirely adequate — no
path-sensitisation engine is needed.  :func:`generate_patterns` greedily
keeps patterns that detect new faults until coverage saturates.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..digital.simulator import LogicCircuit
from ..digital.stuck_at import (
    StuckAtFault,
    apply_patterns_procedure,
    detects,
    enumerate_stuck_at_faults,
    exhaustive_patterns,
    golden_response,
)


def generate_patterns(circuit_factory: Callable[[], LogicCircuit],
                      input_nets: Sequence[str],
                      output_nets: Sequence[str],
                      clock: Optional[str] = None,
                      exclude: Sequence[str] = (),
                      max_random: int = 256,
                      seed: int = 2016) -> Tuple[List[List[int]], float]:
    """Greedy ATPG: exhaustive for <= 8 inputs, random beyond.

    Returns ``(patterns, coverage)`` where *coverage* is the stuck-at
    coverage of the returned compacted pattern set.
    """
    n_in = len(input_nets)
    reference = circuit_factory()
    faults = enumerate_stuck_at_faults(reference, exclude=exclude)

    if n_in <= 8:
        candidates = exhaustive_patterns(n_in)
    else:
        rng = random.Random(seed)
        candidates = [[rng.randint(0, 1) for _ in range(n_in)]
                      for _ in range(max_random)]
        # always include the all-0 / all-1 corners
        candidates.insert(0, [0] * n_in)
        candidates.insert(1, [1] * n_in)

    remaining: Set[StuckAtFault] = set(faults)
    kept: List[List[int]] = []
    for pattern in candidates:
        if not remaining:
            break
        proc = apply_patterns_procedure(input_nets, output_nets,
                                        [pattern], clock=clock)
        golden = golden_response(circuit_factory, proc)
        hits = {fault for fault in remaining
                if detects(circuit_factory, proc, fault, golden)}
        if hits:
            kept.append(list(pattern))
            remaining -= hits

    covered = len(faults) - len(remaining)
    coverage = covered / len(faults) if faults else 1.0
    return kept, coverage
