"""Benchmark artifact discovery shared by the CLI and the bench suite.

``BENCH_PR<N>.json`` artifacts are ordered by their PR *number*, not
by filename string: ``BENCH_PR10.json`` is newer than
``BENCH_PR9.json`` even though it sorts before it lexically.  Both
``repro bench --compare`` and the benchmark suite's baseline discovery
must agree on that ordering (a disagreement silently compares the
wrong pair), so this is the one place the ``BENCH_PR(\\d+)`` name is
parsed.  A bench session names its own artifact after the newest
``PR <N>:`` entry of ``CHANGES.md`` (:func:`changes_pr_number`).
"""

from __future__ import annotations

import os
import re
from typing import List, Optional

_BENCH_NAME = re.compile(r"BENCH_PR(\d+)\.json")
_CHANGES_ENTRY = re.compile(r"^PR (\d+):", re.MULTILINE)


def bench_pr_number(name: str) -> Optional[int]:
    """The PR number of a ``BENCH_PR<N>.json`` basename, else ``None``."""
    m = _BENCH_NAME.fullmatch(os.path.basename(name))
    return int(m.group(1)) if m else None


def bench_artifacts(dirpath: str) -> List[str]:
    """``BENCH_PR<N>.json`` paths under *dirpath*, oldest PR first.

    Numeric ordering — ``PR4 < PR9 < PR10`` — and an empty list for a
    missing directory (callers report "found 0" rather than crashing).
    """
    if not os.path.isdir(dirpath):
        return []
    found = []
    for name in os.listdir(dirpath):
        number = bench_pr_number(name)
        if number is not None:
            found.append((number, os.path.join(dirpath, name)))
    return [path for _, path in sorted(found)]


def changes_pr_number(path: str) -> Optional[int]:
    """The highest ``PR <N>:`` entry number of a ``CHANGES.md``, else
    ``None`` (no file, or no entry)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError:
        return None
    return max(map(int, _CHANGES_ENTRY.findall(text)), default=None)
