#!/usr/bin/env python
"""Lint guard: no cross-object private-attribute reach-ins in src/repro.

The tier refactor removed the ``other._private`` threading between test
tiers (golden signatures now flow through the shared
``GoldenSignatures`` cache and the ``TestTier`` protocol).  This guard
keeps it that way: any attribute access of the form ``name._attr`` where
``name`` is not ``self``/``cls`` fails CI.

Accessing your *own* private state (``self._x``) is fine; reaching into
someone else's is not.  Dunder attributes (``__dict__`` etc.) and
private *module* imports are out of scope.  The ALLOWLIST below is for
documented exceptions only; every former object-state entry has been
replaced by a real public accessor (``Capacitor.history_current``
/ ``record_companion``, ``Circuit.revision`` / ``param_revision`` /
``plan_cache``), and the last entry, the chaos harness's ``os._exit``
in its fork()ed victim, left with the harness for ``tests/service/``.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Tuple

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (path relative to src/repro, receiver name, attribute) triples for
#: deliberate, documented exceptions.  For object state, add a public
#: accessor instead of an entry; stdlib calls with no public spelling
#: (``os._exit`` in a forked child) are the only admissible kind.
ALLOWLIST: set = set()

#: receivers that denote "my own state", never a reach-in
SELF_NAMES = {"self", "cls"}


def iter_violations(path: Path) -> Iterator[Tuple[int, str, str]]:
    """Yield (line, receiver, attribute) for each reach-in in *path*."""
    text = path.read_text()
    lines = text.splitlines()
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for i in range(len(tokens) - 2):
        name_tok, dot_tok, attr_tok = tokens[i], tokens[i + 1], tokens[i + 2]
        if name_tok.type != tokenize.NAME or attr_tok.type != tokenize.NAME:
            continue
        if dot_tok.type != tokenize.OP or dot_tok.string != ".":
            continue
        receiver, attr = name_tok.string, attr_tok.string
        if not attr.startswith("_") or attr.startswith("__"):
            continue
        if receiver in SELF_NAMES:
            continue
        # skip `from x import _y` / `import x._y` style lines
        line_start = lines[name_tok.start[0] - 1].lstrip()
        if line_start.startswith(("import ", "from ")):
            continue
        # skip attribute chains ending in a call on self: `self._x._y` is
        # still the object's own subtree only when rooted at self; any
        # other root counts.  (The token triple already excludes roots
        # that are themselves attribute accesses of self, because the
        # receiver token there is the *attribute*, not `self`.)
        yield name_tok.start[0], receiver, attr


def main() -> int:
    violations: List[str] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        for line, receiver, attr in iter_violations(path):
            if (rel, receiver, attr) in ALLOWLIST:
                continue
            violations.append(f"src/repro/{rel}:{line}: {receiver}.{attr}")
    if violations:
        print(
            "cross-object private-attribute access is not allowed in "
            "src/repro/ (use the public tier/golden APIs):",
            file=sys.stderr,
        )
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    total = sum(1 for _ in SRC_ROOT.rglob("*.py"))
    print(f"private-access guard: clean ({total} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
