"""Deterministic failpoints: named hooks for seeded fault injection.

The chaos harness (``tests/service/chaos.py``) proves the service
layer's crash-recovery story by killing a serve loop at *exact*,
reproducible moments — after the Nth durable checkpoint line, before a
store entry's atomic rename, mid-item — rather than at whatever
instant a timer happens to fire.  That needs the production code to
expose the moments themselves, so the hot paths call
:func:`failpoint` at the handful of crash-critical boundaries:

* ``jsonl.pre_line`` / ``jsonl.post_line`` — around every durable
  JSONL append (checkpoint records, trace events);
* ``supervisor.pre_evaluate`` — before each supervised item runs;
* ``store.pre_replace`` — between a store entry's fsync and the
  ``os.replace`` that publishes it.

A failpoint is a no-op unless something :func:`arm`\\ ed it — the cost
of an unarmed site is one dict lookup, far below the I/O it sits next
to — so the mission paths are unaffected outside a chaos run.  Armed
hooks run in-process; a forked child inherits the armed set, which is
exactly what lets the harness arm a kill and then fork the serve loop
that will die at it.

This module deliberately has no imports from the rest of the repo, so
any layer (core, service) can call into it without cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

#: armed hooks by failpoint name (process-global, fork-inherited)
_ARMED: Dict[str, Callable[..., None]] = {}


def arm(name: str, hook: Callable[..., None]) -> None:
    """Arm *hook* to run at every hit of the failpoint *name*.

    The hook receives the site's keyword context (e.g. the JSONL
    writer's ``path`` and ``payload``) and may do anything — count,
    raise, or ``SIGKILL`` its own process.  Re-arming replaces the
    previous hook.
    """
    _ARMED[name] = hook


def armed(name: str) -> bool:
    """Whether *name* currently has a hook armed."""
    return name in _ARMED


def failpoint(name: str, **context: Any) -> None:
    """Production-side hit site: run the armed hook for *name*, if any.

    Unarmed sites return immediately; they are safe to leave in hot
    paths.  Hooks are invoked synchronously at the exact program point
    of the call, which is what makes kill schedules reproducible.
    """
    hook = _ARMED.get(name)
    if hook is not None:
        hook(**context)
