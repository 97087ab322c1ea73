"""Durable JSONL: the appender, the checkpoint type and the event reader.

Campaign checkpoints and the supervisor's :class:`RunTrace` share one
file shape: one JSON object per line, appended and flushed as it is
produced, so an interrupted run leaves a complete prefix behind.
``flush()`` alone only hands the line to the kernel's page cache —
enough to survive the *process* dying (SIGKILL, a crashed worker), but
not the *machine* (power loss, a hard reset) — so records already
acknowledged to a progress callback could still vanish.
:class:`DurableJsonlWriter` adds the missing ``os.fsync``: once on
close, and once every :data:`FSYNC_EVERY_LINES` appended lines,
bounding the window of acknowledged-but-not-durable records without
paying a disk barrier per line.

:class:`JsonlCheckpoint` reads such files strictly (the durable-record
policy of the fault, Monte-Carlo and service paths); :func:`read_events`
reads them tolerantly, for readers racing a live writer.

**Tail policy.**  An interrupted run leaves whole lines plus at most a
torn tail: the bytes after the last newline.  A line counts only once
its newline is on disk, so a record that lost just its ``\n`` is torn
too, and no append ever starts on an unterminated line:
:meth:`JsonlCheckpoint.load` truncates the torn tail (the one place
that does), and :class:`DurableJsonlWriter` ends a torn line before its
first append.
"""

from __future__ import annotations

import json
import os
from typing import (Any, Callable, Dict, Hashable, IO, Iterable, List,
                    Mapping, Optional, Sequence, Tuple)

from .failpoints import failpoint

#: lines between durability barriers; every K-th ``write_line`` also
#: fsyncs, so at most K-1 acknowledged lines are exposed to power loss
FSYNC_EVERY_LINES = 16

#: what a record decoder may raise on a line that is not a record
_NOT_A_RECORD = (ValueError, KeyError, TypeError, AttributeError,
                 RecursionError)
#: a header field one side lacks
_ABSENT = object()


class DurableJsonlWriter:
    """Append-only JSONL stream with flush-per-line and periodic fsync.

    A context manager so interrupted runs still close (and fsync) the
    stream deterministically.  Every line is written in a single
    ``write`` + ``flush``, so the file never holds a half-written
    record beyond the last flushed line; every ``fsync_every``-th line
    (and the close) additionally forces the stream to stable storage.
    A file that ends in a torn line gets its newline first, so the
    first appended line starts on a line of its own.
    """

    def __init__(self, path: str,
                 fsync_every: int = FSYNC_EVERY_LINES):
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = path
        self._fsync_every = fsync_every
        self._since_sync = 0
        self._fh: Optional[IO[bytes]] = open(path, "a+b")
        size = self._fh.seek(0, os.SEEK_END)
        if size:
            self._fh.seek(size - 1)
            if self._fh.read(1) != b"\n":
                self._fh.write(b"\n")

    @property
    def fresh(self) -> bool:
        """True when the stream opened onto an empty (or new) file —
        the caller should write its header line."""
        return self._fh is not None and self._fh.tell() == 0

    def write_line(self, payload: Mapping[str, Any]) -> None:
        # chaos seams: the harness kills the process here to prove an
        # interrupted run leaves either a complete line or a torn tail
        failpoint("jsonl.pre_line", path=self.path, payload=payload)
        self._fh.write((json.dumps(payload) + "\n").encode())
        self._fh.flush()
        self._since_sync += 1
        if self._since_sync >= self._fsync_every:
            self._sync()
        failpoint("jsonl.post_line", path=self.path, payload=payload)

    def _sync(self) -> None:
        os.fsync(self._fh.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if self._fh is not None:
            if self._since_sync:
                self._sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "DurableJsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonlCheckpoint:
    """A resumable record file: one header line, then one record a line.

    Built from the *header* dict a run writes, a *decode* function
    (JSON object -> record) and a *key* function (record -> item key);
    records must compare by value.  :meth:`load` refuses a header that
    differs from this one, naming the first differing field; it
    truncates a torn tail and drops a bad final line, but refuses a bad
    line with more content after it (resuming past it would discard
    the later records and re-append them as duplicates) and two lines
    with one key and different records.
    """

    def __init__(self, header: Mapping[str, Any],
                 decode: Callable[[Dict[str, Any]], Any],
                 key: Callable[[Any], Hashable]):
        line = json.dumps(dict(header))
        self._header_line = (line + "\n").encode()
        # as it reads back: tuples become lists
        self.header: Dict[str, Any] = json.loads(line)
        self.decode = decode
        self.key = key

    def resume(self, path: str) -> Tuple[Dict[Hashable, Any],
                                         DurableJsonlWriter]:
        """The records already at *path*, and an append stream on it."""
        records = self.load(path)
        out = DurableJsonlWriter(path)
        if out.fresh:
            out.write_line(self.header)
        return records, out

    def load(self, path: str) -> Dict[Hashable, Any]:
        """Records a previous (possibly interrupted) run left at *path*,
        by key.  A missing file, an empty one, or one holding only part
        of the expected header line has none.  A foreign header or
        mid-file corruption raises ``ValueError``; no content raises
        anything else.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return {}
        *whole, tail = data.split(b"\n")
        if not whole and not self._header_line.startswith(tail):
            self._check_header(path, tail)
        records: Dict[Hashable, Any] = {}
        kept = 0                        # bytes of the whole lines kept
        for line in whole:
            if not kept:
                self._check_header(path, line)
            elif line.strip():
                decoded = self._decode(line)
                if decoded is None:
                    if data[kept + len(line) + 1:].strip():
                        raise ValueError(
                            f"{path}: corrupted checkpoint record at byte "
                            f"{kept} with valid records after it; "
                            "refusing to resume (repair or delete the "
                            "file)")
                    break
                key, record = decoded
                if records.setdefault(key, record) != record:
                    raise ValueError(
                        f"{path}: two records for item {key!r} disagree "
                        f"(the second at byte {kept}); refusing to resume "
                        "(repair or delete the file)")
            kept += len(line) + 1
        if kept < len(data):
            os.truncate(path, kept)
        return records

    def merge(self, paths: Iterable[str],
              keys: Sequence[Hashable]) -> List[Any]:
        """One record per key of *keys*, in that order, from shard
        files each loaded like a resume."""
        merged: Dict[Hashable, Any] = {}
        for path in paths:
            for key, record in self.load(path).items():
                if merged.setdefault(key, record) != record:
                    raise ValueError(
                        f"{path}: record for item {key!r} diverges from "
                        "an earlier shard's; refusing to merge")
        missing = [key for key in keys if key not in merged]
        if missing:
            raise ValueError(
                f"shard checkpoints cover {len(merged)} item(s) but "
                f"{len(keys)} are expected; first missing: "
                f"{missing[0]!r}")
        return [merged[key] for key in keys]

    # ------------------------------------------------------------------
    def _check_header(self, path: str, line: bytes) -> None:
        try:
            got = json.loads(line)
        except (ValueError, RecursionError):
            got = None
        kind = self.header.get("format")
        if not isinstance(got, dict) or got.get("format") != kind:
            raise ValueError(f"{path}: not a {kind} file")
        diff = _first_difference(self.header, got)
        if diff is not None:
            name, want, have = diff
            raise ValueError(
                f"{path}: checkpoint header field {name!r} is {have}, "
                f"this run expects {want}; refusing to mix records of "
                "different runs (delete the file or rerun with the "
                "settings that wrote it)")

    def _decode(self, line: bytes) -> Optional[Tuple[Hashable, Any]]:
        """``(key, record)`` of a record line, None for anything else."""
        try:
            payload = json.loads(line)
            if isinstance(payload, dict):
                record = self.decode(payload)
                return self.key(record), record
        except _NOT_A_RECORD:
            pass
        return None


def _first_difference(want: Mapping[str, Any], got: Mapping[str, Any],
                      prefix: str = "") -> Optional[Tuple[str, str, str]]:
    """``(dotted field, expected, found)`` of the first field where two
    headers differ (nested dicts compared field by field), or None."""
    for name in [*want, *(k for k in got if k not in want)]:
        a, b = want.get(name, _ABSENT), got.get(name, _ABSENT)
        if isinstance(a, dict) and isinstance(b, dict):
            diff = _first_difference(a, b, f"{prefix}{name}.")
            if diff is not None:
                return diff
        elif a != b:
            return f"{prefix}{name}", _show(a), _show(b)
    return None


def _show(value: Any) -> str:
    return "absent" if value is _ABSENT else repr(value)


def read_events(path: str) -> List[Dict[str, Any]]:
    """Every JSON-object line of *path*, in file order.

    Never raises: the file may be missing, mid-write, torn at any byte
    or garbage.  Undecodable bytes, unparsable lines and lines holding
    anything but an object are skipped.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8", "replace")
    except OSError:
        return []
    events = []
    for line in text.split("\n"):
        try:
            event = json.loads(line)
        except (ValueError, RecursionError):
            continue
        if isinstance(event, dict):
            events.append(event)
    return events
