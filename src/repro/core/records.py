"""What the fault and Monte-Carlo campaigns share about their records.

Every campaign record carries an ``outcome`` (``ok``, the supervisor's
``timeout`` / ``quarantined``, or the numerics' ``unsolvable``) and an
``errors`` list of ``(tier, detail)`` pairs.  :func:`call_tier` is the
one triage of a tier call that raises, and :class:`ResultEnvelope` the
one artifact layer (format/version check, JSON, save/load), outcome
accounting and abnormal-outcome wording of a campaign result.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..analog.solver import SolverError
from .supervisor import OUTCOME_OK, OUTCOME_UNSOLVABLE

#: artifact / checkpoint schema version of both campaigns
ARTIFACT_VERSION = 1


def call_tier(record: Any, tier: str, call: Callable[..., Any],
              *args: Any) -> Any:
    """``call(*args)``, or False once its raise is triaged onto *record*.

    A :class:`~repro.analog.solver.SolverError` means the analog
    engine's resilience ladder rejected the circuit's linear systems, so
    the record settles as ``unsolvable``; any other exception is a tier
    bug.  Either way the error lands on ``record.errors`` and the tier
    counts as not passed: a broken test never inflates coverage.
    """
    try:
        return call(*args)
    except SolverError as exc:
        record.outcome = OUTCOME_UNSOLVABLE
        record.errors.append((tier, repr(exc)))
    except Exception as exc:  # noqa: BLE001 - keep the campaign alive
        record.errors.append((tier, repr(exc)))
    return False


class ResultEnvelope:
    """Artifact layer and outcome accounting of a campaign result.

    A subclass holds ``records`` and sets ``FORMAT`` (the artifact's
    format tag), ``KIND`` (its name in a refusal), ``NOUN`` (what one
    record is) and ``COUNTED`` (how the accounting treats an unevaluated
    record), and implements ``fields()`` and the classmethod
    ``from_fields(data)``: the document below the format and version
    tags, out and back.
    """

    FORMAT = KIND = NOUN = COUNTED = ""
    records: List[Any]

    @property
    def total(self) -> int:
        return len(self.records)

    def outcome_counts(self) -> Dict[str, int]:
        """How many records settled per outcome (``ok`` / ``timeout`` /
        ``quarantined`` / ``unsolvable``)."""
        counts: Dict[str, int] = {}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    def unevaluated(self) -> List[Any]:
        """Records that did not get a full, numerically clean evaluation
        (timed out, quarantined, or unsolvable).  What they did not
        reach counts against them in every number -- explicit
        conservatism, never silent loss."""
        return [r for r in self.records if r.outcome != OUTCOME_OK]

    def outcome_lines(self) -> List[str]:
        """The report lines naming abnormal outcomes: numerics failures
        (unsolvable) apart from supervisor ones (timeout, quarantined)."""
        counts = self.outcome_counts()
        lines = []
        if counts.get(OUTCOME_UNSOLVABLE):
            lines.append(f"  numerics: {counts[OUTCOME_UNSOLVABLE]} "
                         f"{self.NOUN}(s) unsolvable (resilience ladder "
                         f"exhausted) — {self.COUNTED}")
        abnormal = sorted((k, v) for k, v in counts.items()
                          if k not in (OUTCOME_OK, OUTCOME_UNSOLVABLE))
        if abnormal:
            body = ", ".join(f"{v} {self.NOUN}(s) {k}" for k, v in abnormal)
            lines.append(f"  supervisor: {body} — {self.COUNTED}")
        return lines

    # -- artifact layer ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"format": self.FORMAT, "version": ARTIFACT_VERSION,
                **self.fields()}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultEnvelope":
        if data.get("format") != cls.FORMAT:
            raise ValueError(f"not a {cls.KIND} result artifact: "
                             f"{data.get('format')!r}")
        if data.get("version") != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported artifact version {data.get('version')!r}")
        return cls.from_fields(data)

    @classmethod
    def from_json(cls, text: str) -> "ResultEnvelope":
        return cls.from_dict(json.loads(text))

    def save(self, path: str, indent: Optional[int] = 2) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=indent))

    @classmethod
    def load(cls, path: str) -> "ResultEnvelope":
        with open(path) as fh:
            return cls.from_json(fh.read())
