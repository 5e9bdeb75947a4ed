"""Violation records shared by the conformance checkers and the report layer."""

from __future__ import annotations

from typing import NamedTuple

KINDS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")
_KIND_ORDER = {kind: i for i, kind in enumerate(KINDS)}

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


class Violation(NamedTuple):
    """One detected conformance problem.

    Only the fields relevant for the kind are populated; the rest keep their
    defaults.  `event`/`seq` name the position where the problem was detected
    (for eventual checks, the final event).  A violation is an immutable
    tuple: copy it with `_replace`, read its fields with `_asdict`.
    """

    kind: str
    event: str = ""
    seq: int = -1
    constraint: str = ""
    obj: str = ""
    activity: str = ""
    cls: str = ""
    rel_type: str = ""
    side: str = ""  # "src" or "tar"
    temporal: str = ""  # "always" or "eventually"
    observed: int | None = None
    expected: str = ""
    before: int | None = None
    after: int | None = None
    detail: str = ""
    severity: str = SEVERITY_ERROR

    def sort_key(self) -> tuple:
        """The report order: by kind, seq, then `row_key` of the other fields."""
        return (_KIND_ORDER[self.kind], self.seq) + row_key(self[3:])

    def downgraded(self) -> Violation:
        return self._replace(severity=SEVERITY_WARNING)


def row_key(row: tuple) -> tuple:
    """`Violation.sort_key` without its kind and seq, for a row of the 13
    fields that follow `kind`, `event` and `seq`: the violations of one kind
    at one event sort by the key of their rows."""
    constraint, obj, activity, cls, rel_type, side, temporal, observed, _, _, _, detail, _ = row
    observed = -1 if observed is None else observed
    return constraint, rel_type, side, temporal, activity, cls, obj, observed, detail


def sort_violations(violations: list[Violation]) -> list[Violation]:
    return sorted(violations, key=Violation.sort_key)
