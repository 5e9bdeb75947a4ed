"""Cardinalities (non-empty sets of admissible counts) and count-pair constraint types.

A cardinality is stored as a normalized union of inclusive integer ranges,
possibly unbounded above.  The textual grammar accepted by :func:`parse_cardinality`
is ``N``, ``N..M``, ``N..*`` and ``*``, optionally comma-separated into a union.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# Bounds in cardinality annotations must fit a 32-bit signed integer.
MAX_BOUND = 2**31 - 1

_TERM_RE = re.compile(r"\s*(?:(\*)|(\d+)(?:\.\.(\d+|\*))?)\s*")


class CardinalityError(ValueError):
    """Raised for malformed cardinality text, with the failing position, or
    for bad ranges given to `Cardinality`, without one."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class _CardinalityFields(NamedTuple):
    ranges: tuple[tuple[int, int | None], ...]


class Cardinality(_CardinalityFields):
    """A non-empty set of non-negative integers as disjoint inclusive ranges.

    ``ranges`` is sorted ascending, with gaps between consecutive ranges
    (overlapping or adjacent input ranges are merged on construction).
    ``None`` as an upper bound means unbounded.
    """

    __slots__ = ()

    def __new__(cls, ranges: tuple[tuple[int, int | None], ...]) -> Cardinality:
        if not ranges:
            raise CardinalityError("cardinality must be a non-empty set")
        cleaned: list[tuple[int, int | None]] = []
        for low, high in ranges:
            if low < 0:
                raise CardinalityError(f"negative bound {low}")
            if high is not None and high < low:
                raise CardinalityError(f"empty range {low}..{high}")
            cleaned.append((low, high))
        cleaned.sort(key=lambda r: (r[0], -1 if r[1] is None else r[1]))
        merged: list[tuple[int, int | None]] = [cleaned[0]]
        for low, high in cleaned[1:]:
            plow, phigh = merged[-1]
            if phigh is None or low <= phigh + 1:
                if phigh is not None:
                    merged[-1] = (plow, None if high is None else max(phigh, high))
            else:
                merged.append((low, high))
        return tuple.__new__(cls, (tuple(merged),))

    # `_replace` builds the copy through `_make`, so it normalizes as `__new__` does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def exactly(cls, n: int) -> Cardinality:
        return cls(((n, n),))

    @classmethod
    def at_least(cls, n: int) -> Cardinality:
        return cls(((n, None),))

    @property
    def is_universal(self) -> bool:
        return self.ranges == ((0, None),)

    def __contains__(self, n: int) -> bool:
        # The ranges ascend with gaps between them, so once `n` is below a
        # range's low bound it is in no later range either.
        for low, high in self.ranges:
            if n < low:
                return False
            if high is None or n <= high:
                return True
        return False

    def gap_starts(self, low: int, high: int) -> tuple[int, ...]:
        """The smallest count of each run of non-members within `low..high`
        (with `low <= high`), ascending, read from the ranges."""
        starts = ()
        for rlow, rhigh in self.ranges:
            if low < rlow:
                if high < rlow:
                    return starts + (low,)
                starts += (low,)
            if rhigh is None or high <= rhigh:
                return starts
            if low <= rhigh:
                low = rhigh + 1
        return starts + (low,)

    def minimum(self) -> int:
        return self.ranges[0][0]

    def maximum(self) -> int | None:
        """Largest member, or None when unbounded."""
        return self.ranges[-1][1]

    def is_subset_of(self, other: Cardinality) -> bool:
        # A is within B exactly when A meets B in all of A; equal sets have equal ranges.
        return self.intersect(other) == self

    def intersect(self, other: Cardinality) -> Cardinality | None:
        """Set intersection, or None when empty."""
        out: list[tuple[int, int | None]] = []
        for alow, ahigh in self.ranges:
            for blow, bhigh in other.ranges:
                low = max(alow, blow)
                if ahigh is None:
                    high = bhigh
                elif bhigh is None:
                    high = ahigh
                else:
                    high = min(ahigh, bhigh)
                if high is None or low <= high:
                    out.append((low, high))
        return Cardinality(tuple(out)) if out else None

    def restrict_min(self, n: int) -> Cardinality | None:
        """Members >= n, or None when empty."""
        return self.intersect(Cardinality.at_least(n))

    def render(self) -> str:
        parts = []
        for low, high in self.ranges:
            if low == 0 and high is None:
                parts.append("*")
            elif high is None:
                parts.append(f"{low}..*")
            elif low == high:
                parts.append(str(low))
            else:
                parts.append(f"{low}..{high}")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.render()


def _bound(digits: str, offset: int) -> int:
    # Length first: int() refuses digit strings longer than sys.get_int_max_str_digits().
    significant = digits.lstrip("0") or "0"
    if len(significant) > len(str(MAX_BOUND)):
        raise CardinalityError(f"bound of {len(significant)} digits exceeds 32-bit range", offset)
    value = int(significant)
    if value > MAX_BOUND:
        raise CardinalityError(f"bound {value} exceeds 32-bit range", offset)
    return value


def parse_cardinality(text: str) -> Cardinality:
    """Parse the ``N | N..M | N..* | *`` grammar, with comma-separated unions."""
    ranges: list[tuple[int, int | None]] = []
    offset = 0
    terms = text.split(",")
    for i, term in enumerate(terms):
        match = _TERM_RE.fullmatch(term)
        if match is None or (match.group(1) is None and match.group(2) is None):
            raise CardinalityError(f"expected cardinality term, got {term.strip()!r}", offset)
        if match.group(1):
            ranges.append((0, None))
        else:
            low = _bound(match.group(2), offset)
            upper = match.group(3)
            if upper is None:
                ranges.append((low, low))
            elif upper == "*":
                ranges.append((low, None))
            else:
                high = _bound(upper, offset)
                if high < low:
                    raise CardinalityError(f"range {low}..{high} is empty", offset)
                ranges.append((low, high))
        offset += len(term) + 1
    return Cardinality(tuple(ranges))


ANY = Cardinality(((0, None),))


class _ConstraintTypeFields(NamedTuple):
    before: Cardinality | None = None
    after: Cardinality | None = None
    total: Cardinality | None = None


class ConstraintType(_ConstraintTypeFields):
    """Predicate over (before, after) target-event counts.

    Conjunction of up to three atoms: a bound on the count before the
    reference event, on the count after it, and on their sum.  At least one
    atom must be present.
    """

    __slots__ = ()

    def __new__(cls, before: Cardinality | None = None, after: Cardinality | None = None,
                total: Cardinality | None = None) -> ConstraintType:
        if before is None and after is None and total is None:
            raise ValueError("constraint type needs at least one of before/after/sum")
        return tuple.__new__(cls, (before, after, total))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def accepts(self, before: int, after: int) -> bool:
        if self.before is not None and before not in self.before:
            return False
        if self.after is not None and after not in self.after:
            return False
        if self.total is not None and before + after not in self.total:
            return False
        return True

    def future_fixable(self, before: int, after: int) -> bool:
        """True if some after' >= after would be accepted with this before count:
        the before count is frozen once the reference event has happened, and
        only future target events can still repair a violation.  The smallest
        such after' starts where `after..*`, a range of the after cardinality
        and one of the sum cardinality less `before` overlap, so it is one of
        those starts, and asking `accepts` about each of them decides."""
        starts = [low for low, _ in self.after.ranges] if self.after is not None else []
        starts += [low - before for low, _ in self.total.ranges] if self.total is not None else []
        return any(self.accepts(before, n) for n in (after, *starts) if n >= after)

    def render(self) -> str:
        parts = []
        if self.before is not None:
            parts.append(f"before in {self.before.render()}")
        if self.after is not None:
            parts.append(f"after in {self.after.render()}")
        if self.total is not None:
            parts.append(f"before+after in {self.total.render()}")
        return " and ".join(parts)

    def __str__(self) -> str:
        return self.render()


_ONE = Cardinality.exactly(1)
_ZERO = Cardinality.exactly(0)
_SOME = Cardinality.at_least(1)

TEMPLATES: dict[str, ConstraintType] = {
    "response": ConstraintType(after=_SOME),
    "unary-response": ConstraintType(after=_ONE),
    "non-response": ConstraintType(after=_ZERO),
    "precedence": ConstraintType(before=_SOME),
    "unary-precedence": ConstraintType(before=_ONE),
    "non-precedence": ConstraintType(before=_ZERO),
    "co-existence": ConstraintType(total=_SOME),
    "non-co-existence": ConstraintType(total=_ZERO),
}


def builtin_constraint_type(name: str) -> ConstraintType:
    """Look up one of the eight named templates."""
    try:
        return TEMPLATES[name]
    except KeyError:
        raise ValueError(f"unknown constraint template {name!r}") from None
