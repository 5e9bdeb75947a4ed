"""Evaluation of plain behavioral constraint models over an ordered event sequence.

No object correlation here: every event of the target activity counts.  This
is the trace-level semantics of behavioral constraints, directly usable for
single-instance (case-based) traces.  Counting is the IX check's: a list
of positions per activity, and two bisections per reference event give the
target events before and after it.  IX does not call `evaluate_bc`; it
counts the same way over object-correlated target positions and applies the
same `ConstraintType.accepts`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

from .model import BcModel


class BcVerdict(NamedTuple):
    constraint: str
    ref_event: str
    before_count: int
    after_count: int
    satisfied: bool


def evaluate_bc(bcm: BcModel, events: Iterable[tuple[str, str]]) -> list[BcVerdict]:
    """Evaluate every constraint at every reference event of an ordered trace.

    `events` is a sequence of (event id, activity) pairs in execution order.
    One verdict is produced per (constraint, reference event) pair; counts
    are strict (the reference event itself is in neither count, even when
    reference and target activities coincide).  Verdicts are ordered by
    (constraint id, position).
    """
    ids: list[str] = []
    positions: dict[str, list[int]] = {}
    for position, (event_id, activity) in enumerate(events):
        ids.append(event_id)
        positions.setdefault(activity, []).append(position)

    verdicts: list[tuple[str, int, BcVerdict]] = []
    for c in bcm.constraints:
        targets = positions.get(c.target_activity, [])
        for position in positions.get(c.ref_activity, ()):
            before, after = bisect_left(targets, position), len(targets) - bisect_right(targets, position)
            verdict = BcVerdict(c.id, ids[position], before, after, c.ctype.accepts(before, after))
            verdicts.append((c.id, position, verdict))
    # Stable: two constraints that share an id keep their model order at one position.
    verdicts.sort(key=lambda item: (item[0], item[1]))
    return [v for _, _, v in verdicts]
