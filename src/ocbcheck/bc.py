"""Evaluation of plain behavioral constraint models over an ordered event sequence.

No object correlation here: every event of the target activity counts.  This
is the trace-level semantics of behavioral constraints, directly usable for
single-instance (case-based) traces.  The IX conformance check does not call
`evaluate_bc`: it applies the same `ConstraintType.accepts` to counts of
object-correlated target events.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import BcModel, BehavioralConstraint


@dataclass(frozen=True)
class BcVerdict:
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
    trace: Sequence[tuple[str, str]] = list(events)
    totals = Counter(activity for _, activity in trace)
    by_ref: dict[str, list[BehavioralConstraint]] = {}
    for c in bcm.constraints:
        by_ref.setdefault(c.ref_activity, []).append(c)

    verdicts: list[tuple[str, int, BcVerdict]] = []
    prefix: Counter[str] = Counter()
    for position, (event_id, activity) in enumerate(trace):
        for c in by_ref.get(activity, ()):
            target = c.target_activity
            before = prefix[target]
            after = totals[target] - before - (1 if activity == target else 0)
            verdicts.append(
                (
                    c.id,
                    position,
                    BcVerdict(
                        constraint=c.id,
                        ref_event=event_id,
                        before_count=before,
                        after_count=after,
                        satisfied=c.ctype.accepts(before, after),
                    ),
                )
            )
        prefix[activity] += 1
    verdicts.sort(key=lambda item: (item[0], item[1]))
    return [v for _, _, v in verdicts]

