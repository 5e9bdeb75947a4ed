"""The nine conformance problem types for (model, log) pairs.

Eventual ("some point onwards") requirements are evaluated at the last event
of the finite log, which is equivalent to the suffix-quantified form on a
total finite order.  Logs are treated as complete; callers checking a running
process can downgrade eventual violations to warnings (prefix mode).

Each kind is computed by one function, only when it is selected.  No kind
folds the log again; each reads what the `EventLog` build kept (type V its
missing references, types I, III, VI and VIII its class map of each stretch
between two assertions, type I beside the deltas of the events that change
the object model, `EventLog._changes`) and the objects each event brings in
(`EventLog.introductions`, derived from `_changes`, for III and VII).  Type
I keeps one table of breach rows, checks each count a delta touched once, and
sorts the rows only when the table changed.  Type VII reads each object's
runs of breaching counts from the cardinality's ranges.  Type IX correlates
once per constraint and reference object, through the function
`resolve_targets` also uses, and counts each reference event's targets by two
bisections per correlated object, as `evaluate_bc` counts a trace; an event
on several correlated objects is counted over their composition, once per
distinct set.  Each kind's violations are sorted on their own, except type
I's, which its replay keeps in report order; `KINDS` order then puts the
kinds one after another in report order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache
from itertools import chain, compress, product, repeat, starmap
from operator import add, itemgetter, not_, sub
from typing import Callable, Iterable, Iterator, Mapping

from .eventlog import Event, EventLog, LogError, ObjectModel, Relation
from .model import BehavioralConstraint, OcbcModel, RelationshipType
from .report import _report
from .violations import KINDS, Violation, row_key, sort_violations


def _keeper(rt: RelationshipType, side: str) -> str:
    """The class whose objects keep the count of a side of `rt`: side "src"
    counts the source objects per target-class object, side "tar" the target
    objects per source-class object."""
    return rt.target if side == "src" else rt.source


def _unlinked_activities(model: OcbcModel, log: EventLog) -> set[str]:
    """The activities of the log that some class of its stretches is not
    linked to, a superset of the ones type VI can fire for; an undeclared
    activity has no links."""
    classes = set().union(*(class_of.values() for _, class_of in log._stretches))
    return {a for a in log._by_activity if any(not model.has_link(a, c) for c in classes)}


def _stretch_runs(log: EventLog, positions: list[int]) -> Iterator[tuple[dict[str, str], list[int]]]:
    """Ascending event positions in runs that lie in one stretch each, with
    the stretch's class map (see `EventLog`)."""
    stretches, p = log._stretches, 0
    while p < len(positions):
        k = bisect_right(stretches, positions[p], key=itemgetter(0)) - 1
        q = bisect_left(positions, stretches[k + 1][0], p) if k + 1 < len(stretches) else len(positions)
        yield stretches[k][1], positions[p:q]
        p = q


class _Replay:
    """Type I: the breaches of the object model after every event, in report
    order in `found`.

    The log build already folded and checked the deltas, so the replay visits
    only the events that change the object model (`EventLog._changes`) and
    keeps only the relation set (a re-added relation counts once) and each
    rule's partner counts.  Classes come from the build's stretch maps: a
    relation's endpoints exist at its event, and an object keeps its class
    within a stretch.  An asserting event starts again from its snapshot's own
    class map and relations.

    Each event reports every breach of the current state again.  The replay
    keeps one table, `_bad`, from each breach to its row: the violation's
    fields after kind, event and seq.  A typing or undeclared-type row is set
    when its relation is added and dropped when it is removed; a delta
    collects the partner counts it touches and checks each once, after the
    whole delta, so a breach that opens and closes inside one delta builds no
    row.  The rows are sorted into report order only after an event that left
    the table different, and each run of events that shares them is expanded
    in one product of the events' heads and the rows.
    """

    def __init__(self, model: OcbcModel, log: EventLog):
        self._rel_type = {rt.id: rt for rt in model.clam.rel_types}
        # The rule per side that can breach (its always-cardinality is not `*`): the keeper
        # class, the always-cardinality's verdict per count, its rendering; and the sides each class keeps.
        self._rule: dict[tuple[str, str], tuple[str, Callable[[int], bool], str]] = {}
        self._sides_kept_by: dict[str, list[tuple[str, str]]] = {}
        self._counted: dict[str, list[tuple[str, int]]] = {}  # per type: (side, the keeper's relation field)
        for rt in model.clam.rel_types:
            for side, field in (("tar", 1), ("src", 2)):
                keeper, card = _keeper(rt, side), rt.card(side, "always")
                if not card.is_universal:
                    self._rule[rt.id, side] = (keeper, cache(card.__contains__), card.render())
                    self._sides_kept_by.setdefault(keeper, []).append((rt.id, side))
                    self._counted.setdefault(rt.id, []).append((side, field))
        self._touched: set[tuple[str, str, str]] = set()  # the partner counts the current delta touched
        events, stretches = log.events, iter(log._stretches)
        self._restart(next(stretches)[1], log.init)
        # The rows in report order, the table they were sorted from, and the first event that shares them.
        self._rows, sorted_from, start = (), {}, 0
        self.found: list[Violation] = []
        for index in log._changes:  # event 0 too, for the initial model's breaches
            new_objects, new_relations, removed_relations, snapshot = events[index][5]
            if snapshot is not None:
                self._restart(next(stretches)[1], snapshot)
            else:
                for rel in new_relations:
                    if rel not in self.relations:
                        self._changed(rel, 1)
                for rel in removed_relations:
                    self._changed(rel, -1)
                self._recheck(new_objects)
            if self._bad != sorted_from:
                self.found += _repeated(events[start:index], self._rows)
                self._rows, sorted_from, start = tuple(sorted(self._bad.values(), key=row_key)), dict(self._bad), index
        self.found += _repeated(events[start:], self._rows)

    def _restart(self, class_of: Mapping[str, str], snapshot: ObjectModel) -> None:
        """The breach state of `snapshot`, whose stretch's classes are `class_of`."""
        self.class_of, self.relations = class_of, set()
        self._cnt: dict[tuple[str, str, str], int] = {}
        # The row of each breach: a partner count by (type, side, object), a mistyped endpoint by
        # (type, source, target, side), a relation of an undeclared type by the relation itself.
        self._bad: dict[tuple, tuple] = {}
        for rel in snapshot.relations:
            self._changed(rel, 1)
        self._recheck(snapshot.class_of.items())

    def _recheck(self, objects: Iterable[tuple[str, str]]) -> None:
        """Set or drop the row of each partner count that the delta touched or
        that its new (object, class) pairs keep, once per delta."""
        for obj, cls in objects:  # a new object's counts start at 0, which can breach
            for rt_id, side in self._sides_kept_by.get(cls, ()):
                self._touched.add((rt_id, side, obj))
        for key in self._touched:
            rt_id, side, obj = key
            keeper_class, allows, expected = self._rule[rt_id, side]
            count = self._cnt.get(key, 0)
            if self.class_of.get(obj) == keeper_class and not allows(count):
                self._bad[key] = Violation(
                    "I", rel_type=rt_id, side=side, obj=obj, temporal="always", observed=count, expected=expected
                )[3:]
            else:
                self._bad.pop(key, None)
        self._touched.clear()

    def _changed(self, rel: Relation, step: int) -> None:
        """Add (`step` 1) or remove (-1) a relation: set or drop its typing
        rows, and touch the partner counts it changes."""
        (self.relations.add if step > 0 else self.relations.remove)(rel)
        rt_id, src, tar = rel
        rt = self._rel_type.get(rt_id)
        if rt is None:
            if step > 0:
                self._bad[rel] = Violation(
                    "I", rel_type=rt_id,
                    detail=f"relation ({rt_id},{src},{tar}): relationship type not declared in the class model",
                )[3:]
            else:
                del self._bad[rel]
            return
        for side, field in self._counted.get(rt_id, ()):
            key = (rt_id, side, rel[field])
            self._cnt[key] = self._cnt.get(key, 0) + step
            self._touched.add(key)
        for side, obj, want in (("src", src, rt.source), ("tar", tar, rt.target)):
            if step < 0:
                self._bad.pop((rt_id, src, tar, side), None)
            elif (got := self.class_of[obj]) != want:
                self._bad[rt_id, src, tar, side] = Violation(
                    "I", rel_type=rt_id, side=side, obj=obj, cls=got, expected=want,
                    detail=f"relation ({rt_id},{src},{tar}): {side} endpoint has class {got!r}, expected {want!r}",
                )[3:]


def _repeated(run: tuple[Event, ...], rows: tuple[tuple, ...]) -> Iterator[Violation]:
    """Type I's violations at each event of `run`, all of which share the breach `rows`."""
    heads = zip(repeat("I"), map(itemgetter(0), run), map(itemgetter(1), run)) if rows else ()
    return map(tuple.__new__, repeat(Violation), starmap(add, product(heads, rows)))


def _check_i(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type I: the object model after every event is valid for the class model."""
    return _Replay(model, log).found


def _check_ii(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type II: eventual relationship cardinalities, at the final snapshot."""
    if not log.events:
        return []
    last, final = log.events[-1], log.final_snapshot()
    by_class: dict[str, list[str]] = {}
    for obj, cls in final.class_of.items():
        by_class.setdefault(cls, []).append(obj)
    # The partners per (relationship type, object) on each side, counted at C speed.
    counts = {
        "src": Counter(map(itemgetter(0, 2), final.relations)),
        "tar": Counter(map(itemgetter(0, 1), final.relations)),
    }
    found = []
    for rt in model.clam.rel_types:
        for side in ("src", "tar"):
            card = rt.card(side, "eventually")
            if card.is_universal:
                continue
            expected, allows = card.render(), cache(card.__contains__)  # the verdict per count
            for obj in by_class.get(_keeper(rt, side), ()):
                count = counts[side].get((rt.id, obj), 0)
                if not allows(count):
                    found.append(
                        Violation(
                            kind="II", event=last.id, seq=last.seq, rel_type=rt.id,
                            side=side, obj=obj, temporal="eventually",
                            observed=count, expected=expected,
                        )
                    )
    return found


def _check_iii(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type III: objects never disappear or change class.  Objects disappear
    only at an assertion after event 0: those of the stretch before it that
    the snapshot lacks."""
    events, stretches, found = log.events, log._stretches, []
    for (_, before), (index, _) in zip(stretches, stretches[1:]):
        if index:
            event = events[index]
            gone = before.keys() - event.delta.assert_snapshot.class_of.keys()
            found += [
                Violation(
                    kind="III", event=event.id, seq=event.seq, obj=obj,
                    detail="object disappeared from the object model",
                )
                for obj in gone
            ]
    last_class: dict[str, str] = {}  # survives disappearance, for re-add checks
    for index, introduced in log.introductions():
        event = events[index]
        for obj, cls in introduced:
            previous = last_class.get(obj)
            if previous is not None and previous != cls:
                found.append(
                    Violation(
                        kind="III", event=event.id, seq=event.seq, obj=obj,
                        detail=f"object changed class from {previous!r} to {cls!r}",
                    )
                )
            last_class[obj] = cls
    return found


def _check_iv(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type IV: every event's activity is declared in the behavioral model."""
    declared, events = model.bcm.activities, log.events
    return [
        Violation(kind="IV", event=events[i].id, seq=events[i].seq, activity=activity)
        for activity, positions in log._by_activity.items()
        if activity not in declared
        for i in positions
    ]


def _check_v(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type V: referenced objects exist when the event occurs, as the log
    build found them missing."""
    events = log.events
    return [
        Violation(kind="V", event=events[i].id, seq=events[i].seq, obj=obj)
        for i, obj in log._missing
    ]


def _check_vi(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type VI: the objects an event references that exist have a class
    linked to its activity."""
    events, has_link, missing = log.events, model.has_link, set(log._missing)
    return [
        Violation(kind="VI", event=events[i].id, seq=events[i].seq, obj=obj, activity=activity, cls=cls)
        for activity in _unlinked_activities(model, log)
        for class_of, run in _stretch_runs(log, log._by_activity[activity])
        for i in run
        for obj in events[i].objects
        if (cls := class_of.get(obj)) is not None and not has_link(activity, cls)
        if (i, obj) not in missing
    ]


def _check_vii(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type VII: the right number of events per object, always and eventually,
    counted from the object's first appearance."""
    events = log.events
    if not events:
        return []
    # The first appearance of each object per class.
    first_seen: dict[str, dict[str, int]] = {}
    for index, introduced in log.introductions():
        for obj, cls in introduced:
            first_seen.setdefault(cls, {}).setdefault(obj, index)
    last = events[-1]
    found = []
    for activity, cls, always, eventually, _ in model.links:
        if always.is_universal and eventually.is_universal:
            continue
        # The link's verdict tables, per (start, total) and per final count.
        gap_starts, allows_total = cache(always.gap_starts), cache(eventually.__contains__)
        expected_always, expected_eventually = always.render(), eventually.render()
        positions_of = log._positions.get(activity, {})
        for obj, first in first_seen.get(cls, {}).items():
            positions = positions_of.get(obj, ())
            # The running count is `start` at the object's first appearance and
            # `c` at event `positions[c - 1]`; a run of breaches is one problem.
            start, total = bisect_right(positions, first), len(positions)
            breached = gap_starts(start, total)
            for count in breached:
                event = events[first if count == start else positions[count - 1]]
                found.append(
                    Violation(
                        kind="VII", event=event.id, seq=event.seq, activity=activity, cls=cls,
                        obj=obj, temporal="always", observed=count, expected=expected_always,
                    )
                )
            # An eventual-count breach on an object whose running count
            # already broke the always-cardinality is the same root cause;
            # report one problem per (link, object).
            if not breached and not allows_total(total):
                found.append(
                    Violation(
                        kind="VII", event=last.id, seq=last.seq, activity=activity, cls=cls,
                        obj=obj, temporal="eventually", observed=total, expected=expected_eventually,
                    )
                )
    return found


def _check_viii(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type VIII: each event references the right number of objects per
    class, for the links that bound it."""
    events, missing, found = log.events, set(log._missing), []
    for activity, cls, _, _, card in model.links:
        if card.is_universal:
            continue
        expected, allows = card.render(), cache(card.__contains__)  # the verdict per count
        for class_of, run in _stretch_runs(log, log._by_activity.get(activity, [])):
            for i in run:
                count = 0
                for obj in events[i].objects:
                    if class_of.get(obj) == cls and (i, obj) not in missing:
                        count += 1
                if not allows(count):
                    found.append(
                        Violation(
                            kind="VIII", event=events[i].id, seq=events[i].seq, activity=activity,
                            cls=cls, observed=count, expected=expected,
                        )
                    )
    return found


def _check_ix(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Type IX: behavioral constraints over object-correlated target events,
    counted column-wise: each reference object is correlated once, and each
    of its reference positions counts its targets by two bisections.  A
    reference event correlated through several objects is counted over their
    composition, once per distinct object set; one through none counts (0, 0)."""
    events, found = log.events, []
    for constraint in model.bcm.constraints:
        cid, ref_activity, _, ctype = constraint
        accepts, expected = cache(ctype.accepts), ctype.render()  # the verdict table
        correlate, refs = _correlation(model, log, constraint), log._positions.get(ref_activity, {})
        lists = {o: targets for o in refs if (targets := correlate(o))}
        # One (reference position, target list) pair per correlated object of a reference event.
        columns = list(map(refs.__getitem__, lists))
        at = list(chain.from_iterable(columns))
        of = [targets for targets, column in zip(lists.values(), columns) for _ in column]
        counted = set(at)
        shared = () if len(counted) == len(at) else {p for p, n in Counter(at).items() if n > 1}
        verdicts = map(accepts, map(bisect_left, of, at), map(sub, map(len, of), map(bisect_right, of, at)))
        # Only a failing pair counts again, for its violation.
        failing = [
            (p, bisect_left(targets, p), len(targets) - bisect_right(targets, p))
            for p, targets in compress(zip(at, of), map(not_, verdicts)) if p not in shared
        ]
        compose = cache(lambda objects: _composed([lists[o] for o in objects if o in lists]))
        for p in shared:
            longest, extras = compose(events[p].objects)
            b = bisect_left(longest, p) + bisect_left(extras, p)
            a = len(longest) + len(extras) - bisect_right(longest, p) - bisect_right(extras, p)
            if not accepts(b, a):
                failing.append((p, b, a))
        if not accepts(0, 0):
            failing += [(p, 0, 0) for p in log._by_activity.get(ref_activity, ()) if p not in counted]
        found += [
            Violation(kind="IX", event=events[p].id, seq=events[p].seq, constraint=cid,
                      before=b, after=a, expected=expected)
            for p, b, a in failing
        ]
        del lists, columns, at, of, counted  # before the next constraint builds its own
    return found


def _composed(lists: list[list[int]]) -> tuple[list[int], list[int]]:
    """Two or more ascending target lists as the longest of them and the
    ascending, distinct positions of the others that it lacks: together they
    hold each target event once.  The others' positions are looked up in the
    longest list by bisection while that costs less than one pass over it."""
    longest, others = max(lists, key=len), set()
    others.update(*(targets for targets in lists if targets is not longest))
    if len(others) * len(longest).bit_length() >= len(longest):
        return longest, sorted(others.difference(longest))
    held = map(sub, map(bisect_right, repeat(longest), others), map(bisect_left, repeat(longest), others))
    return longest, sorted(compress(others, map(not_, held)))


_CHECKS = {
    "I": _check_i, "II": _check_ii, "III": _check_iii, "IV": _check_iv, "V": _check_v,
    "VI": _check_vi, "VII": _check_vii, "VIII": _check_viii, "IX": _check_ix,
}


def _correlation(
    model: OcbcModel, log: EventLog, constraint: BehavioralConstraint
) -> Callable[[str], list[int] | None]:
    """The correlation of a constraint, per reference object: a function from
    one object to the ascending, distinct positions of its target events, or
    nothing.  It navigates the final object model.  An object of the scope
    class has the log's own position list; over a scope relationship type,
    an object has the merged lists of its partners in either direction,
    whose neighbour map the log builds once, on first use.
    """
    via, positions = model.scope[constraint.id], log._positions.get(constraint.target_activity, {})
    if via in model.clam.classes:
        class_of = log.final_snapshot().class_of
        return lambda obj: positions.get(obj) if class_of.get(obj) == via else None
    nbr = log._neighbours_via(via)

    def targets(obj: str) -> list[int]:
        lists = [p for partner in nbr.get(obj, ()) if (p := positions.get(partner))]
        return lists[0] if len(lists) == 1 else sorted(set().union(*lists))

    return targets


def _kind_check(kind: str, doc: str) -> Callable[[OcbcModel, EventLog], list[Violation]]:
    """`check_violations` for one kind alone, as `check_type_<kind>`."""
    def check(model: OcbcModel, log: EventLog) -> list[Violation]:
        return check_violations(model, log, (kind,))

    check.__name__ = check.__qualname__ = f"check_type_{kind.lower()}"
    check.__doc__ = doc
    return check


check_type_i = _kind_check("I", "Validity of the object model after every event.")
check_type_ii = _kind_check("II", "Fulfilment: eventual relationship cardinalities, at the final snapshot.")
check_type_iii = _kind_check("III", "Monotonicity: objects never disappear or change class.")
check_type_iv = _kind_check("IV", "Activity existence: every event's activity is declared.")
check_type_v = _kind_check("V", "Object existence: referenced objects exist when the event occurs.")
check_type_vi = _kind_check("VI", "Proper classes: events only reference objects of linked classes.")
check_type_vii = _kind_check("VII", "Right number of events per object, always and eventually.")
check_type_viii = _kind_check("VIII", "Right number of referenced objects per event.")
check_type_ix = _kind_check("IX", "Behavioral constraints over object-correlated target events.")


def resolve_targets(model: OcbcModel, log: EventLog, cid: str, ref_event: str) -> set[str]:
    """Target events of a constraint for one reference event: the union of
    what `_correlation` gives each of the event's own objects, which
    navigates the final snapshot.  The IX check counts the same events, less
    the reference event itself.
    """
    if not model.bcm.has_constraint(cid):
        raise LogError(f"unknown constraint {cid!r}")
    constraint = model.bcm.constraint(cid)
    event = log.event(ref_event)
    if event.activity != constraint.ref_activity:
        raise LogError(
            f"event {ref_event!r} has activity {event.activity!r}, "
            f"expected reference activity {constraint.ref_activity!r}"
        )
    correlate = _correlation(model, log, constraint)
    return {log.events[i].id for obj in event.objects for i in correlate(obj) or ()}


def check_violations(
    model: OcbcModel,
    log: EventLog,
    kinds: tuple[str, ...] | None = None,
    prefix: bool = False,
) -> list[Violation]:
    """All violations of the selected kinds, each kind taken once, in report
    order (`Violation.sort_key`), which no global sort has to restore: each
    kind's list sorted on its own (type I comes in order), one after another
    in `KINDS` order, which is where the order starts.

    In prefix mode, violations that future events could still repair
    (fulfilment, eventual event-count shortfalls, behavioral violations
    fixable by more target events, and every behavioral violation of a
    relationship-scoped constraint) are downgraded to warnings.
    """
    # KINDS.index also refuses an unknown kind.
    selected = KINDS if kinds is None else sorted(set(kinds), key=KINDS.index)
    out: list[Violation] = []
    for kind in selected:
        found = _CHECKS[kind](model, log)
        out += found if kind == "I" else sort_violations(found)
    if prefix:
        out = [_downgrade(model, v) for v in out]
    return out


def _downgrade(model: OcbcModel, violation: Violation) -> Violation:
    if violation.kind == "II":
        return violation.downgraded()
    if violation.kind == "VII" and violation.temporal == "eventually":
        return violation.downgraded()
    if violation.kind == "IX":
        # Correlation navigates the final snapshot.  Later events can add or
        # remove relations of a relationship scope, so neither count is final.
        if model.scope[violation.constraint] not in model.clam.classes:
            return violation.downgraded()
        ctype = model.bcm.constraint(violation.constraint).ctype
        if ctype.future_fixable(violation.before or 0, violation.after or 0):
            return violation.downgraded()
    return violation


def check_all(
    model: OcbcModel,
    log: EventLog,
    kinds: tuple[str, ...] | None = None,
    prefix: bool = False,
):
    """Run all (or the selected) checkers and aggregate into a report, whose
    violations come in report order without a global sort."""
    return _report(tuple(check_violations(model, log, kinds, prefix)), prefix)
