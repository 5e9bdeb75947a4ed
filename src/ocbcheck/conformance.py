"""The nine conformance problem types for (model, log) pairs.

Eventual ("some point onwards") requirements are evaluated at the last event
of the finite log, which is equivalent to the suffix-quantified form on a
total finite order.  Logs are treated as complete; callers checking a running
process can downgrade eventual violations to warnings (prefix mode).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Iterable, Mapping

from .cardinality import Cardinality
from .eventlog import Event, EventLog, LogError, Relation
from .model import ActivityClassLink, BehavioralConstraint, OcbcModel, RelationshipType
from .violations import Violation, sort_violations


class _Context:
    """One replay over the log, producing per-event checks and shared indexes.

    Behavioral constraints correlate through `correlation`, which navigates
    the final snapshot; the neighbour map of each relationship-type scope is
    built once, however many reference events use it.  `by_kind` keeps each
    kind's violations in detection order; the public entry points sort.
    """

    def __init__(self, model: OcbcModel, log: EventLog):
        self.model = model
        self.log = log
        self.by_kind: dict[str, list[Violation]] = {k: [] for k in "I II III IV V VI VII VIII IX".split()}
        self.first_seen: dict[tuple[str, str], int] = {}  # (object, class) -> event index
        self.events_by_obj_act: dict[str, dict[str, list[int]]] = {}
        self.events_by_activity: dict[str, list[int]] = {}
        self.final_class: dict[str, str] = {}
        self.final_relations: frozenset[Relation] = frozenset()
        # Type VIII checks only the links that bound the objects per event.
        self._counted_links: dict[str, list[ActivityClassLink]] = {}
        for link in model.links:
            if not link.card_objects.is_universal:
                self._counted_links.setdefault(link.activity, []).append(link)
        self._rts_by_src_class: dict[str, list[RelationshipType]] = {}
        self._rts_by_tar_class: dict[str, list[RelationshipType]] = {}
        for rt in model.clam.rel_types:
            self._rts_by_src_class.setdefault(rt.source, []).append(rt)
            self._rts_by_tar_class.setdefault(rt.target, []).append(rt)
        self._replay()
        self.correlation = _Correlation(
            model, self.final_class, self.final_relations, self.events_by_obj_act
        )
        self._check_fulfilment()
        self._check_events_per_object()
        self._check_behavioral()

    # -- replay with incremental object-model validity tracking ---------------

    def _keeper(self, rt: RelationshipType, side: str) -> tuple[str, Cardinality]:
        # side "src": count of source objects per target-class object;
        # side "tar": count of target objects per source-class object.
        if side == "src":
            return rt.target, rt.card_src_always
        return rt.source, rt.card_tar_always

    def _recheck(self, rt: RelationshipType, side: str, obj: str) -> None:
        keeper_class, card = self._keeper(rt, side)
        key = (rt.id, side, obj)
        if self._class_of.get(obj) == keeper_class and self._cnt.get(key, 0) not in card:
            self._bad_card.add(key)
        else:
            self._bad_card.discard(key)

    def _add_relation(self, rel: Relation) -> None:
        rt = self.model.clam.rel_type(rel[0]) if self.model.clam.has_rel_type(rel[0]) else None
        if rt is None:
            self._unknown_rt.add(rel)
            return
        _, src, tar = rel
        for side, obj in (("tar", src), ("src", tar)):
            key = (rt.id, side, obj)
            self._cnt[key] = self._cnt.get(key, 0) + 1
            self._recheck(rt, side, obj)
        for side, obj, want in (("src", src, rt.source), ("tar", tar, rt.target)):
            got = self._class_of.get(obj)
            if got != want:
                self._bad_type[(rt.id, rel[1], rel[2], side)] = (obj, got or "?", want)

    def _remove_relation(self, rel: Relation) -> None:
        rt = self.model.clam.rel_type(rel[0]) if self.model.clam.has_rel_type(rel[0]) else None
        if rt is None:
            self._unknown_rt.discard(rel)
            return
        _, src, tar = rel
        for side, obj in (("tar", src), ("src", tar)):
            key = (rt.id, side, obj)
            self._cnt[key] = self._cnt.get(key, 0) - 1
            self._recheck(rt, side, obj)
        self._bad_type.pop((rt.id, src, tar, "src"), None)
        self._bad_type.pop((rt.id, src, tar, "tar"), None)

    def _add_object(self, obj: str) -> None:
        cls = self._class_of[obj]
        for rt in self._rts_by_src_class.get(cls, ()):
            self._recheck(rt, "tar", obj)
        for rt in self._rts_by_tar_class.get(cls, ()):
            self._recheck(rt, "src", obj)

    def _rebuild_validity_state(self) -> None:
        self._cnt = {}
        self._bad_card = set()
        self._bad_type = {}
        self._unknown_rt = set()
        for obj in self._class_of:
            self._add_object(obj)
        for rel in self._relations:
            self._add_relation(rel)

    def _replay(self) -> None:
        model, log = self.model, self.log
        self._class_of: dict[str, str] = {}
        self._relations: set[Relation] = set()
        self._cnt: dict[tuple[str, str, str], int] = {}
        self._bad_card: set[tuple[str, str, str]] = set()
        self._bad_type: dict[tuple[str, str, str, str], tuple[str, str, str]] = {}
        self._unknown_rt: set[Relation] = set()
        last_class_seen: dict[str, str] = {}  # survives disappearance, for re-add checks

        for index, event in enumerate(log.events):
            self.events_by_activity.setdefault(event.activity, []).append(index)
            _add_position(self.events_by_obj_act, index, event)

            asserted = event.delta.assert_snapshot
            prev_objects = set(self._class_of) if asserted is not None else None

            if index == 0:
                self._class_of.update(log.init.class_of)
                self._relations.update(log.init.relations)
                for obj in self._class_of:
                    self._add_object(obj)
                for rel in log.init.relations:
                    self._add_relation(rel)
            for obj, cls in event.delta.new_objects:
                self._class_of[obj] = cls
                self._add_object(obj)
            for rel in event.delta.new_relations:
                if rel not in self._relations:
                    self._relations.add(rel)
                    self._add_relation(rel)
            for rel in event.delta.removed_relations:
                self._relations.discard(rel)
                self._remove_relation(rel)
            if asserted is not None:
                self._class_of = dict(asserted.class_of)
                self._relations = set(asserted.relations)
                self._rebuild_validity_state()

            # (object, class) pairs present in the snapshot after this event.
            if asserted is not None or index == 0:
                for obj, cls in self._class_of.items():
                    self.first_seen.setdefault((obj, cls), index)
            else:
                for obj, _ in event.delta.new_objects:
                    self.first_seen.setdefault((obj, self._class_of[obj]), index)

            # Type III: objects must not disappear or change class over time.
            if asserted is not None:
                for obj in sorted(prev_objects - self._class_of.keys()):
                    self.by_kind["III"].append(
                        Violation(
                            kind="III", event=event.id, seq=event.seq, obj=obj,
                            detail="object disappeared from the object model",
                        )
                    )
            changed = (
                self._class_of.items()
                if asserted is not None or index == 0
                else ((o, self._class_of[o]) for o, _ in event.delta.new_objects)
            )
            for obj, cls in changed:
                previous = last_class_seen.get(obj)
                if previous is not None and previous != cls:
                    self.by_kind["III"].append(
                        Violation(
                            kind="III", event=event.id, seq=event.seq, obj=obj,
                            detail=f"object changed class from {previous!r} to {cls!r}",
                        )
                    )
                last_class_seen[obj] = cls

            # Type I: current snapshot must be valid for the class model.
            for rt_id, side, obj in self._bad_card:
                rt = model.clam.rel_type(rt_id)
                self.by_kind["I"].append(
                    Violation(
                        kind="I", event=event.id, seq=event.seq, rel_type=rt_id,
                        side=side, obj=obj, temporal="always",
                        observed=self._cnt.get((rt_id, side, obj), 0),
                        expected=self._keeper(rt, side)[1].render(),
                    )
                )
            for (rt_id, src, tar, side), (obj, got, want) in self._bad_type.items():
                self.by_kind["I"].append(
                    Violation(
                        kind="I", event=event.id, seq=event.seq, rel_type=rt_id,
                        side=side, obj=obj, cls=got, expected=want,
                        detail=f"relation ({rt_id},{src},{tar}): {side} endpoint has class "
                        f"{got!r}, expected {want!r}",
                    )
                )
            for rt_id, src, tar in self._unknown_rt:
                self.by_kind["I"].append(
                    Violation(
                        kind="I", event=event.id, seq=event.seq, rel_type=rt_id,
                        detail=f"relation ({rt_id},{src},{tar}): relationship type "
                        f"not declared in the class model",
                    )
                )

            # Type IV: the event's activity must exist in the behavioral model.
            if event.activity not in model.bcm.activities:
                self.by_kind["IV"].append(
                    Violation(kind="IV", event=event.id, seq=event.seq, activity=event.activity)
                )

            # Types V and VI: referenced objects exist and have a linked class.
            for obj in sorted(event.objects):
                cls = self._class_of.get(obj)
                if cls is None:
                    self.by_kind["V"].append(
                        Violation(kind="V", event=event.id, seq=event.seq, obj=obj)
                    )
                elif not model.has_link(event.activity, cls):
                    self.by_kind["VI"].append(
                        Violation(
                            kind="VI", event=event.id, seq=event.seq, obj=obj,
                            activity=event.activity, cls=cls,
                        )
                    )

            # Type VIII: the event references the right number of objects per class.
            for link in self._counted_links.get(event.activity, ()):
                count = 0
                for obj in event.objects:
                    if self._class_of.get(obj) == link.cls:
                        count += 1
                if count not in link.card_objects:
                    self.by_kind["VIII"].append(
                        Violation(
                            kind="VIII", event=event.id, seq=event.seq,
                            activity=link.activity, cls=link.cls,
                            observed=count, expected=link.card_objects.render(),
                        )
                    )

        if not log.events and log.init.class_of:
            # A log without events still exposes the initial model for queries.
            self._class_of = dict(log.init.class_of)
            self._relations = set(log.init.relations)
        self.final_class = self._class_of
        self.final_relations = frozenset(self._relations)

    # -- eventual checks over the final snapshot ------------------------------

    def _check_fulfilment(self) -> None:
        if not self.log.events:
            return
        last = self.log.events[-1]
        by_class: dict[str, list[str]] = {}
        for obj, cls in self.final_class.items():
            by_class.setdefault(cls, []).append(obj)
        for rt in self.model.clam.rel_types:
            cnt_src: Counter[str] = Counter()
            cnt_tar: Counter[str] = Counter()
            for rel_type, src, tar in self.final_relations:
                if rel_type == rt.id:
                    cnt_tar[src] += 1
                    cnt_src[tar] += 1
            for side, keeper_class, counts in (
                ("src", rt.target, cnt_src),
                ("tar", rt.source, cnt_tar),
            ):
                card = rt.card(side, "eventually")
                if card.is_universal:
                    continue
                for obj in by_class.get(keeper_class, ()):
                    if counts[obj] not in card:
                        self.by_kind["II"].append(
                            Violation(
                                kind="II", event=last.id, seq=last.seq, rel_type=rt.id,
                                side=side, obj=obj, temporal="eventually",
                                observed=counts[obj], expected=card.render(),
                            )
                        )

    def _check_events_per_object(self) -> None:
        if not self.log.events:
            return
        last = self.log.events[-1]
        objects_by_class: dict[str, list[tuple[str, int]]] = {}
        for (obj, cls), index in self.first_seen.items():
            objects_by_class.setdefault(cls, []).append((obj, index))
        for link in self.model.links:
            always, eventually = link.card_events_always, link.card_events_eventually
            if always.is_universal and eventually.is_universal:
                continue
            for obj, first in objects_by_class.get(link.cls, ()):
                positions = self.events_by_obj_act.get(obj, {}).get(link.activity, [])
                breached = False
                if not always.is_universal:
                    base = bisect_right(positions, first)
                    boundaries = [(first, base)]
                    boundaries += [
                        (pos, base + i + 1) for i, pos in enumerate(positions[base:])
                    ]
                    in_run = False
                    for index, count in boundaries:
                        if count in always:
                            in_run = False
                        elif not in_run:
                            in_run = True
                            breached = True
                            event = self.log.events[index]
                            self.by_kind["VII"].append(
                                Violation(
                                    kind="VII", event=event.id, seq=event.seq,
                                    activity=link.activity, cls=link.cls, obj=obj,
                                    temporal="always", observed=count,
                                    expected=always.render(),
                                )
                            )
                # An eventual-count breach on an object whose running count
                # already broke the always-cardinality is the same root cause;
                # report one problem per (link, object).
                if breached or eventually.is_universal:
                    continue
                if len(positions) not in eventually:
                    self.by_kind["VII"].append(
                        Violation(
                            kind="VII", event=last.id, seq=last.seq,
                            activity=link.activity, cls=link.cls, obj=obj,
                            temporal="eventually", observed=len(positions),
                            expected=eventually.render(),
                        )
                    )

    def _check_behavioral(self) -> None:
        for constraint in self.model.bcm.constraints:
            for ref_index in self.events_by_activity.get(constraint.ref_activity, ()):
                event = self.log.events[ref_index]
                lists = self.correlation.target_positions(constraint, event.objects)
                before, after = _count_around(lists, ref_index)
                if not constraint.ctype.accepts(before, after):
                    self.by_kind["IX"].append(
                        Violation(
                            kind="IX", event=event.id, seq=event.seq,
                            constraint=constraint.id, before=before, after=after,
                            expected=constraint.ctype.render(),
                        )
                    )


def _add_position(positions: dict[str, dict[str, list[int]]], index: int, event: Event) -> None:
    """Record the log position of `event` under each object it references and
    its activity; positions are added in log order, so each list ascends."""
    for obj in event.objects:
        positions.setdefault(obj, {}).setdefault(event.activity, []).append(index)


class _Correlation:
    """Correlates reference events with the target events of a constraint.

    Correlation navigates the final object model: objects of the scope class
    that the reference event references, or partners reached from them over
    relations of the scope relationship type in either direction.  The
    neighbour map of a relationship type is built once, on first use.
    """

    def __init__(
        self,
        model: OcbcModel,
        class_of: Mapping[str, str],
        relations: frozenset[Relation],
        positions: dict[str, dict[str, list[int]]],
    ):
        self.model = model
        self.class_of = class_of
        self.relations = relations
        self.positions = positions
        self._neighbours: dict[str, dict[str, set[str]]] = {}

    def _neighbours_via(self, rt_id: str) -> dict[str, set[str]]:
        nbr = self._neighbours.get(rt_id)
        if nbr is None:
            nbr = self._neighbours[rt_id] = {}
            for rel_type, src, tar in self.relations:
                if rel_type == rt_id:
                    nbr.setdefault(src, set()).add(tar)
                    nbr.setdefault(tar, set()).add(src)
        return nbr

    def target_positions(
        self, constraint: BehavioralConstraint, objects: Iterable[str]
    ) -> list[list[int]]:
        """Positions of the target events correlated with a reference event
        over `objects`: one ascending list per correlated object.  A target
        event referencing several correlated objects is in several lists."""
        via = self.model.scope[constraint.id]
        if via in self.model.clam.classes:
            correlated: Iterable[str] = [o for o in objects if self.class_of.get(o) == via]
        else:
            nbr = self._neighbours_via(via)
            correlated = set().union(*(nbr.get(o, ()) for o in objects))
        lists = []
        for obj in correlated:
            positions = self.positions.get(obj, {}).get(constraint.target_activity)
            if positions:
                lists.append(positions)
        return lists


def _count_around(lists: list[list[int]], ref: int) -> tuple[int, int]:
    """Distinct positions in the ascending `lists` strictly before and after `ref`.

    One list is counted by bisection.  Several lists are merged into a set,
    so a target event referencing two correlated objects counts once.
    """
    if len(lists) == 1:
        (only,) = lists
        return bisect_left(only, ref), len(only) - bisect_right(only, ref)
    targets = set().union(*lists)
    return sum(t < ref for t in targets), sum(t > ref for t in targets)


def check_type_i(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Validity of the object model after every event."""
    return sort_violations(_Context(model, log).by_kind["I"])


def check_type_ii(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Fulfilment: eventual relationship cardinalities, at the final snapshot."""
    return sort_violations(_Context(model, log).by_kind["II"])


def check_type_iii(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Monotonicity: objects never disappear or change class."""
    return sort_violations(_Context(model, log).by_kind["III"])


def check_type_iv(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Activity existence: every event's activity is declared."""
    return sort_violations(_Context(model, log).by_kind["IV"])


def check_type_v(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Object existence: referenced objects exist when the event occurs."""
    return sort_violations(_Context(model, log).by_kind["V"])


def check_type_vi(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Proper classes: events only reference objects of linked classes."""
    return sort_violations(_Context(model, log).by_kind["VI"])


def check_type_vii(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Right number of events per object, always and eventually."""
    return sort_violations(_Context(model, log).by_kind["VII"])


def check_type_viii(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Right number of referenced objects per event."""
    return sort_violations(_Context(model, log).by_kind["VIII"])


def check_type_ix(model: OcbcModel, log: EventLog) -> list[Violation]:
    """Behavioral constraints over object-correlated target events."""
    return sort_violations(_Context(model, log).by_kind["IX"])


def resolve_targets(model: OcbcModel, log: EventLog, cid: str, ref_event: str) -> set[str]:
    """Target events of a constraint for one reference event.

    Correlation navigates the final snapshot: shared objects of the scope
    class, or relations of the scope relationship type traversed in either
    direction.  The IX check counts the same events, less the reference
    event itself.
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
    positions: dict[str, dict[str, list[int]]] = {}
    for index, candidate in enumerate(log.events):
        if candidate.activity == constraint.target_activity:
            _add_position(positions, index, candidate)
    final = log.final_snapshot()
    correlation = _Correlation(model, final.class_of, final.relations, positions)
    lists = correlation.target_positions(constraint, event.objects)
    return {log.events[i].id for positions in lists for i in positions}


def _collect(
    model: OcbcModel, log: EventLog, kinds: tuple[str, ...] | None, prefix: bool
) -> list[Violation]:
    """All violations of the selected kinds, unsorted."""
    context = _Context(model, log)
    selected = kinds if kinds is not None else tuple(context.by_kind)
    out: list[Violation] = []
    for kind in selected:
        out.extend(context.by_kind[kind])
    if prefix:
        out = [_downgrade(model, v) for v in out]
    return out


def check_violations(
    model: OcbcModel,
    log: EventLog,
    kinds: tuple[str, ...] | None = None,
    prefix: bool = False,
) -> list[Violation]:
    """All violations of the selected kinds, sorted deterministically.

    In prefix mode, violations that future events could still repair
    (fulfilment, eventual event-count shortfalls, and behavioral violations
    fixable by more target events) are downgraded to warnings.
    """
    return sort_violations(_collect(model, log, kinds, prefix))


def _downgrade(model: OcbcModel, violation: Violation) -> Violation:
    if violation.kind == "II":
        return violation.downgraded()
    if violation.kind == "VII" and violation.temporal == "eventually":
        return violation.downgraded()
    if violation.kind == "IX":
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
    """Run all (or the selected) checkers and aggregate into a report;
    `aggregate` sorts the violations."""
    from .report import aggregate

    return aggregate(_collect(model, log, kinds, prefix), prefix=prefix)
