"""Object-centric event logs: ordered events with object references and
object-model deltas, and the one fold that applies the deltas.

The object model attached to an event is the state *after* the event took
place.  Deltas can add objects and add/remove relations; objects are never
removed, so delta-built logs are monotone by construction.  An event may
instead carry an asserted full snapshot, which replaces the folded state
(the only way a log can exhibit monotonicity violations).  The `EventLog`
build is the one fold; `snapshot_after` and the generator go through it.
The build alone decides whether a referenced object exists at its event: the
load warnings and type V read the missing references it keeps, and types I,
III, VI and VIII the class map of each stretch between two assertions.  It
also keeps the one index of the events that change the object model: type I
reads their deltas again but folds none of them, and `introductions`, which
tells types III and VII the objects each event brings in, is derived from it.
"""

from __future__ import annotations

from collections import ChainMap
from operator import itemgetter
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, NamedTuple

Relation = tuple[str, str, str]  # (relationship type, source object, target object)

# seq values must fit a 64-bit signed integer.
MAX_SEQ = 2**63 - 1


class LogError(ValueError):
    """Raised when a log cannot be built; carries the offending event index (or -1)."""

    def __init__(self, message: str, event_index: int = -1, event_id: str | None = None):
        where = f" (event {event_id!r}, index {event_index})" if event_index >= 0 else ""
        super().__init__(message + where)
        self.event_index = event_index
        self.event_id = event_id


class _ObjectModelFields(NamedTuple):
    class_of: Mapping[str, str]
    relations: frozenset[Relation]


class ObjectModel(_ObjectModelFields):
    """Objects with their classes, and typed relations between them."""

    __slots__ = ()

    def __new__(cls, class_of: Mapping[str, str], relations: Iterable[Relation]) -> ObjectModel:
        class_of, relations = MappingProxyType(dict(class_of)), frozenset(relations)
        dangling = [rel for rel in relations if rel[1] not in class_of or rel[2] not in class_of]
        if dangling:
            # The set iterates in hash order; name the smallest relation.
            rel = min(dangling)
            endpoint = rel[1] if rel[1] not in class_of else rel[2]
            raise LogError(f"relation {rel} references unknown object {endpoint!r}")
        return tuple.__new__(cls, (class_of, relations))

    # `_replace` builds the copy through `_make`, so it checks as `__new__` does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def objects(self) -> frozenset[str]:
        return frozenset(self.class_of)

    def objects_of_class(self, cls: str) -> set[str]:
        return {o for o, c in self.class_of.items() if c == cls}


EMPTY_OBJECT_MODEL = ObjectModel(class_of={}, relations=frozenset())


class _ObjectDeltaFields(NamedTuple):
    new_objects: tuple[tuple[str, str], ...] = ()
    new_relations: tuple[Relation, ...] = ()
    removed_relations: tuple[Relation, ...] = ()
    assert_snapshot: ObjectModel | None = None


class ObjectDelta(_ObjectDeltaFields):
    """Changes applied to the object model by one event.

    Ordering within each list carries no meaning (objects are created before
    relations are touched), so the lists are kept sorted for canonical form.
    """

    __slots__ = ()

    def __new__(
        cls,
        new_objects: Collection[tuple[str, str]] = (),
        new_relations: Collection[Relation] = (),
        removed_relations: Collection[Relation] = (),
        assert_snapshot: ObjectModel | None = None,
    ) -> ObjectDelta:
        lists = _sorted_tuple(new_objects), _sorted_tuple(new_relations), _sorted_tuple(removed_relations)
        return tuple.__new__(cls, (*lists, assert_snapshot))

    _make = classmethod(lambda cls, fields: cls(*fields))


def _sorted_tuple(items: Collection) -> tuple:
    return items if len(items) < 2 and type(items) is tuple else tuple(sorted(items))


EMPTY_DELTA = ObjectDelta()
EMPTY_ATTRS: Mapping[str, str] = MappingProxyType({})


class _EventFields(NamedTuple):
    id: str
    seq: int
    activity: str
    objects: frozenset[str] = frozenset()
    attrs: Mapping[str, str] = EMPTY_ATTRS
    delta: ObjectDelta = EMPTY_DELTA


class Event(_EventFields):
    __slots__ = ()

    def __new__(
        cls,
        id: str,
        seq: int,
        activity: str,
        objects: Iterable[str] = frozenset(),
        attrs: Mapping[str, str] = EMPTY_ATTRS,
        delta: ObjectDelta = EMPTY_DELTA,
    ) -> Event:
        if type(objects) is not frozenset:
            objects = frozenset(objects)
        if attrs is not EMPTY_ATTRS:
            attrs = MappingProxyType(dict(attrs)) if attrs else EMPTY_ATTRS
        if not 1 <= seq <= MAX_SEQ:
            raise LogError(f"seq {seq} outside the 64-bit positive range", event_id=id)
        return tuple.__new__(cls, (id, seq, activity, objects, attrs, delta))

    _make = classmethod(lambda cls, fields: cls(*fields))


class EventLog:
    """Totally ordered events over an evolving object model.

    Construction replays all deltas once: it sorts events by seq, rejects
    the first duplicate seq or id or failing delta in seq order, and keeps
    the (position, object) pair of every event reference to an object that
    does not exist in the snapshot after the event.  Those pairs are the
    only record of a missing reference: `warnings` renders them, and
    conformance checking reports them as object-existence problems (type V).
    The same fold keeps the indexes the checks and queries read: the
    positions of the events that change the object model (`_changes`: event
    0, and each event whose delta is not the shared `EMPTY_DELTA`), the
    positions of each activity's events, and per activity the positions of
    its events that reference each object (both ascending, keyed activity
    first so a check reads one activity's map), the final snapshot, and the
    stretches: a (start position, class map) pair for the initial model and
    for each asserted snapshot, kept when it ends: the snapshot's own map, or
    the fold's dict when the stretch adds objects.  Within a stretch objects
    are only added and keep their class, so an object that an event
    references and that is not missing has its class in the event's map.
    Two logs are equal when their `init` and `events` are.
    """

    __slots__ = ("init", "events", "_missing", "_changes", "_index_of", "_by_activity", "_positions",
                 "_stretches", "_final", "_neighbours")

    def __init__(self, init: ObjectModel = EMPTY_OBJECT_MODEL, events: Iterable[Event] = ()) -> None:
        self.init = init
        self.events = events = tuple(sorted(events, key=itemgetter(1)))  # by seq
        index_of: dict[str, int] = {}
        missing: list[tuple[int, str]] = []
        by_activity: dict[str, list[int]] = {}
        positions: dict[str, dict[str, list[int]]] = {}
        entries: dict[str, tuple[list[int], dict[str, list[int]]]] = {}  # both, per activity
        # The fold: a map is copied only to add to it; an asserting event's additions get a map of their own.
        class_of, relations = init.class_of, set(init.relations)
        changes: list[int] = []
        stretches: list[tuple[int, Mapping[str, str]]] = []
        start, previous_seq = 0, None
        for i, event in enumerate(events):
            eid, seq, activity, objects, _, delta = event
            if seq == previous_seq:  # sorted, so a duplicate follows its twin
                raise LogError(f"duplicate seq {seq}", i, eid)
            previous_seq = seq
            if eid in index_of:
                raise LogError(f"duplicate event id {eid!r}", i, eid)
            index_of[eid] = i
            if delta is not EMPTY_DELTA or not i:
                changes.append(i)
                new_objects, new_relations, removed_relations, snapshot = delta
                if snapshot is not None:  # the stretch before it ends
                    stretches.append((start, class_of))
                    start = i
                if new_objects:
                    if snapshot is not None:  # replaced below, so the additions are only checked
                        class_of = ChainMap({}, class_of)
                    elif type(class_of) is not dict:
                        class_of = dict(class_of)
                    for obj, cls in new_objects:
                        if obj in class_of:
                            raise LogError(f"object {obj!r} already exists", i, eid)
                        class_of[obj] = cls
                for rel in new_relations:
                    if rel[1] not in class_of or rel[2] not in class_of:
                        endpoint = rel[1] if rel[1] not in class_of else rel[2]
                        raise LogError(f"relation {rel} references unknown object {endpoint!r}", i, eid)
                    relations.add(rel)  # re-adding a present relation changes nothing
                for rel in removed_relations:
                    if rel not in relations:
                        raise LogError(f"cannot remove absent relation {rel}", i, eid)
                    relations.remove(rel)
                if snapshot is not None:
                    class_of, relations = snapshot.class_of, set(snapshot.relations)
            entry = entries.get(activity)
            if entry is None:  # the activity's first event
                entry = entries[activity] = ([], {})
                by_activity[activity], positions[activity] = entry
            at_activity, of_object = entry
            at_activity.append(i)
            for obj in objects:
                at = of_object.get(obj)
                if at is None:
                    of_object[obj] = [i]  # one slot: appending to [] reserves four
                else:
                    at.append(i)
            if not class_of.keys() >= objects:
                missing.extend((i, obj) for obj in sorted(objects - class_of.keys()))
        stretches.append((start, class_of))  # and so does the last
        class_of = MappingProxyType(class_of) if type(class_of) is dict else class_of
        self._missing = tuple(missing)
        self._changes = changes
        self._index_of = MappingProxyType(index_of)
        self._by_activity = by_activity
        self._positions = positions
        self._stretches = stretches
        self._final = tuple.__new__(ObjectModel, (class_of, frozenset(relations))) if events else init
        self._neighbours: dict[str, dict[str, set[str]]] = {}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.init == other.init and self.events == other.events

    @property
    def warnings(self) -> tuple[str, ...]:
        """One line per reference to an object missing from its event's
        snapshot, in log order, the objects of one event sorted."""
        events = self.events
        return tuple(
            f"event {events[i].id!r} (seq {events[i].seq}) references object {obj!r} "
            f"that does not exist in its snapshot"
            for i, obj in self._missing
        )

    def __len__(self) -> int:
        return len(self.events)

    def index_of(self, event_id: str) -> int:
        try:
            return self._index_of[event_id]
        except KeyError:
            raise LogError(f"unknown event id {event_id!r}") from None

    def event(self, event_id: str) -> Event:
        return self.events[self.index_of(event_id)]

    def snapshot_after(self, event_id: str) -> ObjectModel:
        """Object model directly after the given event: the final snapshot of the log cut there."""
        return EventLog(self.init, self.events[: self.index_of(event_id) + 1]).final_snapshot()

    def introductions(self) -> list[tuple[int, Iterable[tuple[str, str]]]]:
        """The position of each event that can bring objects into the object
        model, with the (object, class) pairs it brings in: event 0 also
        brings in the initial model, and an asserted snapshot is the whole
        state after its event.  Derived from the build's `_changes` on each call."""
        events, found = self.events, []
        for index in self._changes:
            new_objects, _, _, snapshot = events[index].delta
            if snapshot is not None:
                found.append((index, snapshot.class_of.items()))
            else:
                found.append((index, new_objects if index else [*self.init.class_of.items(), *new_objects]))
        return found

    def final_snapshot(self) -> ObjectModel:
        """Object model after the last event; the initial model for an empty log.
        Kept by construction, sharing the fold's last class map, so O(1)."""
        return self._final

    def _neighbours_via(self, rel_type: str) -> Mapping[str, set[str]]:
        """Partners of each object over the `rel_type` relations of the final
        snapshot, in either direction; built on first use, then kept."""
        nbr = self._neighbours.get(rel_type)
        if nbr is None:
            nbr = self._neighbours[rel_type] = {}
            for rt, src, tar in self._final.relations:
                if rt == rel_type:
                    nbr.setdefault(src, set()).add(tar)
                    nbr.setdefault(tar, set()).add(src)
        return nbr

    def events_of_activity(self, activity: str) -> list[str]:
        return [self.events[i].id for i in self._by_activity.get(activity, ())]
