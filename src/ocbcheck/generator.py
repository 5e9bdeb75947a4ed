"""Test-support generation: conforming logs from a model, and single typed
violation injections into a conforming log.

Generation is obligation-driven: creating an object registers the event-count
and relation-count obligations its eventual cardinalities impose, and the
scheduler discharges every obligation before finishing, while never emitting
an event that breaks an always-cardinality.  The strategy is budget-bounded
and covers a documented model family (see `_analyze`); a model found to be
outside it raises `GenerationError`.  Not every such model is found: over
seeds 0-2999 of `tests/scenarios.random_model` at 25 events, 67 of the 280
logs generated fail `check_all` (ROADMAP.md, item 5).

Injection mutates a conforming log and verifies with the checker that a
violation of the requested kind appears at the mutation site; extra cascaded
violations of other kinds are possible and expected for some kinds.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import Iterable, NamedTuple

from .cardinality import Cardinality
from .conformance import _unlinked_activities, check_violations, resolve_targets
from .eventlog import (
    EMPTY_ATTRS, EMPTY_DELTA, MAX_SEQ, Event, EventLog, LogError, ObjectDelta, ObjectModel, Relation
)
from .model import OcbcModel, RelationshipType
from .violations import Violation, known_kind


class GenerationError(RuntimeError):
    """The model is outside the supported family or the budget was exceeded."""


class InjectionError(RuntimeError):
    """No mutation of the requested kind could be verified on this log."""


# -- model analysis ----------------------------------------------------------


def _partner_cards(rt: RelationshipType, my_side: str) -> tuple[Cardinality, Cardinality]:
    """Cards bounding the number of partners per object sitting on `my_side`."""
    other = "tar" if my_side == "src" else "src"
    return rt.card(other, "always"), rt.card(other, "eventually")


def _stepwise_target(always: Cardinality, eventually: Cardinality, what: str) -> int:
    """Smallest admissible final count reachable from 0 one event at a time."""
    target = eventually.minimum()
    gaps = always.gap_starts(0, target)
    if gaps:
        raise GenerationError(
            f"{what}: reaching eventual count {target} passes through {gaps[0]}, "
            f"which the always-cardinality {always} forbids"
        )
    return target


class _RelNeed(NamedTuple):
    rt: RelationshipType
    my_side: str  # side of the rt the owning object occupies
    partner_cls: str
    count: int

    def relation(self, owner: str, partner: str) -> Relation:
        if self.my_side == "src":
            return (self.rt.id, owner, partner)
        return (self.rt.id, partner, owner)


class _ClassPlan:
    __slots__ = ("cls", "creator_activity", "is_child", "flush_rt", "ambient", "children", "eventual", "acts")

    def __init__(self, cls: str) -> None:
        self.cls = cls
        self.creator_activity: str | None = None
        self.is_child = False  # co-created inside a parent's creation delta
        self.flush_rt: str | None = None  # created by absorbing pending partner demand
        self.ambient: list[_RelNeed] = []  # pool partners at creation
        self.children: list[_RelNeed] = []  # co-created partners
        self.eventual: list[_RelNeed] = []  # later flush partners
        self.acts: list[tuple[str, int]] = []  # (activity, count), the creating activity first

    @property
    def poolable(self) -> bool:
        return (
            not self.is_child
            and not self.acts
            and not self.ambient
            and not self.children
            and not self.eventual
        )


def _analyze(model: OcbcModel) -> dict[str, _ClassPlan]:
    plans = {cls: _ClassPlan(cls) for cls in sorted(model.clam.classes)}

    for link in model.links:
        if 0 in link.card_events_always:
            continue
        plan = plans[link.cls]
        if plan.creator_activity is not None:
            raise GenerationError(
                f"class {link.cls!r} has two activities that must coincide with creation"
            )
        if 1 not in link.card_events_always or 1 not in link.card_events_eventually:
            raise GenerationError(
                f"link ({link.activity}, {link.cls}): cardinalities do not admit exactly "
                f"one creating event"
            )
        plan.creator_activity = link.activity

    for c in model.bcm.constraints:
        for atom in (c.ctype.before, c.ctype.after, c.ctype.total):
            if atom is not None and atom.maximum() == 0:
                raise GenerationError(f"constraint {c.id}: forbidding constraint types are unsupported")

    for cls, plan in plans.items():
        if plan.creator_activity is not None:
            plan.acts.append((plan.creator_activity, 1))
        for link in model.links:
            if link.cls != cls or link.activity == plan.creator_activity:
                continue
            target = _stepwise_target(
                link.card_events_always,
                link.card_events_eventually,
                what=f"link ({link.activity}, {cls})",
            )
            if target > 0:
                plan.acts.append((link.activity, target))
        plan.acts = _order_acts(model, cls, plan.acts, plan.creator_activity)

    # Raw relation needs: (owner class, rt, owner side) -> (eventual count, needed at creation).
    raw: dict[str, list[tuple[RelationshipType, str, str, int, bool]]] = {
        cls: [] for cls in model.clam.classes
    }
    needs: set[tuple[str, RelationshipType, bool]] = set()  # (owner class, rt, needed at creation)
    for rt in model.clam.rel_types:
        sides = [("src", rt.target)] if rt.source == rt.target else [("src", rt.target), ("tar", rt.source)]
        for my_side, partner_cls in sides:
            cls = rt.source if my_side == "src" else rt.target
            always, eventually = _partner_cards(rt, my_side)
            count = eventually.minimum()
            at_creation = 0 not in always
            if count > 0 or at_creation:
                raw[cls].append((rt, my_side, partner_cls, max(count, 1 if at_creation else 0), at_creation))
                needs.add((cls, rt, at_creation))

    for cls, plan in plans.items():
        for rt, my_side, partner_cls, count, at_creation in raw[cls]:
            need = _RelNeed(rt, my_side, partner_cls, count)
            partner = plans[partner_cls]
            if at_creation:
                if (partner_cls, rt, False) in needs:
                    # The partners exist already and are waiting for this
                    # object: creation happens by absorbing their demand.
                    if plan.flush_rt is not None and plan.flush_rt != rt.id:
                        raise GenerationError(
                            f"class {cls!r} would need demand-driven creation on two relationships"
                        )
                    plan.flush_rt = rt.id
                elif partner.creator_activity is not None and (partner_cls, rt, True) in needs:
                    # Mutual at-creation need: the creator side owns the group.
                    if plan.creator_activity is not None:
                        raise GenerationError(
                            f"classes {cls!r} and {partner_cls!r} both require creation events "
                            f"but must be created together"
                        )
                    if count != 1:
                        raise GenerationError(
                            f"class {cls!r} needs {count} {partner_cls!r} partners at creation; "
                            f"only one co-creating parent is supported"
                        )
                    plan.is_child = True
                elif partner.creator_activity is not None:
                    raise GenerationError(
                        f"class {cls!r} needs a {partner_cls!r} partner at creation but "
                        f"{partner_cls!r} is created independently"
                    )
                elif partner.acts:
                    # The partner has obligations of its own, so it enters the
                    # log together with this object rather than from a pool.
                    plan.children.append(need)
                else:
                    plan.ambient.append(need)
            else:
                if partner.creator_activity is not None:
                    always, eventually = _partner_cards(rt, my_side)
                    steps = _stepwise_target(always, eventually, what=f"class {cls!r} via {rt.id}")
                    plan.eventual.append(need._replace(count=steps))
                else:
                    plan.ambient.append(need)

    # Co-creation nests one level (parent -> children) only.
    for cls, plan in plans.items():
        for need in plan.children:
            if plans[need.partner_cls].children:
                raise GenerationError(
                    f"class {need.partner_cls!r} is co-created by {cls!r} but has "
                    f"co-created dependents of its own"
                )

    # Demand-driven creation absorbs pending relation needs at creation time;
    # the admissible batch size is judged against one relationship, so all
    # demand reaching a class must arrive on the same one.
    for cls, plan in plans.items():
        for need in plan.eventual:
            partner = plans[need.partner_cls]
            if partner.flush_rt is None:
                partner.flush_rt = need.rt.id
            elif partner.flush_rt != need.rt.id:
                raise GenerationError(
                    f"class {need.partner_cls!r} receives demand-driven creation "
                    f"requests on both {partner.flush_rt!r} and {need.rt.id!r}"
                )

    _verify_reference_cards(model, plans)
    return plans


def _verify_reference_cards(model: OcbcModel, plans: dict[str, _ClassPlan]) -> None:
    """Every emitted event references exactly one object of its subject class;
    all other links of the same activity must tolerate zero references."""
    used = {(activity, cls) for cls, plan in plans.items() for activity, _count in plan.acts}
    for activity, cls in sorted(used):
        for link in model.links_of_activity(activity):
            required = 1 if link.cls == cls else 0
            if required not in link.card_objects:
                raise GenerationError(
                    f"link ({link.activity}, {link.cls}): object cardinality "
                    f"{link.card_objects} does not admit {required} reference(s) "
                    f"on {activity!r} events"
                )


def _order_acts(
    model: OcbcModel, cls: str, acts: list[tuple[str, int]], creator: str | None
) -> list[tuple[str, int]]:
    """Topologically order one object's activity obligations using the
    behavioral constraints whose activities both occur in the list; the
    creating activity, if any, comes before every other."""
    names = [a for a, _ in acts]
    edges = {(creator, a) for a in names if a != creator} if creator is not None else set()
    for c in model.bcm.constraints:
        if c.ref_activity not in names or c.target_activity not in names:
            continue
        if c.ctype.before is not None and 0 not in c.ctype.before:
            edges.add((c.target_activity, c.ref_activity))
        if c.ctype.after is not None and 0 not in c.ctype.after:
            edges.add((c.ref_activity, c.target_activity))
    ordered: list[str] = []
    remaining = list(names)
    while remaining:
        ready = [a for a in remaining if not any(p in remaining for p, q in edges if q == a)]
        if not ready:
            raise GenerationError(f"class {cls!r}: cyclic ordering between activities {remaining}")
        ordered.append(ready[0])
        remaining.remove(ready[0])
    counts = dict(acts)
    return [(a, counts[a]) for a in ordered]


def _pick_count(rng: random.Random, card: Cardinality, at_most: int | None = None) -> int:
    """A small member of the cardinality, >= 1, at most `at_most`.  Callers
    pass a cardinality with a positive member, and an `at_most` no smaller
    than the least of them."""
    feasible = card.restrict_min(1)
    low = feasible.minimum()
    options = [v for v in range(low, low + 3) if v in feasible and (at_most is None or v <= at_most)]
    return rng.choice(options)


# -- generation --------------------------------------------------------------


class _LiveObject:
    __slots__ = ("oid", "plan", "rank", "next_act", "emitted")

    def __init__(self, oid: str, plan: _ClassPlan, rank: int) -> None:
        self.oid, self.plan, self.rank = oid, plan, rank  # rank orders objects by registration
        self.next_act = self.emitted = 0


class _Generator:
    def __init__(self, model: OcbcModel, target_events: int, seed: int):
        self.model = model
        self.target = target_events
        self.rng = random.Random(seed)
        self.plans = _analyze(model)
        self.events: list[Event] = []
        self.counter = 0
        self.pool: dict[str, list[str]] = {}  # the initial model: each plain class's objects
        # Objects with activity obligations left, in registration order.
        self.active: list[_LiveObject] = []
        # Relation demand of objects whose activities are done, keyed by the
        # class whose creation absorbs it, in registration order of the owners.
        self.ready: dict[str, list[list]] = {}  # [live, need, remaining]

    def _fresh(self, cls: str) -> str:
        self.counter += 1
        return f"{cls[:2]}{self.counter}"

    def _ambient(self, cls: str, k: int) -> list[str]:
        """k distinct partners from the shared pool of a plain class."""
        if cls not in self.pool:
            if not self.plans[cls].poolable:
                raise GenerationError(
                    f"class {cls!r} is needed as an ambient partner but has obligations of its own"
                )
            self.pool[cls] = [self._fresh(cls) for _ in range(self.rng.randint(2, 4))]
        pool = self.pool[cls]
        while len(pool) < k:
            pool.append(self._fresh(cls))
        return self.rng.sample(pool, k)

    def _register(self, cls: str) -> _LiveObject:
        """A new `cls` object in `active`.  Every registered class has acts:
        roots are chosen by them (see `run`), `plan.children` holds only
        partners with acts, and a flushed class has its creating activity."""
        live = _LiveObject(self._fresh(cls), self.plans[cls], self.counter)
        for need in live.plan.eventual:
            self.ready.setdefault(need.partner_cls, [])
        self.active.append(live)
        return live

    def _materialize(self, live: _LiveObject) -> tuple[list, list]:
        """New objects/relations for creating `live`: itself, its co-created
        children (recursively), and its ambient relations."""
        new_objects: list[tuple[str, str]] = [(live.oid, live.plan.cls)]
        new_relations: list[Relation] = []
        for need in live.plan.ambient:
            # Pool partners accumulate relations without bound, so their own
            # side of the relationship must be unconstrained.
            partner_side = "tar" if need.my_side == "src" else "src"
            p_always, p_eventually = _partner_cards(need.rt, partner_side)
            if not (p_always.is_universal and p_eventually.is_universal):
                raise GenerationError(
                    f"ambient class {need.partner_cls!r} has a bounded cardinality "
                    f"on its side of {need.rt.id}"
                )
            for partner in self._ambient(need.partner_cls, need.count):
                new_relations.append(need.relation(live.oid, partner))
        for need in live.plan.children:
            always, eventually = _partner_cards(need.rt, need.my_side)
            n = _pick_count(self.rng, eventually if eventually.minimum() > 0 else always)
            for _ in range(n):
                child = self._register(need.partner_cls)
                new_relations.append(need.relation(live.oid, child.oid))
                child_objects, child_relations = self._materialize(child)
                new_objects += child_objects
                new_relations += child_relations
        return new_objects, new_relations

    def _create(self, cls: str, absorbed: Iterable[list] = ()) -> None:
        """Create one `cls` object in the delta of its first obligation event,
        with its co-created children, its ambient relations and a relation to
        the owner of each `absorbed` ready-demand entry."""
        slot = len(self.active)  # where `_register` puts the new object
        live = self._register(cls)
        new_objects, new_relations = self._materialize(live)
        for owner, need, _ in absorbed:
            new_relations.append(need.relation(owner.oid, live.oid))
        if self._act(live, ObjectDelta(new_objects, new_relations)):
            del self.active[slot]

    def _act(self, live: _LiveObject, delta: ObjectDelta = EMPTY_DELTA) -> bool:
        """Emit the next obligation event of `live`; True if it was the last one."""
        activity, count = live.plan.acts[live.next_act]
        seq = len(self.events) + 1
        self.events.append(Event(f"e{seq}", seq, activity, frozenset((live.oid,)), EMPTY_ATTRS, delta))
        live.emitted += 1
        if live.emitted >= count:
            live.next_act += 1
            live.emitted = 0
            if live.next_act == len(live.plan.acts):
                # Its activities are done, so its relation demand is flushable.
                for need in live.plan.eventual:
                    insort(self.ready[need.partner_cls], [live, need, need.count], key=lambda e: e[0].rank)
                return True
        return False

    def _flush(self, cls: str, drain: bool) -> None:
        """Create one `cls` object, absorbing ready demand for it."""
        ready = self.ready[cls]
        rt = self.model.clam.rel_type(self.plans[cls].flush_rt)
        my_side = "src" if rt.source == cls else "tar"
        always, eventually = _partner_cards(rt, my_side)
        admissible = always.intersect(eventually)
        if admissible is None or admissible.restrict_min(1) is None:
            raise GenerationError(f"class {cls!r}: no admissible partner count at creation")
        smallest = admissible.restrict_min(1).minimum()
        if len(ready) < smallest:
            if drain:
                raise GenerationError(
                    f"cannot create a {cls!r}: needs {smallest} pending partner(s), "
                    f"only {len(ready)} are ready"
                )
            return
        m = _pick_count(self.rng, admissible, at_most=len(ready)) if not drain else smallest
        chosen = self.rng.sample(range(len(ready)), m) if not drain else range(m)
        absorbed = []
        # Descending, so each deletion leaves the positions still to visit in place.
        for i in sorted(chosen, reverse=True):
            absorbed.append(ready[i])
            ready[i][2] -= 1
            if not ready[i][2]:
                del ready[i]
        self._create(cls, absorbed)

    def run(self) -> EventLog:
        children = {need.partner_cls for plan in self.plans.values() for need in plan.children}
        # A class with acts that `_analyze` marks `is_child` is in `children`.
        roots = [
            cls for cls, plan in sorted(self.plans.items())
            if plan.acts and cls not in children and plan.flush_rt is None
        ]
        if self.target > 0 and not roots:
            raise GenerationError("model has no startable cluster to generate events from")
        budget = max(self.target * 3 + 64, 256)  # more than the target, so only the drain can exceed it
        while len(self.events) < self.target:
            choices: list[str] = ["start"]
            if self.active:
                choices += ["act", "act"]
            flushables = [cls for cls, entries in self.ready.items() if entries]
            if flushables:
                choices.append("flush")
            action = self.rng.choice(choices)
            if action == "start":
                self._create(self.rng.choice(roots))
            elif action == "act":
                i = self.rng.randrange(len(self.active))
                if self._act(self.active[i]):
                    del self.active[i]
            else:
                self._flush(self.rng.choice(flushables), drain=False)
        # Drain: once no object has activities left, all demand is ready.
        while True:
            if len(self.events) > budget + self.target:
                raise GenerationError("generation budget exceeded while draining obligations")
            if self.active:
                if self._act(self.active[0]):
                    del self.active[0]
            elif any(self.ready.values()):
                self._flush(min(cls for cls, entries in self.ready.items() if entries), drain=True)
            else:
                break
        class_of = {oid: cls for cls, pool in self.pool.items() for oid in pool}
        return EventLog(init=ObjectModel(class_of=class_of, relations=frozenset()), events=tuple(self.events))


def generate_conforming(model: OcbcModel, events: int, seed: int = 0) -> EventLog:
    """Generate a log that passes every conformance check, with at least
    `events` events (obligations opened near the end are still discharged,
    so the log may run slightly longer)."""
    if events < 0:
        raise GenerationError(f"target event count {events} is negative")
    if events > MAX_SEQ:
        raise GenerationError(f"target event count {events} exceeds the largest seq {MAX_SEQ}")
    return _Generator(model, events, seed).run()


# -- violation injection -----------------------------------------------------


class InjectionOutcome(NamedTuple):
    """What the mutation did and where the checker confirmed the violation."""

    kind: str
    description: str
    event: str = ""
    obj: str = ""
    constraint: str = ""

    def matches(self, v: Violation) -> bool:
        return (
            v.kind == self.kind
            and (not self.event or v.event == self.event)
            and (not self.obj or v.obj == self.obj)
            and (not self.constraint or v.constraint == self.constraint)
        )


def _rebuild(init: ObjectModel, events: list[Event]) -> EventLog:
    renumbered = [e._replace(seq=i + 1) for i, e in enumerate(events)]
    return EventLog(init=init, events=tuple(renumbered))


def _without_object(om: ObjectModel, obj: str) -> ObjectModel:
    class_of = {o: c for o, c in om.class_of.items() if o != obj}
    relations = frozenset(r for r in om.relations if obj not in (r[1], r[2]))
    return ObjectModel(class_of=class_of, relations=relations)


def _delete_event(log: EventLog, index: int) -> tuple[ObjectModel, list[Event]] | None:
    """The initial model and events with one event deleted; its delta (if
    any) moves to the previous event or the initial model so that later
    events still replay."""
    events = list(log.events)
    victim = events.pop(index)
    init = log.init
    delta = victim.delta
    if delta.assert_snapshot is not None or index == 0 and delta.removed_relations:
        return None
    if index == 0:
        init = EventLog(init=init, events=(victim,)).final_snapshot()  # the log's own fold
    elif delta != EMPTY_DELTA:
        host = events[index - 1]
        if host.delta.assert_snapshot is not None:
            return None
        # The fold adds before it removes, so a relation the host removes and
        # the victim re-adds must not stay among the merged removals.
        readded = set(delta.new_relations)
        removed = tuple(rel for rel in host.delta.removed_relations if rel not in readded)
        events[index - 1] = host._replace(
            delta=ObjectDelta(
                new_objects=host.delta.new_objects + delta.new_objects,
                new_relations=host.delta.new_relations + delta.new_relations,
                removed_relations=removed + delta.removed_relations,
            ),
        )
    return init, events


def _candidates(model: OcbcModel, log: EventLog, kind: str, rng: random.Random):
    """Yield (initial model, events, probe) candidates for one kind: the
    mutated log's parts, and an outcome that describes the mutation and
    matches the violations that confirm it."""
    events = list(log.events)
    if not events:
        return
    final = log.final_snapshot()
    last = events[-1]
    order = list(range(len(events)))
    rng.shuffle(order)

    def edit(i: int, **changes) -> list[Event]:
        """The events with event `i` changed."""
        mutated = list(events)
        mutated[i] = events[i]._replace(**changes)
        return mutated

    if kind == "I":
        # A relation with a wrongly-classed endpoint breaks snapshot validity.
        rts = list(model.clam.rel_types)  # sorted by id
        rng.shuffle(rts)
        objects = sorted(final.class_of)
        for rt in rts:
            wrong = [o for o in objects if final.class_of[o] != rt.source]
            partners = [o for o in objects if final.class_of[o] == rt.target]
            rng.shuffle(wrong)
            rng.shuffle(partners)
            for bad in wrong[:4]:
                for partner in partners[:4]:
                    delta = last.delta._replace(new_relations=last.delta.new_relations + ((rt.id, bad, partner),))
                    yield log.init, edit(-1, delta=delta), InjectionOutcome(
                        kind,
                        f"added mistyped relation ({rt.id},{bad},{partner}) in the delta of {last.id}",
                        event=last.id, obj=bad,
                    )

    elif kind == "II":
        for i in order:
            delta = events[i].delta
            for rel in delta.new_relations:
                kept = tuple(r for r in delta.new_relations if r != rel)
                yield log.init, edit(i, delta=delta._replace(new_relations=kept)), InjectionOutcome(
                    kind, f"dropped relation {rel} from the delta of {events[i].id}"
                )

    elif kind == "III":
        candidates = sorted(final.class_of)
        rng.shuffle(candidates)
        for obj in candidates[:12]:
            if obj in last.objects:
                continue
            delta = last.delta._replace(assert_snapshot=_without_object(final, obj))
            yield log.init, edit(-1, delta=delta), InjectionOutcome(
                kind, f"asserted a final snapshot from which {obj} disappeared", event=last.id, obj=obj
            )

    elif kind == "IV":
        for i in order:
            yield log.init, edit(i, activity=events[i].activity + "-undeclared"), InjectionOutcome(
                kind, f"renamed the activity of {events[i].id} to an undeclared name", event=events[i].id
            )

    elif kind == "V":
        for i in order:
            yield log.init, edit(i, objects=events[i].objects | {"ghost"}), InjectionOutcome(
                kind, f"made {events[i].id} reference an object that never exists",
                event=events[i].id, obj="ghost",
            )

    elif kind == "VI":
        # An event whose activity every class of the log is linked to has no
        # object to take and would draw nothing from `rng`, so skipping its
        # fold from event 0 changes no output.
        unlinked = _unlinked_activities(model, log)
        for i in order:
            event = events[i]
            if event.activity not in unlinked:
                continue
            snapshot = log.snapshot_after(event.id)
            unrelated = [
                o
                for o, cls in sorted(snapshot.class_of.items())
                if not model.has_link(event.activity, cls) and o not in event.objects
            ]
            rng.shuffle(unrelated)
            for obj in unrelated[:3]:
                yield log.init, edit(i, objects=event.objects | {obj}), InjectionOutcome(
                    kind,
                    f"made {event.id} reference {obj}, whose class is not linked to "
                    f"activity {event.activity!r}",
                    event=event.id, obj=obj,
                )

    elif kind == "VII":
        for i in order:
            event = events[i]
            if event.objects and event.delta == EMPTY_DELTA:
                dup = event._replace(id=f"{event.id}-again")
                yield log.init, events[: i + 1] + [dup] + events[i + 1 :], InjectionOutcome(
                    kind, f"repeated event {event.id} with the same object references", event=dup.id
                )
        for i in order:
            deleted = _delete_event(log, i)
            if deleted is not None:
                yield *deleted, InjectionOutcome(kind, f"deleted event {events[i].id}")

    elif kind == "VIII":
        for i in order:
            event = events[i]
            for link in model.links_of_activity(event.activity):
                cleared = frozenset(o for o in event.objects if final.class_of.get(o) != link.cls)
                if cleared != event.objects:
                    yield log.init, edit(i, objects=cleared), InjectionOutcome(
                        kind, f"removed every {link.cls!r} reference from {event.id}", event=event.id
                    )

    elif kind == "IX":
        constraints = list(model.bcm.constraints)
        rng.shuffle(constraints)
        for c in constraints:
            ref_ids = log.events_of_activity(c.ref_activity)
            rng.shuffle(ref_ids)
            for ref_id in ref_ids:
                targets = sorted(resolve_targets(model, log, c.id, ref_id))
                ref_index = log.index_of(ref_id)
                for target_id in targets:
                    moved_index = log.index_of(target_id)
                    if moved_index == ref_index:
                        continue
                    mutated = list(events)
                    moved = mutated.pop(moved_index)
                    if moved.delta != EMPTY_DELTA:
                        continue
                    mutated.insert(ref_index, moved)  # lands on the other side of the reference
                    yield log.init, mutated, InjectionOutcome(
                        kind,
                        f"moved target event {target_id} across reference event {ref_id} "
                        f"of constraint {c.id}",
                        event=ref_id, constraint=c.id,
                    )
                for target_id in targets:
                    deleted = _delete_event(log, log.index_of(target_id))
                    if deleted is not None:
                        yield *deleted, InjectionOutcome(
                            kind, f"deleted target event {target_id} of constraint {c.id}", constraint=c.id
                        )


def inject_violation(
    model: OcbcModel, log: EventLog, kind: str, seed: int = 0
) -> tuple[EventLog, InjectionOutcome]:
    """Mutate a conforming log so the checker reports the requested kind.

    A candidate mutation that no longer replays is skipped.  The returned
    outcome names the confirmed violation site.  Cascaded violations of
    other kinds may accompany the injected one (for example, dropping a
    relation for a fulfilment breach also starves behavioral constraints
    scoped through that relationship).  An unknown kind is a `ValueError`.
    """
    rng = random.Random(seed)
    for init, events, probe in _candidates(model, log, known_kind(kind), rng):
        try:
            mutated = _rebuild(init, events)
            found = check_violations(model, mutated, kinds=(kind,))
        except LogError:
            continue
        for v in found:
            if probe.matches(v):
                return mutated, probe._replace(event=v.event, obj=v.obj, constraint=v.constraint)
    raise InjectionError(f"no verified mutation of kind {kind} for this model/log")
