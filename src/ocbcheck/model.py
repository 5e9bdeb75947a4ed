"""Model types: behavioral constraints, class models, and the combined OCBC model."""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .cardinality import ANY, Cardinality, ConstraintType


class BehavioralConstraint(NamedTuple):
    """A directed constraint: counts of target-activity events around each
    reference-activity event must satisfy `ctype`."""

    id: str
    ref_activity: str
    target_activity: str
    ctype: ConstraintType


class BcModel:
    """Activities plus behavioral constraints between them.

    Collections are kept in a canonical order so that structurally equal
    models compare equal regardless of declaration order.
    """

    __slots__ = ("activities", "constraints", "_by_id")

    def __init__(self, activities: frozenset[str], constraints: Iterable[BehavioralConstraint]) -> None:
        self.activities = activities
        self.constraints = tuple(sorted(constraints, key=lambda c: c.id))
        self._by_id = MappingProxyType({c.id: c for c in self.constraints})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.activities == other.activities and self.constraints == other.constraints

    def constraint(self, cid: str) -> BehavioralConstraint:
        return self._by_id[cid]

    def has_constraint(self, cid: str) -> bool:
        return cid in self._by_id


class RelationshipType(NamedTuple):
    """A binary relationship between two classes, with per-side cardinalities.

    `card_src_*` bounds the number of source objects per target object,
    `card_tar_*` the number of target objects per source object.  The
    `always` variant must hold at every snapshot, the `eventually` variant
    from some point onwards.
    """

    id: str
    source: str
    target: str
    card_src_always: Cardinality = ANY
    card_src_eventually: Cardinality = ANY
    card_tar_always: Cardinality = ANY
    card_tar_eventually: Cardinality = ANY

    def card(self, side: str, temporal: str) -> Cardinality:
        return getattr(self, f"card_{side}_{temporal}")


class ClassModel:
    __slots__ = ("classes", "rel_types", "_by_id")

    def __init__(self, classes: frozenset[str], rel_types: Iterable[RelationshipType]) -> None:
        self.classes = classes
        self.rel_types = tuple(sorted(rel_types, key=lambda r: r.id))
        self._by_id = MappingProxyType({r.id: r for r in self.rel_types})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.classes == other.classes and self.rel_types == other.rel_types

    def rel_type(self, rid: str) -> RelationshipType:
        return self._by_id[rid]

    def has_rel_type(self, rid: str) -> bool:
        return rid in self._by_id


class ActivityClassLink(NamedTuple):
    """An edge between an activity and a class it may reference.

    `card_events_always` / `card_events_eventually` bound how many events of
    the activity reference each object of the class (from the moment the
    object exists / at the end).  `card_objects` bounds how many objects of
    the class each event of the activity references.
    """

    activity: str
    cls: str
    card_events_always: Cardinality = ANY
    card_events_eventually: Cardinality = ANY
    card_objects: Cardinality = ANY


class OcbcModel:
    """Behavioral model + class model + activity/class links + constraint scoping.

    `scope` maps each behavioral constraint to the class or relationship type
    through which its reference and target events are correlated.
    """

    __slots__ = ("bcm", "clam", "links", "scope", "_link_keys")

    def __init__(
        self, bcm: BcModel, clam: ClassModel, links: Iterable[ActivityClassLink], scope: Mapping[str, str]
    ) -> None:
        self.bcm, self.clam = bcm, clam
        self.links = tuple(sorted(links, key=lambda l: (l.activity, l.cls)))
        self.scope = MappingProxyType(dict(sorted(scope.items())))
        self._link_keys = frozenset((l.activity, l.cls) for l in self.links)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.bcm, self.clam, self.links, self.scope) == (other.bcm, other.clam, other.links, other.scope)

    def has_link(self, activity: str, cls: str) -> bool:
        return (activity, cls) in self._link_keys

    def links_of_activity(self, activity: str) -> list[ActivityClassLink]:
        return [l for l in self.links if l.activity == activity]


class ModelDefect(NamedTuple):
    """One well-formedness problem of a model. Defects are data, not errors."""

    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def validate_model(model: OcbcModel) -> list[ModelDefect]:
    """Return every well-formedness defect of the model; empty means well-formed.

    Checked: duplicate ids, name clashes across the four universes, dangling
    activity/class references, eventually-cardinalities not contained in the
    always-cardinalities, and constraint scopes that do not connect the
    constraint's activities.
    """
    defects: list[ModelDefect] = []
    bcm, clam = model.bcm, model.clam

    def unique(seen: set, key: object, subject: str, message: str) -> None:
        if key in seen:
            defects.append(ModelDefect("duplicate-id", subject, message))
        seen.add(key)

    def declared(subject: str, role: str, kind: str, name: str) -> None:
        if name not in (bcm.activities if kind == "activity" else clam.classes):
            defects.append(ModelDefect(f"dangling-{kind}", subject, f"{role}{kind} {name!r} is not declared"))

    def within(subject: str, side: str, eventually: Cardinality, always: Cardinality) -> None:
        if not eventually.is_subset_of(always):
            defects.append(ModelDefect(
                "eventually-not-subset", subject,
                f"{side}eventually-cardinality {eventually} is not a subset of always-cardinality {always}",
            ))

    for universe, ids in (("constraint", [c.id for c in bcm.constraints]),
                          ("relationship", [r.id for r in clam.rel_types])):
        seen: set[str] = set()
        for name in ids:
            unique(seen, name, name, f"{universe} id declared more than once")

    universes = [
        ("activity", set(bcm.activities)),
        ("constraint", {c.id for c in bcm.constraints}),
        ("class", set(clam.classes)),
        ("relationship", {r.id for r in clam.rel_types}),
    ]
    for i, (kind_a, names_a) in enumerate(universes):
        for kind_b, names_b in universes[i + 1 :]:
            for name in sorted(names_a & names_b):
                defects.append(
                    ModelDefect(
                        "name-clash", name, f"used as both {kind_a} and {kind_b} id"
                    )
                )

    for c in bcm.constraints:
        declared(c.id, "reference ", "activity", c.ref_activity)
        declared(c.id, "target ", "activity", c.target_activity)

    for r in clam.rel_types:
        declared(r.id, "source ", "class", r.source)
        declared(r.id, "target ", "class", r.target)
        for side in ("src", "tar"):
            within(r.id, f"{side} ", r.card(side, "eventually"), r.card(side, "always"))

    seen_pairs: set[tuple[str, str]] = set()
    for link in model.links:
        pair = f"({link.activity}, {link.cls})"
        unique(seen_pairs, (link.activity, link.cls), pair, "activity/class link declared twice")
        declared(pair, "", "activity", link.activity)
        declared(pair, "", "class", link.cls)
        within(pair, "", link.card_events_eventually, link.card_events_always)

    for cid in sorted(model.scope):
        if not bcm.has_constraint(cid):
            defects.append(
                ModelDefect("dangling-constraint", cid, "scope given for an undeclared constraint")
            )
    for c in bcm.constraints:
        via = model.scope.get(c.id)
        if via is None:
            defects.append(ModelDefect("missing-scope", c.id, "constraint has no class or relationship scope"))
            continue
        if via in clam.classes:
            for act in dict.fromkeys((c.ref_activity, c.target_activity)):  # a self-loop's activity once
                if not model.has_link(act, via):
                    defects.append(
                        ModelDefect(
                            "scope-not-linked",
                            c.id,
                            f"scope class {via!r} has no link to activity {act!r}",
                        )
                    )
        elif clam.has_rel_type(via):
            r = clam.rel_type(via)
            straight = model.has_link(c.ref_activity, r.source) and model.has_link(
                c.target_activity, r.target
            )
            flipped = model.has_link(c.ref_activity, r.target) and model.has_link(
                c.target_activity, r.source
            )
            if not (straight or flipped):
                defects.append(
                    ModelDefect(
                        "scope-not-linked",
                        c.id,
                        f"relationship {via!r} does not connect the classes linked to "
                        f"activities {c.ref_activity!r} and {c.target_activity!r}",
                    )
                )
        else:
            defects.append(
                ModelDefect("dangling-scope", c.id, f"scope {via!r} is neither a class nor a relationship")
            )

    return defects
