from __future__ import annotations

import pytest

from ocbcheck import BcModel, ClassModel, OcbcModel, validate_model
from scenarios import constraint, hiring_model, link, order_process_model, rel_type


def test_order_process_model_is_well_formed():
    assert validate_model(order_process_model()) == []


def test_hiring_model_is_well_formed():
    assert validate_model(hiring_model()) == []


@pytest.mark.parametrize("build", [
    lambda m: m.bcm, lambda m: m.clam, lambda m: m,
], ids=["BcModel", "ClassModel", "OcbcModel"])
def test_a_model_type_does_not_equal_another_type(build):
    """`__eq__` leaves any other type to Python, so it compares unequal."""
    value = build(order_process_model())
    assert value.__eq__(object()) is NotImplemented
    assert value != object() and value != (value,) and not value == None  # noqa: E711
    assert value == build(order_process_model())


def test_validation_is_idempotent():
    model = order_process_model()
    assert validate_model(model) == validate_model(model)


def _lines(model):
    """The defects as `validate-model` and the `error:` line print them, in order."""
    return [str(d) for d in validate_model(model)]


def test_rewired_scope_is_rejected():
    model = order_process_model()
    # c5 correlates deliver/wrap through r2; r4 does not connect their classes.
    scope = dict(model.scope)
    scope["c5"] = "r4"
    broken = OcbcModel(model.bcm, model.clam, model.links, scope)
    assert _lines(broken) == [
        "[scope-not-linked] c5: relationship 'r4' does not connect the classes linked to "
        "activities 'deliver items' and 'wrap item'"
    ]


def test_eventually_must_be_subset_of_always():
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"a"}), constraints=()),
        clam=ClassModel(classes=frozenset({"k"}), rel_types=()),
        links=(link("a", "k", always="0", eventually="1..*"),),
        scope={},
    )
    assert _lines(model) == [
        "[eventually-not-subset] (a, k): eventually-cardinality 1..* is not a subset of always-cardinality 0"
    ]


def test_relationship_eventually_subset_checked_per_side():
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"a"}), constraints=()),
        clam=ClassModel(
            classes=frozenset({"k", "m"}),
            rel_types=(rel_type("r", "k", "m", src="0..1", src_ev="2", tar="*", tar_ev="1"),),
        ),
        links=(),
        scope={},
    )
    assert _lines(model) == [
        "[eventually-not-subset] r: src eventually-cardinality 2 is not a subset of always-cardinality 0..1"
    ]


def test_name_clashes_detected():
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"x"}), constraints=(constraint("c", "response", "x", "x"),)),
        clam=ClassModel(classes=frozenset({"x"}), rel_types=()),
        links=(link("x", "x"),),
        scope={"c": "x"},
    )
    assert _lines(model) == ["[name-clash] x: used as both activity and class id"]


def test_dangling_references_detected():
    model = OcbcModel(
        bcm=BcModel(
            activities=frozenset({"a"}),
            constraints=(constraint("c", "response", "a", "b"),),
        ),
        clam=ClassModel(classes=frozenset({"k"}), rel_types=(rel_type("r", "k", "nope"),)),
        links=(link("a", "gone"),),
        scope={"c": "k"},
    )
    assert _lines(model) == [
        "[dangling-activity] c: target activity 'b' is not declared",
        "[dangling-class] r: target class 'nope' is not declared",
        "[dangling-class] (a, gone): class 'gone' is not declared",
        "[scope-not-linked] c: scope class 'k' has no link to activity 'a'",
        "[scope-not-linked] c: scope class 'k' has no link to activity 'b'",
    ]


def test_missing_and_dangling_scope():
    model = OcbcModel(
        bcm=BcModel(
            activities=frozenset({"a", "b"}),
            constraints=(
                constraint("c1", "response", "a", "b"),
                constraint("c2", "response", "a", "b"),
            ),
        ),
        clam=ClassModel(classes=frozenset({"k"}), rel_types=()),
        links=(link("a", "k"), link("b", "k")),
        scope={"c1": "nothing", "c3": "k"},
    )
    assert _lines(model) == [
        "[dangling-constraint] c3: scope given for an undeclared constraint",
        "[dangling-scope] c1: scope 'nothing' is neither a class nor a relationship",
        "[missing-scope] c2: constraint has no class or relationship scope",
    ]


def test_duplicate_ids_detected():
    model = OcbcModel(
        bcm=BcModel(
            activities=frozenset({"a"}),
            constraints=(constraint("c", "response", "a", "a"), constraint("c", "precedence", "a", "a")),
        ),
        clam=ClassModel(classes=frozenset({"k"}), rel_types=(rel_type("r", "k", "k"), rel_type("r", "k", "k"))),
        links=(link("a", "k"), link("a", "k")),
        scope={"c": "k"},
    )
    assert _lines(model) == [
        "[duplicate-id] c: constraint id declared more than once",
        "[duplicate-id] r: relationship id declared more than once",
        "[duplicate-id] (a, k): activity/class link declared twice",
    ]


def test_scope_through_class_requires_both_links():
    model = OcbcModel(
        bcm=BcModel(
            activities=frozenset({"a", "b"}),
            constraints=(constraint("c", "response", "a", "b"),),
        ),
        clam=ClassModel(classes=frozenset({"k"}), rel_types=()),
        links=(link("a", "k"),),
        scope={"c": "k"},
    )
    assert _lines(model) == ["[scope-not-linked] c: scope class 'k' has no link to activity 'b'"]


def test_a_self_loop_unlinked_to_its_scope_class_is_reported_once():
    """A constraint from an activity to itself names that activity once,
    not once as reference and again as target."""
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"a"}), constraints=(constraint("c1", "response", "a", "a"),)),
        clam=ClassModel(classes=frozenset({"C"}), rel_types=()),
        links=(),
        scope={"c1": "C"},
    )
    assert _lines(model) == ["[scope-not-linked] c1: scope class 'C' has no link to activity 'a'"]


def test_every_defect_code_in_one_model_keeps_its_order():
    """Ids, clashes, constraints, relationships, links, scope keys, then
    scopes: one model trips all nine codes, each dangling-name site and
    both eventually-cardinality sites."""
    model = OcbcModel(
        bcm=BcModel(
            activities=frozenset({"a", "b", "x"}),
            constraints=(
                constraint("c1", "response", "a", "b"),
                constraint("c2", "response", "z", "a"),
                constraint("c2", "precedence", "a", "a"),
                constraint("c3", "response", "a", "y"),
            ),
        ),
        clam=ClassModel(classes=frozenset({"k", "x"}), rel_types=(rel_type("r", "p", "q", src="0..1", src_ev="2"),)),
        links=(link("a", "k"), link("a", "k"), link("b", "m", always="1", eventually="0..1"), link("z", "k")),
        scope={"c1": "k", "c2": "nowhere", "c9": "k"},
    )
    assert _lines(model) == [
        "[duplicate-id] c2: constraint id declared more than once",
        "[name-clash] x: used as both activity and class id",
        "[dangling-activity] c2: reference activity 'z' is not declared",
        "[dangling-activity] c3: target activity 'y' is not declared",
        "[dangling-class] r: source class 'p' is not declared",
        "[dangling-class] r: target class 'q' is not declared",
        "[eventually-not-subset] r: src eventually-cardinality 2 is not a subset of always-cardinality 0..1",
        "[duplicate-id] (a, k): activity/class link declared twice",
        "[dangling-class] (b, m): class 'm' is not declared",
        "[eventually-not-subset] (b, m): eventually-cardinality 0..1 is not a subset of always-cardinality 1",
        "[dangling-activity] (z, k): activity 'z' is not declared",
        "[dangling-constraint] c9: scope given for an undeclared constraint",
        "[scope-not-linked] c1: scope class 'k' has no link to activity 'b'",
        "[dangling-scope] c2: scope 'nowhere' is neither a class nor a relationship",
        "[dangling-scope] c2: scope 'nowhere' is neither a class nor a relationship",
        "[missing-scope] c3: constraint has no class or relationship scope",
    ]


def test_scope_through_relationship_accepts_both_orientations():
    def build(ref, target):
        return OcbcModel(
            bcm=BcModel(
                activities=frozenset({"a", "b"}),
                constraints=(constraint("c", "response", ref, target),),
            ),
            clam=ClassModel(classes=frozenset({"k", "m"}), rel_types=(rel_type("r", "k", "m"),)),
            links=(link("a", "k"), link("b", "m")),
            scope={"c": "r"},
        )

    assert validate_model(build("a", "b")) == []  # a on the source class
    assert validate_model(build("b", "a")) == []  # traversed the other way
    with pytest.raises(KeyError):
        build("a", "b").bcm.constraint("zz")


def test_lookups_read_the_kept_indexes():
    """`has_link`, `constraint` and `rel_type` answer from the indexes built
    with the model, not by scanning its tuples: they still answer after the
    tuples are emptied behind the model's back."""
    model = order_process_model()
    link, c, rt = model.links[0], model.bcm.constraints[0], model.clam.rel_types[0]
    object.__setattr__(model, "links", ())
    object.__setattr__(model.bcm, "constraints", ())
    object.__setattr__(model.clam, "rel_types", ())
    assert model.has_link(link.activity, link.cls) and not model.has_link(link.activity, "nope")
    assert model.bcm.constraint(c.id) is c and model.bcm.has_constraint(c.id)
    assert model.clam.rel_type(rt.id) is rt and model.clam.has_rel_type(rt.id)


def test_models_are_equal_by_value():
    """Two models built from the same parts in another order are equal;
    a different scope makes them differ."""
    model = order_process_model()
    shuffled = OcbcModel(
        BcModel(model.bcm.activities, model.bcm.constraints[::-1]),
        ClassModel(model.clam.classes, model.clam.rel_types[::-1]),
        model.links[::-1],
        dict(reversed(model.scope.items())),
    )
    assert shuffled == model and not shuffled != model
    assert OcbcModel(model.bcm, model.clam, model.links, {**model.scope, "c5": "r4"}) != model
