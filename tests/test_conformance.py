from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import ChainMap
from pathlib import Path

import pytest

from ocbcheck import (
    KINDS,
    aggregate,
    BcModel,
    ClassModel,
    EventLog,
    LogError,
    ObjectModel,
    OcbcModel,
    check_all,
    check_type_i,
    check_type_ii,
    check_type_iii,
    check_type_iv,
    check_type_v,
    check_type_vi,
    check_type_vii,
    check_type_viii,
    check_type_ix,
    check_violations,
    generate_conforming,
    load_log,
    load_model,
    resolve_targets,
    save_report,
)
from ocbcheck import conformance, eventlog
from ocbcheck.cardinality import MAX_BOUND, Cardinality, ConstraintType
from ocbcheck.violations import Violation, sort_violations
from oracle import fold_snapshots, naive_check
from scenarios import (
    constraint,
    customer_pairs_log,
    desk_model,
    desk_pairs_log,
    desk_trios_log,
    event,
    fan_in_family,
    fan_in_model,
    hiring_log,
    hiring_model,
    hub_order_log,
    link,
    named_and_random_pairs,
    order_object_model,
    order_class_snapshot_model,
    order_process_log,
    order_process_model,
    persistent_breach_log,
    precedence_log,
    precedence_model,
    random_log,
    random_model,
    rel_type,
    relationship_hub_log,
    relink_log,
    relink_model,
    throughput_model,
    ticket_log,
    ticket_model,
)

TESTS = Path(__file__).resolve().parent
DEMO = TESTS.parent / "demo"


# -- Type I: validity of every snapshot ---------------------------------------


def test_valid_population_has_no_validity_violations():
    model = order_class_snapshot_model()
    _, log = order_object_model()
    assert check_type_i(model, log) == []


def test_removing_an_order_relation_breaks_validity():
    model = order_class_snapshot_model()
    _, log = order_object_model(drop_relation=("r1", "o1", "ol1"))
    violations = check_type_i(model, log)
    assert len(violations) == 1
    v = violations[0]
    assert (v.rel_type, v.side, v.obj, v.observed, v.expected) == ("r1", "src", "ol1", 0, "1")


def test_adding_a_second_order_relation_breaks_validity():
    model = order_class_snapshot_model()
    _, log = order_object_model(add_relation=("r1", "o2", "ol1"))
    violations = check_type_i(model, log)
    assert len(violations) == 1
    v = violations[0]
    assert (v.rel_type, v.side, v.obj, v.observed) == ("r1", "src", "ol1", 2)


def test_mistyped_relation_endpoint_reported():
    model = order_class_snapshot_model()
    _, log = order_object_model(add_relation=("r3", "d1", "p1"))
    violations = check_type_i(model, log)
    assert [v.obj for v in violations] == ["d1"]
    assert violations[0].cls == "delivery"
    assert violations[0].expected == "order line"


def test_breach_is_reported_at_every_snapshot_where_it_holds():
    model = order_class_snapshot_model()
    base, _ = order_object_model()
    first = event("e1", 1, "record", new_objects=sorted(base.class_of.items()),
                  new_relations=sorted(base.relations - {("r1", "o1", "ol1")}))
    second = event("e2", 2, "record", new_relations=[("r1", "o1", "ol1")])
    log = EventLog(events=(first, second))
    violations = check_type_i(model, log)
    assert [(v.event, v.obj) for v in violations] == [("e1", "ol1")]


def _breach_cases():
    """Logs over `desk_model`, each with its type I (event, object, observed)
    triples and the number of times the replay sorts its type I rows."""
    desks = {"d1": "desk", "d2": "desk", "d3": "desk"}
    t1 = ObjectModel(class_of={"t1": "ticket", **desks}, relations=frozenset())
    seated = ObjectModel(class_of=t1.class_of, relations=frozenset({("at", "t1", "d1")}))
    both = ObjectModel(class_of={**t1.class_of, "t2": "ticket"}, relations=seated.relations)
    two_seated = ObjectModel(class_of=both.class_of, relations=frozenset({("at", "t1", "d1"), ("at", "t2", "d1")}))
    odd = [("at", "t1", "t2"), ("nope", "t2", "d1")]
    return {
        "a breach whose count changes while it stays bad": (
            EventLog(init=t1, events=(
                event("e1", 1, "note", {"t1"}),
                event("e2", 2, "open", {"t1"}, new_relations=[("at", "t1", "d1"), ("at", "t1", "d2")]),
                event("e3", 3, "open", {"t1"}, new_relations=[("at", "t1", "d3")]),
                event("e4", 4, "note", {"t1"}),
                event("e5", 5, "note", {"t1"}, removed_relations=[("at", "t1", "d2"), ("at", "t1", "d3")]),
                event("e6", 6, "note", {"t1"}),
            )),
            [("e1", "t1", 0), ("e2", "t1", 2), ("e3", "t1", 3), ("e4", "t1", 3)],
            4,
        ),
        "a breach opened and mended inside one delta": (
            EventLog(init=ObjectModel(class_of=desks, relations=frozenset()), events=tuple(
                event(f"e{i}", i, "open", {f"t{i}"}, new_objects=[(f"t{i}", "ticket")],
                      new_relations=[("at", f"t{i}", "d1")])
                for i in (1, 2, 3)
            )),
            [],
            0,
        ),
        "asserted snapshots that clear and add breaches": (
            EventLog(init=t1, events=(
                event("e1", 1, "note", {"t1"}),
                event("e2", 2, "note", {"t1"}, assert_snapshot=seated),
                event("e3", 3, "note", {"t1"}),
                event("e4", 4, "open", {"t2"}, assert_snapshot=both),
                event("e5", 5, "note", {"t2"}),
            )),
            [("e1", "t1", 0), ("e4", "t2", 0), ("e5", "t2", 0)],
            3,
        ),
        "typing and undeclared-type breaches that removed relations end": (
            EventLog(init=two_seated, events=(
                event("e1", 1, "note", {"t1"}),
                event("e2", 2, "open", {"t1"}, new_relations=odd),
                event("e3", 3, "note", {"t1"}),
                event("e4", 4, "note", {"t1"}, removed_relations=odd),
                event("e5", 5, "note", {"t1"}),
            )),
            [("e2", "t2", None), ("e2", "t1", 2), ("e2", "", None),
             ("e3", "t2", None), ("e3", "t1", 2), ("e3", "", None)],
            2,
        ),
        "typing and undeclared-type breaches added and removed in one delta": (
            EventLog(init=two_seated, events=(
                event("e1", 1, "note", {"t1"}),
                event("e2", 2, "open", {"t1"}, new_relations=odd, removed_relations=odd),
                event("e3", 3, "note", {"t1"}),
            )),
            [],
            0,
        ),
    }


@pytest.mark.parametrize("name", list(_breach_cases()))
def test_type_i_rows_are_built_once_per_breach_state(name, monkeypatch):
    """The replay sorts type I's rows again only after an event that left
    a different breach table, and each event's violations equal the
    oracle's, in full and prefix mode."""
    model = desk_model()
    log, expected, sorts = _breach_cases()[name]
    calls = []

    def counted_sorted(*args, **kwargs):
        calls.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(conformance, "sorted", counted_sorted, raising=False)
    conformance._Replay(model, log)
    assert len(calls) == sorts
    oracle = [v for v in sort_violations(naive_check(model, log)) if v.kind == "I"]
    assert [(v.event, v.obj, v.observed) for v in oracle] == expected
    for prefix in (False, True):
        assert check_violations(model, log, ("I",), prefix) == oracle
        assert [v for v in check_violations(model, log, prefix=prefix) if v.kind == "I"] == oracle


@pytest.mark.parametrize("events, every", [(12, 4), (60, 3), (200, 4), (200, 5)])
def test_type_i_takes_classes_from_the_stretch_of_each_event(events, every):
    """Objects flip class at asserted snapshots while relations on them are
    added, re-added when present and removed, within and across stretches.
    Type I, which reads classes from the build's stretch maps, equals the
    oracle alone and beside the other kinds, in full and prefix mode."""
    model, log = relink_model(), relink_log(events, every)
    oracle = sort_violations(naive_check(model, log))
    type_i = [v for v in oracle if v.kind == "I"]
    # Both cardinality and endpoint typing breaches.
    assert {bool(v.detail) for v in type_i} == {False, True}
    assert {v.kind for v in oracle} == {"I", "II", "III"}
    for prefix in (False, True):
        assert check_violations(model, log, ("I",), prefix) == type_i, prefix
        expected = [v.downgraded() if prefix and v.kind == "II" else v for v in oracle]
        assert check_violations(model, log, prefix=prefix) == expected, prefix


# -- Type II: fulfilment at the end of the log --------------------------------


def test_undelivered_order_lines_flagged():
    model = order_class_snapshot_model()
    _, log = order_object_model()
    violations = check_type_ii(model, log)
    assert [(v.obj, v.rel_type, v.side, v.observed, v.expected) for v in violations] == [
        ("ol2", "r2", "tar", 0, "1"),
        ("ol4", "r2", "tar", 0, "1"),
    ]


def test_delivering_the_missing_lines_fulfils_the_model():
    model = order_class_snapshot_model()
    base, _ = order_object_model()
    first = event("e1", 1, "record", new_objects=sorted(base.class_of.items()),
                  new_relations=sorted(base.relations))
    second = event(
        "e2", 2, "record",
        new_objects=[("d3", "delivery")],
        new_relations=[("r2", "ol2", "d3"), ("r2", "ol4", "d3"), ("r5", "d3", "c2")],
    )
    log = EventLog(events=(first, second))
    assert check_type_ii(model, log) == []


def test_fulfilment_equals_validity_when_no_extra_eventual_cards():
    model = order_class_snapshot_model()
    flattened = OcbcModel(
        model.bcm,
        ClassModel(
            model.clam.classes,
            rel_types=tuple(
                rt._replace(
                    card_src_eventually=rt.card_src_always,
                    card_tar_eventually=rt.card_tar_always,
                )
                for rt in model.clam.rel_types
            ),
        ),
        model.links,
        model.scope,
    )
    _, log = order_object_model()
    assert check_type_ii(flattened, log) == []
    assert check_type_i(flattened, log) == []


def _several_rel_types_model():
    """Five relationship types over three classes, two of them from a class
    to itself, so that one object keeps counts of several types and sides."""
    return OcbcModel(
        bcm=BcModel(activities=frozenset({"a", "b"}), constraints=()),
        clam=ClassModel(
            classes=frozenset({"k0", "k1", "k2"}),
            rel_types=(
                rel_type("r0", "k0", "k1", src="0..1", src_ev="1", tar="*", tar_ev="1..*"),
                rel_type("r1", "k1", "k2", src="*", src_ev="1..*", tar="0..2", tar_ev="1..2"),
                rel_type("r2", "k0", "k0", src="*", src_ev="0..1", tar="*", tar_ev="1"),
                rel_type("r3", "k2", "k0", src="1..*", tar="*", tar_ev="1..*"),
                rel_type("r4", "k1", "k1", src="*", tar="0..1", tar_ev="1"),
            ),
        ),
        links=tuple(link(a, k) for a in ("a", "b") for k in ("k0", "k1", "k2")),
        scope={},
    )


def test_types_i_and_ii_agree_with_the_oracle_over_several_relationship_types():
    """Both kinds count partners per (relationship type, side, object); with
    several types over shared classes, each count stays with its own type."""
    model = _several_rel_types_model()
    rel_types = {"I": set(), "II": set()}
    for seed in range(40):
        log = random_log(random.Random(seed), model, max_events=25)
        oracle = sort_violations(naive_check(model, log))
        for kind in ("I", "II"):
            found = check_violations(model, log, (kind,))
            assert found == [v for v in oracle if v.kind == kind], (seed, kind)
            rel_types[kind].update(v.rel_type for v in found)
    assert rel_types["I"] >= {"r0", "r1", "r3", "r4"} and len(rel_types["II"]) == 5, rel_types


# -- Type III: monotonicity ----------------------------------------------------


def test_delta_only_logs_are_monotone():
    assert check_type_iii(order_process_model(), order_process_log()) == []


def test_asserted_disappearance_flagged():
    model = order_class_snapshot_model()
    log = EventLog(
        events=(
            event("e1", 1, "record", new_objects=[("o1", "order"), ("ol1", "order line")],
                  new_relations=[("r1", "o1", "ol1")]),
            event("e2", 2, "record",
                  assert_snapshot=ObjectModel(class_of={"o1": "order"}, relations=frozenset())),
        )
    )
    violations = check_type_iii(model, log)
    assert [(v.event, v.obj) for v in violations] == [("e2", "ol1")]
    assert "disappeared" in violations[0].detail


def test_asserted_class_change_flagged():
    model = order_class_snapshot_model()
    log = EventLog(
        events=(
            event("e1", 1, "record", new_objects=[("o1", "order")]),
            event("e2", 2, "record",
                  assert_snapshot=ObjectModel(class_of={"o1": "delivery"}, relations=frozenset())),
        )
    )
    violations = check_type_iii(model, log)
    assert [(v.event, v.obj) for v in violations] == [("e2", "o1")]
    assert "changed class" in violations[0].detail


# -- Types IV, V, VI: existence and proper classes ------------------------------


def test_declared_activities_pass():
    assert check_type_iv(order_process_model(), order_process_log()) == []
    assert check_type_iv(order_process_model(), EventLog()) == []


def test_undeclared_activity_flagged_per_event():
    log = EventLog(events=(event("e1", 1, "ship"),))
    violations = check_type_iv(order_process_model(), log)
    assert [(v.event, v.activity) for v in violations] == [("e1", "ship")]


def test_reference_to_object_created_by_the_same_event_is_no_violation():
    model = ticket_model()
    log = EventLog(events=(event("p1", 1, "pay", {"t9"}, new_objects=[("t9", "ticket")]),))
    assert check_type_v(model, log) == []


def test_reference_before_creation_is_flagged():
    model = ticket_model()
    log = EventLog(
        events=(
            event("p1", 1, "pay", {"t9"}),
            event("p2", 2, "pay", {"t9"}, new_objects=[("t9", "ticket")]),
        )
    )
    violations = check_type_v(model, log)
    assert [(v.event, v.obj) for v in violations] == [("p1", "t9")]


def test_order_process_fixture_has_no_existence_problems():
    model, log = order_process_model(), order_process_log()
    assert check_type_v(model, log) == []
    assert check_type_vi(model, log) == []


def test_reference_to_unlinked_class_flagged():
    model = order_process_model()
    log = order_process_log()
    events = list(log.events)
    # A pick event referencing the order object: (pick item, order) is not linked.
    events[1] = events[1]._replace(objects=events[1].objects | {"o1"})
    violations = check_type_vi(model, EventLog(init=log.init, events=tuple(events)))
    assert [(v.event, v.obj, v.activity, v.cls) for v in violations] == [
        ("e2", "o1", "pick item", "order")
    ]


def test_unlinked_class_that_only_an_assertion_brings_in_is_flagged():
    model = desk_model()
    init = ObjectModel(class_of={"t1": "ticket"}, relations=frozenset())
    asserted = ObjectModel(class_of={"t1": "ticket", "d1": "desk"}, relations=frozenset())
    log = EventLog(init=init, events=(
        event("e1", 1, "note", {"t1"}),
        event("e2", 2, "open", {"t1"}, assert_snapshot=asserted),
        event("e3", 3, "note", {"t1", "d1"}),
    ))
    violations = check_type_vi(model, log)
    assert [(v.event, v.obj, v.activity, v.cls) for v in violations] == [("e3", "d1", "note", "desk")]
    assert violations == [v for v in sort_violations(naive_check(model, log)) if v.kind == "VI"]


def test_undeclared_activity_references_no_linked_class():
    model = desk_model()
    init = ObjectModel(class_of={"t1": "ticket", "d1": "desk"}, relations=frozenset({("at", "t1", "d1")}))
    log = EventLog(init=init, events=(event("e1", 1, "open", {"t1", "d1"}), event("e2", 2, "audit", {"t1", "d1"})))
    violations = check_type_vi(model, log)
    assert [(v.event, v.obj, v.cls) for v in violations] == [("e2", "d1", "desk"), ("e2", "t1", "ticket")]
    assert violations == [v for v in sort_violations(naive_check(model, log)) if v.kind == "VI"]


def test_event_without_references_is_no_proper_class_violation():
    model = ticket_model()
    log = EventLog(events=(event("p1", 1, "pay", set()),))
    assert check_type_vi(model, log) == []
    assert len(check_type_viii(model, log)) == 1  # the count check still fires


# -- Types VII and VIII: ticket/payment scenario --------------------------------


def test_double_payment_and_missed_payment():
    violations = check_type_vii(ticket_model(), ticket_log())
    assert [(v.obj, v.temporal, v.observed, v.expected, v.event) for v in violations] == [
        ("t3", "always", 2, "0..1", "p2"),
        ("t5", "eventually", 0, "1", "p4"),
    ]


def test_paid_once_is_fine():
    model = ticket_model()
    init = ObjectModel(class_of={"t1": "ticket"}, relations=frozenset())
    log = EventLog(init=init, events=(event("p1", 1, "pay", {"t1"}),))
    assert check_type_vii(model, log) == []


def test_payment_without_tickets_flagged():
    violations = check_type_viii(ticket_model(), ticket_log())
    assert [(v.event, v.observed, v.expected) for v in violations] == [("p3", 0, "1..*")]


def test_multi_ticket_payment_is_fine():
    model = ticket_model()
    init = ObjectModel(class_of={"t2": "ticket", "t3": "ticket"}, relations=frozenset())
    log = EventLog(init=init, events=(event("p23", 1, "pay", {"t2", "t3"}),))
    assert check_type_viii(model, log) == []


def test_unbounded_object_count_never_fires():
    model = ticket_model()
    model = OcbcModel(
        model.bcm,
        model.clam,
        links=(model.links[0]._replace(card_objects=__import__("ocbcheck").parse_cardinality("*")),),
        scope=model.scope,
    )
    assert check_type_viii(model, ticket_log()) == []


# -- Type IX and target resolution ----------------------------------------------


def test_resolve_targets_through_relationship():
    model, log = precedence_model(), precedence_log()
    assert resolve_targets(model, log, "c", "e2") == {"e1"}
    assert resolve_targets(model, log, "c", "e3") == {"e4"}
    assert resolve_targets(model, log, "c", "e5") == {"e1"}
    assert resolve_targets(model, log, "c", "e6") == set()
    assert resolve_targets(model, log, "c", "e7") == {"e4"}


def test_resolve_targets_validates_inputs():
    model, log = precedence_model(), precedence_log()
    with pytest.raises(LogError, match="unknown constraint"):
        resolve_targets(model, log, "zz", "e2")
    with pytest.raises(LogError, match="reference activity"):
        resolve_targets(model, log, "c", "e1")


def _fan_in_case(via: str, template: str, order: list[int]) -> tuple[OcbcModel, EventLog]:
    """A small fan-in log in the given event order, with `visit` -> `ship`
    and `visit` -> `visit` constraints of one template via `via`.  Visits
    share object sets, each built as its own frozenset; some ships reference
    two correlated objects, and one visit on a customer's order correlates
    with the customer's visits, itself among them."""
    if via == "r":
        orders = ("o1", "o2", "o3", "o4", "o5")
        init = ObjectModel(
            class_of={"c1": "customer", "c2": "customer", **dict.fromkeys(orders, "order")},
            relations=frozenset(
                {("r", "c1", "o1"), ("r", "c1", "o2"), ("r", "c1", "o3"), ("r", "c2", "o4"), ("r", "c2", "o5")}
            ),
        )
        shapes = [("visit", {"c1"}), ("visit", {"c1"}), ("visit", {"c2"}), ("visit", {"c1", "c2"}),
                  ("visit", {"c1", "o2"}), ("ship", {"o1"}), ("ship", {"o2", "o3"}), ("ship", {"o4"}),
                  ("ship", {"o1", "o5"})]
    else:
        init = ObjectModel(class_of={"d1": "desk", "d2": "desk"}, relations=frozenset())
        shapes = [("visit", {"d1", "d2"}), ("visit", {"d1", "d2"}), ("visit", {"d1"}),
                  ("visit", {"d1", "d2"}), ("visit", {"d2"}), ("ship", {"d1"}), ("ship", {"d2"}),
                  ("ship", {"d1", "d2"}), ("ship", {"d1"})]
    events = tuple(event(f"e{i}", seq, *shapes[i]) for seq, i in enumerate(order, start=1))
    return _visit_model(via, template), EventLog(init=init, events=events)


def _visit_model(via: str, template) -> OcbcModel:
    """`fan_in_model` with `visit` -> `ship` and `visit` -> `visit`
    constraints of one template via `via`."""
    base = fan_in_model(via)
    return OcbcModel(
        bcm=BcModel(
            activities=frozenset({"visit", "ship"}),
            constraints=(constraint("to-ship", template, "visit", "ship"),
                         constraint("to-visit", template, "visit", "visit")),
        ),
        clam=base.clam,
        links=base.links,
        scope={"to-ship": via, "to-visit": via},
    )


@pytest.mark.parametrize("via", ["r", "desk"])
def test_fan_in_correlation_agrees_with_the_oracle(via):
    """Many visits correlate with one busy object set: their IX counts equal
    the oracle's, with each reference's own position left out of a shared
    list, a ship on two correlated objects counted once, and visits grouped
    by equal object sets, not by identity; `resolve_targets` equals a scan
    of the final snapshot."""
    rng = random.Random(via)
    for template in ("response", "unary-response", "non-response", "precedence",
                     "unary-precedence", "non-precedence", "co-existence", "non-co-existence"):
        for _ in range(4):
            order = list(range(9))
            rng.shuffle(order)
            model, log = _fan_in_case(via, template, order)
            first, second = (e.objects for e in log.events if e.id in ("e0", "e1"))
            assert first == second and first is not second
            assert check_violations(model, log) == sort_violations(naive_check(model, log)), (template, order)
            for c in model.bcm.constraints:
                for ref in log.events_of_activity("visit"):
                    expected = _scanned_targets(model, log, c, log.event(ref).objects)
                    assert resolve_targets(model, log, c.id, ref) == expected, (c.id, ref)


def _scanned_targets(model, log, c, objects):
    """The ids of the target events of constraint `c` that `objects`
    correlate with, by a scan of the final snapshot and the log: through
    objects of the scope class, or their partners over relations of the
    scope relationship type in either direction."""
    final, via = log.final_snapshot(), model.scope[c.id]
    if via in model.clam.classes:
        correlated = {o for o in objects if final.class_of.get(o) == via}
    else:
        correlated = {t for rt, s, t in final.relations if rt == via and s in objects}
        correlated |= {s for rt, s, t in final.relations if rt == via and t in objects}
    return {e.id for e in log.events if e.activity == c.target_activity and e.objects & correlated}


def test_unrelated_and_late_targets_violate_precedence():
    violations = check_type_ix(precedence_model(), precedence_log())
    assert [(v.event, v.before, v.after) for v in violations] == [("e3", 0, 1), ("e6", 0, 0)]
    assert all(v.constraint == "c" for v in violations)


def test_order_process_run_respects_all_constraints():
    assert check_type_ix(order_process_model(), order_process_log()) == []


def test_shared_object_correlation():
    model, log = hiring_model(), hiring_log()
    # close pos. shares the position object with open pos.
    assert resolve_targets(model, log, "c3#2", "e6") == {"e2"}
    assert check_type_ix(model, log) == []


def _blind(model):
    """`model` with every constraint type replaced by one that only a sum of
    2**31-1 target events satisfies, so IX reports each reference event with
    its counts."""
    never = ConstraintType(total=Cardinality.exactly(MAX_BOUND))
    constraints = tuple(c._replace(ctype=never) for c in model.bcm.constraints)
    return OcbcModel(BcModel(model.bcm.activities, constraints), model.clam, model.links, model.scope)


def _ix_counts(model, log):
    """IX's (before, after) for every (constraint, reference event)."""
    return {(v.constraint, v.event): (v.before, v.after) for v in check_type_ix(_blind(model), log)}


def _shared_partner_scenario():
    """One order with two lines; a pick event references both lines."""
    model = OcbcModel(
        bcm=BcModel(
            activities=frozenset({"pick", "pack", "ship"}),
            constraints=(
                constraint("c1", "unary-precedence", "ship", "pick"),  # via r
                constraint("c2", "unary-precedence", "pack", "pick"),  # via line
                constraint("c3", "unary-precedence", "pick", "pick"),  # via line
                constraint("c4", "precedence", "ship", "pick"),  # via line
            ),
        ),
        clam=ClassModel(
            classes=frozenset({"order", "line"}),
            rel_types=(rel_type("r", "order", "line"),),
        ),
        links=(link("pick", "line"), link("pack", "line"), link("ship", "order"), link("ship", "line")),
        scope={"c1": "r", "c2": "line", "c3": "line", "c4": "line"},
    )
    init = ObjectModel(
        class_of={"o1": "order", "l1": "line", "l2": "line"},
        relations=frozenset({("r", "o1", "l1"), ("r", "o1", "l2")}),
    )
    log = EventLog(
        init=init,
        events=(
            event("e1", 1, "pick", {"l1", "l2"}),
            event("e2", 2, "pack", {"l1", "l2"}),
            event("e3", 3, "ship", {"o1"}),
            event("e4", 4, "pick", {"l1"}),
            event("e5", 5, "pick", {"l2"}),
        ),
    )
    return model, log


def test_target_referencing_two_correlated_objects_counts_once():
    model, log = _shared_partner_scenario()
    counts = _ix_counts(model, log)
    # e1 references both partners of o1 (via r) and both lines of e2 (via line).
    assert counts[("c1", "e3")] == (1, 2)
    assert counts[("c2", "e2")] == (1, 2)
    assert resolve_targets(model, log, "c1", "e3") == {"e1", "e4", "e5"}
    # Counted twice, e1 would make before=2 and break unary-precedence.
    assert [(v.constraint, v.event) for v in check_type_ix(model, log)] == [("c3", "e1"), ("c4", "e3")]


def test_reference_event_is_not_its_own_target():
    model, log = _shared_partner_scenario()
    counts = _ix_counts(model, log)
    assert (counts[("c3", "e1")], counts[("c3", "e4")], counts[("c3", "e5")]) == ((0, 2), (1, 0), (1, 0))
    assert resolve_targets(model, log, "c3", "e4") == {"e1", "e4"}


def test_reference_without_an_object_of_the_scope_class_has_no_targets():
    model, log = _shared_partner_scenario()
    assert _ix_counts(model, log)[("c4", "e3")] == (0, 0)
    assert resolve_targets(model, log, "c4", "e3") == set()


def _correlation_cases():
    for name in ("order-process", "unmatched-precedence"):
        model = load_model((DEMO / f"{name}.ocbc.json").read_bytes())
        yield name, model, load_log((DEMO / f"{name}.oclog.jsonl").read_bytes())
    yield "order-process scenario", order_process_model(), order_process_log()
    yield "hiring", hiring_model(), hiring_log()
    yield "precedence", precedence_model(), precedence_log()
    yield "shared partners", *_shared_partner_scenario()
    for seed in range(300):
        rng = random.Random(seed)
        model = random_model(rng)
        yield f"random seed {seed}", model, random_log(rng, model)


def test_resolve_targets_agrees_with_ix_counts():
    pairs = 0
    for name, model, log in _correlation_cases():
        expected = {}
        for c in model.bcm.constraints:
            for ref in log.events_of_activity(c.ref_activity):
                position = log.index_of(ref)
                targets = [log.index_of(t) for t in resolve_targets(model, log, c.id, ref)]
                expected[(c.id, ref)] = (
                    sum(1 for t in targets if t < position),
                    sum(1 for t in targets if t > position),
                )
        assert _ix_counts(model, log) == expected, name
        pairs += len(expected)
    assert pairs > 1000


def test_hiring_mutants():
    model = hiring_model()
    early_apply = check_violations(model, hiring_log("apply-before-open"))
    ix = [v for v in early_apply if v.kind == "IX"]
    assert [(v.constraint, v.event) for v in ix] == [("c5", "e2x")]
    # The application also sits without its position for one snapshot.
    assert [(v.kind) for v in early_apply if v.kind != "IX"] == ["I"]

    late_apply = check_violations(model, hiring_log("apply-after-close"))
    assert [(v.kind, v.constraint, v.event) for v in late_apply] == [("IX", "c6", "e6")]


@pytest.mark.parametrize("via", ["r", "desk"])
def test_equal_object_sets_share_one_correlation(via, monkeypatch):
    """Per constraint, each reference object is correlated at most once, and
    each distinct object set that correlates through two or more objects is
    composed once, though equal sets are each their own frozenset; every
    reference event gets the oracle's (before, after) counts."""
    model, log = _fan_in_case(via, "response", list(range(9)))
    model, constraints = _blind(model), model.bcm.constraints
    correlated, composed, current = [], [], []
    correlation, composition = conformance._correlation, conformance._composed

    def counting(model, log, constraint):
        correlate, current[:] = correlation(model, log, constraint), [constraint.id]
        return lambda obj: correlated.append((constraint.id, obj)) or correlate(obj)

    def composing(lists):
        composed.append((current[0], frozenset(map(tuple, lists))))
        return composition(lists)

    monkeypatch.setattr(conformance, "_correlation", counting)
    monkeypatch.setattr(conformance, "_composed", composing)
    found = check_violations(model, log, ("IX",))
    visits = [e.objects for e in log.events if e.activity == "visit"]
    assert visits[0] == visits[1] and visits[0] is not visits[1]
    assert len(correlated) == len(set(correlated))
    assert set(correlated) <= {(c.id, o) for c in constraints for o in set().union(*visits)}
    shared = {
        (c.id, objects) for c in constraints for objects in visits
        if sum(1 for o in objects if _scanned_targets(model, log, c, {o})) > 1
    }
    assert len(composed) == len(set(composed)) == len(shared) >= len(constraints)
    assert len(found) == len(constraints) * len(visits)
    assert found == [v for v in sort_violations(naive_check(model, log)) if v.kind == "IX"]


_DESKS = ObjectModel(class_of=dict.fromkeys(("d1", "d2", "d3"), "desk"), relations=frozenset())
_CUSTOMERS = ObjectModel(
    class_of={"c": "customer", "k": "customer", **dict.fromkeys(("o1", "o2", "o3", "q"), "order")},
    relations=frozenset({("r", "c", "o1"), ("r", "c", "o2"), ("r", "c", "o3"), ("r", "k", "q")}),
)


@pytest.mark.parametrize(
    "via, init, shapes, objects, extra, cid, counts",
    [
        # d2's one ship is also on d1, whose list is the longest.
        ("desk", _DESKS, [("s1", "ship", {"d1"}), ("s2", "ship", {"d1", "d2"}), ("v", "visit", None),
                          ("s3", "ship", {"d1"})], {"d1"}, "d2", "to-ship", (2, 1)),
        # d2 and d3 share their one ship, which d1's longer list lacks.
        ("desk", _DESKS, [("s1", "ship", {"d1"}), ("s2", "ship", {"d2", "d3"}), ("v", "visit", None),
                          ("s3", "ship", {"d1"}), ("s4", "ship", {"d1"})], {"d1", "d2"}, "d3", "to-ship", (2, 2)),
        # Over `r`, q and k each correlate with the visits on the other, v
        # among them once it references k: its own position, in short lists only.
        ("r", _CUSTOMERS, [("v1", "visit", {"o1"}), ("v", "visit", None), ("v2", "visit", {"o2"}),
                           ("vk", "visit", {"k"}), ("v3", "visit", {"o3"})], {"c", "q"}, "k", "to-visit", (1, 3)),
    ],
)
def test_a_target_on_two_correlated_objects_counts_once(via, init, shapes, objects, extra, cid, counts):
    """A target event correlated through two of a reference's objects counts
    once, whether the longest list and a short one share it or two short
    ones do, and a same-activity reference leaves out its own position
    also where only short lists hold it.  Adding to the reference event an
    object whose targets it already correlates with keeps its counts."""
    model = _blind(_visit_model(via, "response"))
    for refs in (objects, objects | {extra}):
        events = (event(eid, seq, activity, objs or refs) for seq, (eid, activity, objs) in enumerate(shapes, 1))
        log = EventLog(init=init, events=events)
        assert _ix_counts(model, log)[cid, "v"] == counts, refs
        oracle = [v for v in sort_violations(naive_check(model, log)) if v.kind == "IX"]
        assert check_violations(model, log, ("IX",)) == oracle, refs


def test_resolve_targets_correlates_only_the_event_s_objects(monkeypatch):
    """`resolve_targets` correlates each object of its one event at most
    once, not the log's other reference events."""
    model, log = fan_in_model("r"), relationship_hub_log(50)
    correlated, correlation = [], conformance._correlation

    def counting(model, log, constraint):
        correlate = correlation(model, log, constraint)
        return lambda obj: correlated.append(obj) or correlate(obj)

    monkeypatch.setattr(conformance, "_correlation", counting)
    for ref in ("v0", "v49"):
        correlated.clear()
        assert resolve_targets(model, log, "c", ref) == {f"s{i}" for i in range(50)}
        assert len(correlated) == len(set(correlated)) and set(correlated) <= log.event(ref).objects


@pytest.mark.parametrize("via, build", [("desk", desk_pairs_log), ("r", customer_pairs_log),
                                        ("desk", desk_trios_log), ("r", hub_order_log)])
def test_distinct_sets_on_a_busy_object_agree_with_the_oracle(via, build):
    """Every reference event has an object set of its own that holds one or
    two busy objects, or a partner of one: under each template, and with
    every count reported, IX equals the oracle's in full and prefix mode (a
    relationship scope is never final; a class scope is final unless more
    targets can fix it)."""
    log = build(6)
    for template in ("response", "non-response", "precedence", "unary-precedence",
                     "non-precedence", "co-existence", "non-co-existence", None):
        base = fan_in_model(via)
        bcm = BcModel(base.bcm.activities, (constraint("c", template or "response", "visit", "ship"),))
        model = OcbcModel(bcm, base.clam, base.links, base.scope)
        model = _blind(model) if template is None else model
        oracle = sort_violations(naive_check(model, log))
        assert check_violations(model, log) == oracle, template
        ctype = model.bcm.constraint("c").ctype
        prefix = [v.downgraded() if via == "r" or ctype.future_fixable(v.before, v.after) else v
                  for v in oracle if v.kind == "IX"]
        assert check_violations(model, log, ("IX",), prefix=True) == prefix, template
        if template in ("non-response", None):  # every visit has a later ship
            assert len(prefix) == 6, template


@pytest.mark.parametrize("via", ["desk", "r"])
def test_the_fan_in_family_agrees_with_the_oracle(via, monkeypatch):
    """Reference events correlated through several long target lists at
    once: every kind equals the oracle's in full mode, and in prefix mode
    the oracle's list downgraded as `check_violations` documents it (II,
    eventual VII, and IX of a relationship scope or fixable by more
    targets).  The family reaches `_composed` with three or more lists, one
    of them long."""
    composed, compose = [], conformance._composed

    def recording(lists):
        composed.append(sorted(map(len, lists)))
        return compose(lists)

    monkeypatch.setattr(conformance, "_composed", recording)
    for seed in range(12):
        model, log = fan_in_family(seed, via)
        oracle = sort_violations(naive_check(model, log))
        assert check_violations(model, log) == oracle, seed

        def repairable(v):
            if v.kind == "IX":
                return via == "r" or model.bcm.constraint(v.constraint).ctype.future_fixable(v.before, v.after)
            return v.kind == "II" or v.kind == "VII" and v.temporal == "eventually"

        prefix = [v.downgraded() if repairable(v) else v for v in oracle]
        assert check_violations(model, log, prefix=True) == prefix, seed
    assert any(len(lists) >= 3 and lists[-1] >= 10 for lists in composed)


def ix_hash_seed_digest() -> str:
    """One digest of the full and prefix reports of `fan_in_family` at 200
    events (seeds 0-3, both scopes) and of the demo order pair."""
    pairs = [fan_in_family(seed, via, 200) for seed in range(4) for via in ("desk", "r")]
    pairs.append((load_model((DEMO / "order-process.ocbc.json").read_bytes()),
                  load_log((DEMO / "order-process.oclog.jsonl").read_bytes())))
    digest = hashlib.sha256()
    for model, log in pairs:
        for prefix in (False, True):
            digest.update(save_report(check_all(model, log, prefix=prefix)))
    return digest.hexdigest()


def test_ix_counts_do_not_depend_on_the_hash_seed():
    """IX takes an event's first correlated list in frozenset order, so only
    the union of its lists may decide its counts: a child per hash seed, and
    this process, report the same bytes."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    digests = {ix_hash_seed_digest()}
    for hash_seed in ("0", "1", "4242"):
        result = subprocess.run(
            [sys.executable, "-c", "import test_conformance; print(test_conformance.ix_hash_seed_digest())"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout.strip())
    assert len(digests) == 1, digests


def test_ix_keeps_no_table_of_every_reference_position(monkeypatch):
    """On a class-scope log where each reference event has one correlated
    object, IX composes no lists and peaks at no more than 80 bytes of
    tracemalloc per reference event of its larger constraint."""
    model = throughput_model()
    log = generate_conforming(model, events=20_000, seed=1)
    composed = []
    monkeypatch.setattr(conformance, "_composed", lambda lists: composed.append(lists))
    refs = max(len(log.events_of_activity(c.ref_activity)) for c in model.bcm.constraints)
    tracemalloc.start()
    try:
        assert check_violations(model, log, ("IX",)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert composed == []
    assert refs > 9_000 and peak <= 80 * refs, (peak, refs)


def test_viii_counts_only_the_objects_an_event_finds():
    """One event references many objects of two counted classes, one of them
    created only by a later event, so missing from the event's snapshot
    though in its stretch's class map: the count leaves it out, as the
    oracle's does."""
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"pay", "issue"}), constraints=()),
        clam=ClassModel(classes=frozenset({"ticket", "voucher"}), rel_types=()),
        links=(link("pay", "ticket", objects="3"), link("pay", "voucher", objects="1"),
               link("issue", "ticket")),
        scope={},
    )
    init = ObjectModel(
        class_of={"t1": "ticket", "t2": "ticket", "t3": "ticket", "v1": "voucher", "v2": "voucher"},
        relations=frozenset(),
    )
    log = EventLog(
        init=init,
        events=(
            event("p1", 1, "pay", {"t1", "t2", "t3", "t4", "v1", "v2"}),
            event("i1", 2, "issue", {"t4"}, new_objects=[("t4", "ticket")]),
            event("p2", 3, "pay", {"t1", "t2", "t4", "v1", "v2"}),
        ),
    )
    assert [(v.event, v.obj) for v in check_violations(model, log, ("V",))] == [("p1", "t4")]
    oracle = sort_violations(naive_check(model, log))
    found = check_violations(model, log, ("VIII",))
    assert found == [v for v in oracle if v.kind == "VIII"]
    assert [(v.event, v.cls, v.observed) for v in found] == [("p1", "voucher", 2), ("p2", "voucher", 2)]
    assert check_violations(model, log) == oracle


def _opposite_verdicts_case() -> tuple[OcbcModel, EventLog]:
    """Equal counts with opposite verdicts: a `response` and a `non-response`
    constraint from `issue` to `pay`; `pay` links to two classes with object
    cardinalities 1 and 0; ticket links of `issue` and `pay` with
    always-cardinalities 1 and 0..1."""
    model = OcbcModel(
        bcm=BcModel(
            activities=frozenset({"issue", "pay"}),
            constraints=(constraint("paid", "response", "issue", "pay"),
                         constraint("unpaid", "non-response", "issue", "pay")),
        ),
        clam=ClassModel(classes=frozenset({"ticket", "voucher"}), rel_types=()),
        links=(link("issue", "ticket", always="1"),
               link("pay", "ticket", always="0..1", objects="1"),
               link("pay", "voucher", objects="0")),
        scope={"paid": "ticket", "unpaid": "ticket"},
    )
    init = ObjectModel(class_of={"t0": "ticket"}, relations=frozenset())
    log = EventLog(
        init=init,
        events=(
            event("i1", 1, "issue", {"t1"}, new_objects=[("t1", "ticket")]),
            event("p1", 2, "pay", {"t1"}),
            event("i2", 3, "issue", {"t2"}, new_objects=[("t2", "ticket")]),
            event("p2", 4, "pay", {"t2", "v1"}, new_objects=[("v1", "voucher")]),
            event("p3", 5, "pay"),
            event("i3", 6, "issue", {"t3"}, new_objects=[("t3", "ticket")]),
        ),
    )
    return model, log


def test_each_constraint_and_link_keeps_its_own_verdicts():
    """IX, VII and VIII decide each distinct count once per constraint or
    link.  Here equal counts get opposite verdicts from two constraints, two
    links of one activity and two links of one class, and every kind equals
    the oracle's, in full and prefix mode."""
    model, log = _opposite_verdicts_case()
    oracle = sort_violations(naive_check(model, log))
    found = check_violations(model, log)
    assert found == oracle
    assert [(v.kind, v.event, v.constraint or v.activity, v.cls, v.obj, v.observed) for v in found] == [
        ("VII", "i1", "issue", "ticket", "t0", 0),
        ("VIII", "p2", "pay", "voucher", "", 1),
        ("VIII", "p3", "pay", "ticket", "", 0),
        ("IX", "i1", "unpaid", "", "", None),
        ("IX", "i2", "unpaid", "", "", None),
        ("IX", "i3", "paid", "", "", None),
    ]
    for kind in ("VII", "VIII", "IX"):
        assert check_violations(model, log, (kind,)) == [v for v in oracle if v.kind == kind], kind
    # Only the missing payment can still come; a payment that came stays.
    prefix = [v.downgraded() if v.constraint == "paid" else v for v in oracle]
    assert check_violations(model, log, prefix=True) == prefix


# -- the full report -------------------------------------------------------------


def test_conforming_run_produces_conforming_report():
    report = check_all(order_process_model(), order_process_log())
    assert report.conforms
    assert report.violations == ()
    assert set(report.summary.values()) == {0}


def test_ticket_scenario_report():
    report = check_all(ticket_model(), ticket_log())
    assert not report.conforms
    assert [v.kind for v in report.violations] == ["VII", "VII", "VIII"]


def test_empty_log_conforms():
    assert check_all(order_process_model(), EventLog()).conforms


def test_check_all_equals_concatenation_of_individual_checkers():
    """Each kind computed alone, by `check_type_*` or by a kind selection,
    equals that kind's share of the full check, with and without prefix mode."""
    checkers = (
        check_type_i, check_type_ii, check_type_iii, check_type_iv, check_type_v,
        check_type_vi, check_type_vii, check_type_viii, check_type_ix,
    )
    rng = random.Random(8)
    for model, log in named_and_random_pairs():
        full = check_violations(model, log)
        merged = [v for checker in checkers for v in checker(model, log)]
        assert sorted(merged, key=lambda v: v.sort_key()) == full == list(check_all(model, log).violations)
        for kind, checker in zip(KINDS, checkers):
            alone = [v for v in full if v.kind == kind]
            assert check_violations(model, log, (kind,)) == alone == checker(model, log), kind
        full_prefix = check_violations(model, log, prefix=True)
        for _ in range(3):
            subset = tuple(rng.sample(KINDS, rng.randint(1, len(KINDS))))
            expected = [v for v in full_prefix if v.kind in subset]
            assert check_violations(model, log, subset, prefix=True) == expected, subset


def test_each_kind_comes_in_report_order_without_a_global_sort():
    """`check_violations` and `check_all` hand back each kind's list already
    in report order, one kind after another.  Each kind's list is the one
    its exported `check_type_<kind>` returns, and that function is the one
    `check_violations` calls for the kind."""
    checks = dict(zip(KINDS, (
        check_type_i, check_type_ii, check_type_iii, check_type_iv, check_type_v,
        check_type_vi, check_type_vii, check_type_viii, check_type_ix,
    )))
    for kind, check in checks.items():
        assert conformance._CHECKS[kind] is check, kind
    for model, log in named_and_random_pairs():
        for prefix in (False, True):
            found = check_violations(model, log, prefix=prefix)
            assert found == sort_violations(found)
            assert check_all(model, log, prefix=prefix) == aggregate(found, prefix=prefix)
            for kind in KINDS:
                alone = check_violations(model, log, (kind,), prefix)
                assert alone == sort_violations(alone), kind
        for kind, check in checks.items():
            direct = check(model, log)
            assert direct == sort_violations(direct), kind
            assert direct == check_violations(model, log, (kind,)), kind


def test_check_sorts_no_type_i_violation(monkeypatch):
    """Type I comes from the replay in report order, so neither check passes
    one to `Violation.sort_key`, and every other violation at most once."""
    model, log = desk_model(), persistent_breach_log(300)
    keyed = []
    sort_key = Violation.sort_key
    monkeypatch.setattr(Violation, "sort_key", lambda v: keyed.append(v.kind) or sort_key(v))
    for check in (check_all, check_violations):
        keyed.clear()
        result = check(model, log)
        violations = result if check is check_violations else result.violations
        others = [v for v in violations if v.kind != "I"]
        assert len(violations) - len(others) == 900 and others
        assert "I" not in keyed and len(keyed) <= len(others), check.__name__
    keyed.clear()
    assert len(check_type_i(model, log)) == 900 and keyed == []


def test_a_str_of_kinds_is_refused():
    """A bare `str` would split into letters: "II" would check type I, and
    "VII" types V and I."""
    model, log = order_process_model(), order_process_log()
    for check in (check_violations, check_all):
        for kinds in ("II", "VII", "I", ""):
            with pytest.raises(TypeError, match=f"not the str {kinds!r}"):
                check(model, log, kinds)


def test_an_unknown_kind_is_refused_by_name():
    """The library names the unknown kind in the CLI's words, whatever else
    is selected with it."""
    model, log = order_process_model(), order_process_log()
    for check in (check_violations, check_all):
        for kinds in (("X",), ("I", "ix"), ("IX", "")):
            with pytest.raises(ValueError) as caught:
                check(model, log, kinds)
            assert str(caught.value) == (
                f"unknown problem type {kinds[-1]!r} (choose from I, II, III, IV, V, VI, VII, VIII, IX)"
            )


def test_unselected_kinds_skip_the_replay(monkeypatch):
    """Type I alone visits the events' deltas again: every selection without
    it, types III, VI and VIII included, reads only what the log build kept."""
    def refuse(*args):
        raise AssertionError("the per-event replay ran for kinds that do not need it")

    monkeypatch.setattr(conformance, "_Replay", refuse)
    others = KINDS[1:]
    selections = [
        tuple(kind for bit, kind in enumerate(others) if mask >> bit & 1)
        for mask in range(1, 2 ** len(others))
    ]
    for model, log in named_and_random_pairs()[:8]:
        for kinds in selections:
            check_violations(model, log, kinds)
    with pytest.raises(AssertionError):
        check_violations(ticket_model(), ticket_log(), kinds=("I",))


def test_type_v_and_the_load_warnings_name_the_same_references():
    """Type V reads the missing references that the log build keeps, so its
    (event, object) pairs are the warnings' one to one, in the same order."""
    found = 0
    for model, log in named_and_random_pairs():
        missing = [(v.event, v.seq, v.obj) for v in check_violations(model, log, ("V",))]
        assert [
            f"event {e!r} (seq {seq}) references object {obj!r} that does not exist in its snapshot"
            for e, seq, obj in missing
        ] == list(log.warnings)
        found += len(missing)
    assert found > 10


def _fold_edge_cases():
    """Logs whose deltas the fold must read as set operations, over a model
    in which counting a relation twice breaks an always-cardinality, and
    logs that place a referenced object's class at its event, at the edges
    of the stretches between assertions too, where "a" references at most
    one object of class k and one of class m, and none of class n.  Each
    case comes with whether it reads set operations."""
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"a"}), constraints=()),
        clam=ClassModel(
            classes=frozenset({"k", "m", "n"}),
            rel_types=(rel_type("r", "k", "m", src="0..1", tar="0..1"),),
        ),
        links=(link("a", "k", objects="0..1"), link("a", "m", objects="0..1")),
        scope={},
    )
    pair = ObjectModel(class_of={"k1": "k", "m1": "m"}, relations=frozenset())
    linked = ObjectModel(class_of=pair.class_of, relations=frozenset({("r", "k1", "m1")}))
    rel = ("r", "k1", "m1")
    set_operations = {
        "one relation listed twice in one delta": EventLog(
            init=pair, events=(event("e1", 1, "a", {"k1"}, new_relations=[rel, rel]),)
        ),
        "a re-added relation that is already present": EventLog(
            init=linked, events=(event("e1", 1, "a", {"k1"}, new_relations=[rel]),)
        ),
        "a relation added and removed by the same event": EventLog(
            init=pair,
            events=(
                event("e1", 1, "a", {"k1"}, new_relations=[rel], removed_relations=[rel]),
                event("e2", 2, "a", {"k1"}, new_relations=[rel]),
            ),
        ),
        "an assertion that drops an object created in the same delta": EventLog(
            init=pair,
            events=(
                event("e1", 1, "a", {"k1"}),
                event("e2", 2, "a", {"k1"}, new_objects=[("k2", "k")], assert_snapshot=linked),
                event("e3", 3, "a", {"k2"}, new_objects=[("k2", "m")]),
            ),
        ),
    }
    classes_at_events = {
        "objects referenced before their creation later in the same stretch": EventLog(
            init=pair,
            events=(
                event("e1", 1, "a", {"k1", "k2", "n1"}),
                event("e2", 2, "a", {"k1"}, new_objects=[("k2", "k"), ("n1", "n")]),
                event("e3", 3, "a", {"m1"}, assert_snapshot=pair),
            ),
        ),
        "an object whose class flips at an assertion, referenced before and after": EventLog(
            init=pair,
            events=(
                event("e1", 1, "a", {"k1", "m1"}),
                event("e2", 2, "a", {"k1", "m1"}, assert_snapshot=ObjectModel(
                    class_of={"k1": "m", "m1": "m", "n1": "n"}, relations=frozenset())),
                event("e3", 3, "a", {"k1", "n1"}),
            ),
        ),
        "an assertion at event 0": EventLog(
            init=pair,
            events=(
                event("e1", 1, "a", {"k1", "k2"}, new_objects=[("k2", "k")],
                      assert_snapshot=ObjectModel(class_of={"k1": "n"}, relations=frozenset())),
                event("e2", 2, "a", {"k1", "m1"}, new_objects=[("m1", "m")]),
            ),
        ),
        "an assertion at event 0 that drops the one object of a class that \"a\" is not linked to": EventLog(
            init=ObjectModel(class_of={"k1": "k", "n0": "n"}, relations=frozenset()),
            events=(event("e1", 1, "a", {"k1", "n0"}, assert_snapshot=pair), event("e2", 2, "a", {"k1", "m1"})),
        ),
        "an asserting event that adds objects, after a stretch that added none": EventLog(
            init=pair,
            events=(
                event("e1", 1, "a", {"k1", "m1"}),
                event("e2", 2, "a", {"k1", "k2", "n1"}, new_objects=[("k2", "k"), ("n1", "n")],
                      assert_snapshot=ObjectModel(class_of={"k1": "k", "m1": "m", "k2": "k"}, relations=())),
                event("e3", 3, "a", {"k2", "n1"}),
                event("e4", 4, "a", {"k1", "k2"}),
            ),
        ),
        "an asserting event that adds objects, after a stretch that added some": EventLog(
            init=pair,
            events=(
                event("e1", 1, "a", {"k1"}, new_objects=[("k3", "k")]),
                event("e2", 2, "a", {"k3", "m1"}, new_objects=[("n2", "n")],
                      assert_snapshot=ObjectModel(class_of={"k1": "k", "k3": "m", "n2": "n"}, relations=())),
                event("e3", 3, "a", {"k3", "n2"}),
                event("e4", 4, "a", {"k1", "m1"}, new_objects=[("m2", "m")]),
                event("e5", 5, "a", {"k1", "m2"}, new_objects=[("n3", "n"), ("k4", "k")],
                      assert_snapshot=ObjectModel(class_of={"k1": "k", "m2": "m", "n3": "n"}, relations=())),
                event("e6", 6, "a", {"n3", "k1"}),
            ),
        ),
        "events that add nothing to the initial model": EventLog(
            init=(still := ObjectModel(class_of={"k1": "k", "m1": "m", "n1": "n"}, relations=())),
            events=(
                event("e1", 1, "a", {"k1", "n1"}),
                event("e2", 2, "a", {"k1", "m1", "x9"}),
                event("e3", 3, "a", {"k1", "m1"}, assert_snapshot=still),
            ),
        ),
    }
    return [
        (name, model, log, name in set_operations)
        for name, log in {**set_operations, **classes_at_events}.items()
    ]


def test_replay_state_after_the_last_event_is_the_final_snapshot():
    """The conformance replay reads the deltas and the stretch maps that the
    build kept, so its state after the last event is the final snapshot the
    build kept; on the edge cases, all kinds together and types III, VI and
    VIII each alone agree with the oracle, in full and prefix mode."""
    def state(class_of, relations):
        return dict(class_of), frozenset(relations)

    for model, log in named_and_random_pairs():
        replay = conformance._Replay(model, log)
        assert state(replay.class_of, replay.relations) == state(*log.final_snapshot())
    kinds = set()
    for name, model, log, set_operations in _fold_edge_cases():
        replay = conformance._Replay(model, log)
        assert state(replay.class_of, replay.relations) == state(*log.final_snapshot()), name
        oracle = sort_violations(naive_check(model, log))
        for prefix in (False, True):
            assert check_violations(model, log, prefix=prefix) == oracle, (name, prefix)
            for kind in ("III", "VI", "VIII"):
                alone = [v for v in oracle if v.kind == kind]
                assert check_violations(model, log, (kind,), prefix) == alone, (name, kind, prefix)
        if set_operations:
            assert not [v for v in oracle if v.kind in ("I", "III")], name
        kinds |= {v.kind for v in oracle}
    # Type II, the model's one eventual requirement, never fires, so prefix
    # mode downgrades nothing.
    assert kinds == {"III", "V", "VI", "VIII"}


def test_an_asserting_event_checks_its_additions_without_copying_the_map(monkeypatch):
    """An asserting event's new objects are checked against the state and
    then replaced by the snapshot, so the fold copies no class map for them:
    the map they go to (seen through a recording `ChainMap` in the log
    build) holds no copy of the initial objects, and the kept stretch maps
    are the initial map and the snapshot's.  Types III, V, VI and VIII agree
    with the oracle there."""
    name = "an asserting event that adds objects, after a stretch that added none"
    (model, log), = [(m, lg) for n, m, lg, _ in _fold_edge_cases() if n == name]
    init = log.init.class_of

    class Recording(ChainMap):
        """The map an asserting event's additions go to, recording each."""

        def __setitem__(self, obj, cls):
            super().__setitem__(obj, cls)
            added.append((obj, cls, self.maps[0].keys() >= init.keys()))

    added = []
    monkeypatch.setattr(eventlog, "ChainMap", Recording)
    EventLog(log.init, log.events)
    assert added == [("k2", "k", False), ("n1", "n", False)]
    assert dict(init) == {"k1": "k", "m1": "m"}
    assert [class_of for _, class_of in log._stretches] == [init, log.events[1].delta.assert_snapshot.class_of]
    assert log._stretches[0][1] is init
    oracle = sort_violations(naive_check(model, log))
    for kind in ("III", "V", "VI", "VIII"):
        assert check_violations(model, log, (kind,)) == [v for v in oracle if v.kind == kind], kind
    assert {v.kind for v in oracle} == {"V", "VIII"}


def test_snapshot_after_equals_the_oracle_fold():
    """`snapshot_after` builds the cut log; the oracle folds the deltas as
    written, with no check.  They agree at every event."""
    logs = [log for _, log in named_and_random_pairs()] + [log for _, _, log, _ in _fold_edge_cases()]
    compared = 0
    for log in logs:
        for event, folded in zip(log.events, fold_snapshots(log), strict=True):
            assert log.snapshot_after(event.id) == folded, event.id
            compared += 1
    assert compared > 500


def _two_class_model():
    return OcbcModel(
        bcm=BcModel(activities=frozenset({"pay"}), constraints=()),
        clam=ClassModel(classes=frozenset({"ticket", "voucher"}), rel_types=()),
        links=(
            link("pay", "ticket", always="0..1", eventually="1"),
            link("pay", "voucher", always="0..1", eventually="1"),
        ),
        scope={},
    )


@pytest.mark.parametrize("asserted", [{"t2": "ticket"}, {"t1": "voucher", "t2": "ticket"}])
def test_snapshot_asserted_at_event_zero_replaces_the_initial_model(asserted):
    """An initial-model object that event 0's asserted snapshot drops, or
    gives another class, is never seen under its initial class: it owes no
    events as such, and the initial model is no snapshot to compare with."""
    model = _two_class_model()
    init = ObjectModel(class_of={"t1": "ticket", "t2": "ticket"}, relations=frozenset())
    log = EventLog(
        init=init,
        events=(
            event("p1", 1, "pay", {"t2"},
                  assert_snapshot=ObjectModel(class_of=asserted, relations=frozenset())),
            event("p2", 2, "pay"),
        ),
    )
    oracle = sort_violations(naive_check(model, log))
    for kind in ("III", "VII"):
        assert check_violations(model, log, (kind,)) == [v for v in oracle if v.kind == kind], kind
    assert check_violations(model, log) == oracle
    assert not [v for v in oracle if v.kind == "III" or v.cls == "ticket" and v.obj == "t1"]


def test_kind_filter():
    model, log = ticket_model(), ticket_log()
    only_nine = check_all(model, log, kinds=("IX",))
    assert only_nine.conforms
    only_seven = check_all(model, log, kinds=("VII",))
    assert [v.kind for v in only_seven.violations] == ["VII", "VII"]


def test_kind_filter_takes_each_kind_once():
    model, log = ticket_model(), ticket_log()
    assert check_violations(model, log, kinds=("VII", "VII")) == check_violations(model, log, kinds=("VII",))
    assert check_violations(model, log, kinds=("VIII", "VII", "VIII")) == check_violations(model, log)
    with pytest.raises(ValueError):
        check_violations(model, log, kinds=("VII", "X"))


def test_prefix_mode_downgrades_eventual_violations():
    model, log = ticket_model(), ticket_log()
    report = check_all(model, log, prefix=True)
    severities = {(v.kind, v.temporal): v.severity for v in report.violations}
    assert severities[("VII", "always")] == "error"
    assert severities[("VII", "eventually")] == "warning"
    assert severities[("VIII", "")] == "error"
    assert not report.conforms  # errors remain


def test_prefix_mode_on_truncated_conforming_run():
    model, log = order_process_model(), order_process_log()
    prefix = EventLog(init=log.init, events=log.events[:7])
    report = check_all(model, prefix, prefix=True)
    assert report.conforms
    assert all(v.severity == "warning" for v in report.violations)
    assert report.warnings


def test_truncation_of_conforming_log_adds_only_eventual_violations():
    model, log = order_process_model(), order_process_log()
    for cut in range(len(log.events) + 1):
        truncated = EventLog(init=log.init, events=log.events[:cut])
        for v in check_all(model, truncated).violations:
            if v.kind == "II" or (v.kind == "VII" and v.temporal == "eventually"):
                continue
            assert v.kind == "IX", (cut, v)
            ctype = model.bcm.constraint(v.constraint).ctype
            assert ctype.future_fixable(v.before, v.after), (cut, v)


def test_prefix_mode_errors_are_reported_on_the_full_log():
    """At every cut k, each prefix-mode error on log[:k] is also reported on
    the full log (the counts it carries may grow), unless the full log
    reports a type III for an object that the error's reference event
    references.

    Correlation reads the final snapshot, so a later assertion that deletes
    a referenced object or changes its class removes the full log's
    correlation, and with it an error the prefix reported; the full log
    reports that broken monotonicity as type III instead.  Only IX errors
    use this exemption, at random seeds 176, 491 and 499.
    """
    same = ("kind", "event", "constraint", "obj", "activity", "cls", "rel_type", "side", "temporal", "detail")

    def key(v):
        return tuple(getattr(v, field) for field in same)

    exempted = set()
    for seed in range(500):
        rng = random.Random(seed)
        model = random_model(rng)
        log = random_log(rng, model)
        reported = check_violations(model, log)
        full = {key(v) for v in reported}
        not_monotone = {v.obj for v in reported if v.kind == "III"}
        for cut in range(len(log.events) + 1):
            prefix = EventLog(init=log.init, events=log.events[:cut])
            for v in check_violations(model, prefix, prefix=True):
                if v.severity == "error" and key(v) not in full:
                    assert v.kind == "IX" and log.event(v.event).objects & not_monotone, (seed, cut, v)
                    exempted.add(seed)
    assert exempted == {176, 491, 499}


def test_determinism_of_violation_order():
    model, log = ticket_model(), ticket_log()
    first = check_all(model, log).violations
    second = check_all(model, log).violations
    assert first == second
