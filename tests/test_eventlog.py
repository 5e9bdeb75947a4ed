from __future__ import annotations

import gc
import json
import random
import tracemalloc
from operator import ge, gt, le, lt
from pathlib import Path
from types import MappingProxyType

import pytest

from ocbcheck import (
    Cardinality,
    CardinalityError,
    ConstraintType,
    Event,
    EventLog,
    FormatError,
    LogError,
    ObjectDelta,
    ObjectModel,
    check_violations,
    load_log,
    save_log,
)
from ocbcheck.eventlog import EMPTY_DELTA
from ocbcheck.violations import sort_violations
from oracle import fold_snapshots, naive_check
from scenarios import (
    class_flip_log,
    desk_model,
    event,
    hiring_log,
    named_and_random_pairs,
    order_object_model,
    order_process_log,
    persistent_breach_log,
    precedence_log,
    random_case_scenario,
    random_log,
    random_model,
    relink_log,
    ticket_log,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"


def test_snapshot_after_single_delta():
    log = EventLog(events=(event("e1", 1, "make", new_objects=[("o1", "thing")]),))
    snapshot = log.snapshot_after("e1")
    assert snapshot.objects == {"o1"}
    assert snapshot.class_of["o1"] == "thing"


def test_snapshot_add_then_remove_relation():
    log = EventLog(
        events=(
            event("e1", 1, "make", new_objects=[("o1", "a"), ("ol1", "b")]),
            event("e2", 2, "link", new_relations=[("r1", "o1", "ol1")]),
            event("e3", 3, "unlink", removed_relations=[("r1", "o1", "ol1")]),
        )
    )
    assert ("r1", "o1", "ol1") in log.snapshot_after("e2").relations
    assert ("r1", "o1", "ol1") not in log.snapshot_after("e3").relations


def test_a_log_does_not_equal_another_type():
    """`__eq__` leaves any other type to Python, so it compares unequal,
    also to a tuple of the log's init and events."""
    log = order_process_log()
    assert log.__eq__(object()) is NotImplemented
    assert log != object() and log != (log.init, log.events) and not log == None  # noqa: E711
    assert log == order_process_log()


def test_replaying_deltas_reaches_the_population_snapshot():
    om, log = order_object_model()
    replayed = log.snapshot_after("e1")
    assert len(replayed.objects) == 21
    assert replayed.class_of == om.class_of
    assert replayed.relations == om.relations


def test_events_of_activity_in_order():
    log = precedence_log()
    assert log.events_of_activity("a1") == ["e1", "e4"]
    assert log.events_of_activity("a2") == ["e2", "e3", "e5", "e6", "e7"]
    assert log.events_of_activity("unused") == []


def _around(log, pivot, within, keep):
    """Events of `within` whose log position p satisfies keep(p, pivot's position)."""
    position = log.index_of(pivot)
    return {e for e in within if keep(log.index_of(e), position)}


def test_before_and_after():
    log = precedence_log()
    a1_events = log.events_of_activity("a1")
    assert _around(log, "e3", a1_events, lt) == {"e1"}
    assert _around(log, "e1", log.events_of_activity("a2"), lt) == set()
    assert _around(log, "e7", a1_events, lt) == {"e1", "e4"}
    assert _around(log, "e3", a1_events, gt) == {"e4"}
    assert _around(log, "e4", a1_events, le) == {"e1", "e4"}
    assert _around(log, "e4", a1_events, ge) == {"e4"}


def test_before_after_partition():
    log = order_process_log()
    ids = [e.id for e in log.events]
    for pivot in ("e1", "e8", "e20"):
        others = set(ids) - {pivot}
        before, after = _around(log, pivot, others, lt), _around(log, pivot, others, gt)
        assert before | after == others
        assert not before & after


def test_objects_of_class():
    om, _ = order_object_model()
    assert om.objects_of_class("order") == {"o1", "o2", "o3"}
    assert om.objects_of_class("delivery") == {"d1", "d2"}
    assert ObjectModel({}, frozenset()).objects_of_class("order") == set()


def test_replay_determinism():
    log = order_process_log()
    first = [log.snapshot_after(e.id) for e in log.events]
    second = [log.snapshot_after(e.id) for e in log.events]
    assert first == second


def test_monotone_growth_for_delta_logs():
    log = order_process_log()
    previous: set[str] = set()
    for e in log.events:
        current = set(log.snapshot_after(e.id).objects)
        assert previous <= current
        previous = current


def test_events_sorted_by_seq():
    log = EventLog(
        events=(event("late", 5, "a"), event("early", 2, "a"))
    )
    assert [e.id for e in log.events] == ["early", "late"]


def test_duplicate_seq_rejected():
    with pytest.raises(LogError, match="duplicate seq"):
        EventLog(events=(event("e1", 3, "a"), event("e2", 3, "a")))


def test_duplicate_event_id_rejected():
    with pytest.raises(LogError, match="duplicate event id"):
        EventLog(events=(event("e1", 1, "a"), event("e1", 2, "a")))


def test_duplicate_object_rejected():
    with pytest.raises(LogError, match="already exists"):
        EventLog(
            events=(
                event("e1", 1, "a", new_objects=[("o1", "k")]),
                event("e2", 2, "a", new_objects=[("o1", "k")]),
            )
        )


def test_dangling_relation_endpoint_rejected():
    with pytest.raises(LogError, match="unknown object"):
        EventLog(events=(event("e1", 1, "a", new_relations=[("r", "o1", "o2")]),))


def test_object_models_from_input_reject_dangling_relations():
    with pytest.raises(LogError, match=r"relation \('r', 'o1', 'o2'\) references unknown object 'o2'"):
        ObjectModel(class_of={"o1": "k"}, relations=frozenset({("r", "o1", "o2")}))
    init = {"init": {"objects": [{"id": "o1", "class": "k"}], "relations": [["r", "o1", "o2"]]}}
    with pytest.raises(FormatError, match="line 1.init: relation .* unknown object 'o2'"):
        load_log(json.dumps(init))
    asserted = {"id": "e1", "seq": 1, "activity": "a",
                "assert_snapshot": {"objects": [{"id": "o1", "class": "k"}], "relations": [["r", "o2", "o1"]]}}
    with pytest.raises(FormatError, match="line 1.assert_snapshot: relation .* unknown object 'o2'"):
        load_log(json.dumps(asserted))


def test_fold_snapshots_skip_the_dangling_relation_scan(monkeypatch):
    log = order_process_log()
    middle = len(log.events) // 2
    expected = [log.snapshot_after(e.id) for e in (log.events[middle], log.events[-1])]

    def scan(cls, *fields):
        raise AssertionError("re-checked a snapshot the fold made")

    monkeypatch.setattr(ObjectModel, "__new__", scan)
    halfway = log.snapshot_after(log.events[middle].id)
    assert [halfway, log.snapshot_after(log.events[-1].id)] == expected
    assert EventLog(init=log.init, events=log.events).final_snapshot() == expected[1]
    assert type(halfway.class_of) is MappingProxyType and type(halfway.relations) is frozenset


def test_the_fold_copies_a_class_map_only_to_add_to_it():
    init = ObjectModel(class_of={"k1": "k"}, relations=frozenset())
    asserted = ObjectModel(class_of={"k1": "k", "k2": "k"}, relations=frozenset())
    events = (
        event("e1", 1, "a", {"k1"}, new_relations=[("r", "k1", "k1")]),
        event("e2", 2, "a", new_objects=[("k3", "k")]),
        event("e3", 3, "a", assert_snapshot=asserted),
        event("e4", 4, "a", new_objects=[("k4", "k")]),
    )
    # The fold after the first k events: the final snapshot wraps the last stretch's map.
    folded = [EventLog(init, events[:k]) for k in range(len(events) + 1)]
    assert folded[0].final_snapshot().class_of is init.class_of
    assert folded[1].final_snapshot().class_of is init.class_of
    last = folded[2]._stretches[-1][1]
    assert type(last) is dict and last == {"k1": "k", "k3": "k"}
    assert folded[3].final_snapshot().class_of is asserted.class_of
    last = folded[4]._stretches[-1][1]
    assert type(last) is dict and last == {"k1": "k", "k2": "k", "k4": "k"}
    assert dict(init.class_of) == {"k1": "k"} and dict(asserted.class_of) == {"k1": "k", "k2": "k"}
    log = EventLog(init=init, events=(event("e1", 1, "a", new_objects=[("k2", "k")]),))
    assert dict(init.class_of) == {"k1": "k"} and log.final_snapshot().objects == {"k1", "k2"}
    # A log that adds no objects shares its initial map with every stretch and the final snapshot.
    still = EventLog(init=init, events=(event("e1", 1, "a", {"k1"}), event("e2", 2, "a", assert_snapshot=init)))
    assert len(still._stretches) == 2 and all(class_of is init.class_of for _, class_of in still._stretches)
    assert still.final_snapshot().class_of is init.class_of


def test_removing_absent_relation_rejected():
    with pytest.raises(LogError, match="absent relation"):
        EventLog(
            events=(
                event("e1", 1, "a", new_objects=[("o1", "k"), ("o2", "k")]),
                event("e2", 2, "a", removed_relations=[("r", "o1", "o2")]),
            )
        )


def test_re_adding_relation_is_idempotent():
    log = EventLog(
        events=(
            event("e1", 1, "a", new_objects=[("o1", "k"), ("o2", "k")], new_relations=[("r", "o1", "o2")]),
            event("e2", 2, "a", new_relations=[("r", "o1", "o2")]),
            event("e3", 3, "a", removed_relations=[("r", "o1", "o2")]),
        )
    )
    assert log.snapshot_after("e3").relations == frozenset()


def test_dangling_reference_warns_but_loads():
    log = EventLog(events=(event("e1", 1, "a", objects={"nobody"}),))
    assert log.warnings == (
        "event 'e1' (seq 1) references object 'nobody' that does not exist in its snapshot",
    )


def test_reference_to_object_created_by_same_event_is_fine():
    log = EventLog(events=(event("e1", 1, "a", objects={"o1"}, new_objects=[("o1", "k")]),))
    assert log.warnings == ()


def test_assert_snapshot_replaces_state():
    asserted = ObjectModel(class_of={"o2": "k"}, relations=frozenset())
    log = EventLog(
        events=(
            event("e1", 1, "a", new_objects=[("o1", "k")]),
            event("e2", 2, "a", assert_snapshot=asserted),
        )
    )
    assert log.snapshot_after("e1").objects == {"o1"}
    assert log.snapshot_after("e2").objects == {"o2"}


def test_unknown_event_id():
    log = EventLog(events=(event("e1", 1, "a"),))
    with pytest.raises(LogError, match="unknown event id"):
        log.snapshot_after("e9")


def test_init_model_precedes_first_event():
    init = ObjectModel(class_of={"o0": "k"}, relations=frozenset())
    log = EventLog(init=init, events=(event("e1", 1, "a", new_objects=[("o1", "k")]),))
    assert log.snapshot_after("e1").objects == {"o0", "o1"}
    assert log.final_snapshot().objects == {"o0", "o1"}
    assert EventLog(init=init).final_snapshot() == init


def test_kept_final_snapshot_equals_the_fold_to_the_last_event():
    logs = {
        name: load_log((DEMO / f"{name}.oclog.jsonl").read_bytes())
        for name in ("order-process", "unmatched-precedence")
    }
    logs["order process"] = order_process_log()
    logs["order object model"] = order_object_model()[1]
    logs["tickets"] = ticket_log()
    logs["precedence"] = precedence_log()
    for order in ("conforming", "apply-before-open", "apply-after-close"):
        logs[f"hiring {order}"] = hiring_log(order)
    for seed in range(200):
        rng = random.Random(seed)
        logs[f"random seed {seed}"] = random_log(rng, random_model(rng))
        logs[f"case scenario seed {seed}"] = random_case_scenario(random.Random(seed))[1]
    asserted = 0
    for name, log in logs.items():
        if not log.events:
            assert log.final_snapshot() == log.init, name
            continue
        assert log.final_snapshot() == log.snapshot_after(log.events[-1].id) == fold_snapshots(log)[-1], name
        asserted += any(e.delta.assert_snapshot is not None for e in log.events)
    assert asserted >= 20
    init = ObjectModel(class_of={"o0": "k"}, relations=frozenset())
    assert EventLog(init=init).final_snapshot() is init


def test_event_invariants():
    with pytest.raises(LogError, match="outside the 64-bit positive range"):
        Event(id="e0", seq=0, activity="a")
    built = Event(id="e1", seq=1, activity="a", objects=["o2", "o1", "o2"], attrs={"k": "v"})
    with pytest.raises(LogError, match="outside the 64-bit positive range"):
        built._replace(seq=2**63)
    assert built.objects == frozenset({"o1", "o2"})
    assert type(built.objects) is frozenset
    with pytest.raises(TypeError):
        built.attrs["k"] = "w"  # type: ignore[index]
    with pytest.raises(TypeError):
        Event(id="e2", seq=2, activity="a").attrs["k"] = "w"  # type: ignore[index]
    with pytest.raises(AttributeError):
        built.seq = 5  # type: ignore[misc]
    delta = ObjectDelta(
        new_objects=[("o2", "k"), ("o1", "k")],
        new_relations=[("r", "o2", "o1"), ("r", "o1", "o2")],
        removed_relations=[("s", "o2", "o1"), ("r", "o1", "o2")],
    )
    assert delta.new_objects == (("o1", "k"), ("o2", "k"))
    assert delta.new_relations == (("r", "o1", "o2"), ("r", "o2", "o1"))
    assert delta.removed_relations == (("r", "o1", "o2"), ("s", "o2", "o1"))
    assert ObjectDelta(new_objects=[("o1", "k")]).new_objects == (("o1", "k"),)
    as_tuples = ObjectDelta(new_relations=(("r", "o2", "o1"), ("r", "o1", "o2")))
    assert as_tuples.new_relations == (("r", "o1", "o2"), ("r", "o2", "o1"))
    replaced = delta._replace(new_relations=[("r", "o2", "o1"), ("q", "o1", "o2")])
    assert replaced.new_relations == (("q", "o1", "o2"), ("r", "o2", "o1"))
    assert replaced.new_objects == delta.new_objects
    assert replaced.removed_relations == delta.removed_relations
    for instance in (built, delta):
        for name in instance._fields:
            with pytest.raises(AttributeError):
                setattr(instance, name, None)
            with pytest.raises(AttributeError):
                delattr(instance, name)


def test_event_messages_fields_and_hashing():
    with pytest.raises(LogError) as caught:
        Event(id="e0", seq=0, activity="a")
    assert str(caught.value) == "seq 0 outside the 64-bit positive range"
    assert caught.value.event_id == "e0"
    built = Event("e1", 1, "a", ["o1"], {"k": "v"})
    with pytest.raises(LogError) as caught:
        built._replace(seq=2**63)
    assert str(caught.value) == "seq 9223372036854775808 outside the 64-bit positive range"
    assert built._replace(activity="b") == Event("e1", 1, "b", {"o1"}, {"k": "v"})
    assert repr(Event("e2", 2, "a")) == (
        "Event(id='e2', seq=2, activity='a', objects=frozenset(), attrs=mappingproxy({}), "
        "delta=ObjectDelta(new_objects=(), new_relations=(), removed_relations=(), "
        "assert_snapshot=None))"
    )
    # The field types are those of the NamedTuple that `Event` extends.
    annotations = Event.__mro__[1].__annotations__
    assert [(name, ref.__forward_arg__) for name, ref in annotations.items()] == [
        ("id", "str"),
        ("seq", "int"),
        ("activity", "str"),
        ("objects", "frozenset[str]"),
        ("attrs", "Mapping[str, str]"),
        ("delta", "ObjectDelta"),
    ]
    assert Event._fields == ("id", "seq", "activity", "objects", "attrs", "delta")
    assert Event._field_defaults == {"objects": frozenset(), "attrs": {}, "delta": ObjectDelta()}
    assert ObjectDelta._fields == ("new_objects", "new_relations", "removed_relations", "assert_snapshot")
    # Every field is a tuple item: no instance has a __dict__.
    assert Event.__slots__ == ObjectDelta.__slots__ == ()
    assert not hasattr(built, "__dict__") and not hasattr(ObjectDelta(), "__dict__")
    # attrs (and an ObjectModel's class_of) are read-only mapping views, which do not hash.
    with pytest.raises(TypeError):
        hash(built)
    with pytest.raises(TypeError):
        hash(ObjectModel(class_of={}, relations=frozenset()))


def test_every_checked_record_checks_again_on_replace():
    """`_replace` builds through the same checks as the constructor, as
    `dataclasses.replace` did: each checked record normalizes or refuses
    the changed fields."""
    card = Cardinality(((1, 1),))
    assert card._replace(ranges=((4, 6), (0, 2), (3, 3))).ranges == ((0, 6),)
    with pytest.raises(CardinalityError, match="negative bound"):
        card._replace(ranges=((-1, 2),))
    ctype = ConstraintType(after=card)
    assert ctype._replace(after=None, total=card) == ConstraintType(total=card)
    with pytest.raises(ValueError, match="at least one of before/after/sum"):
        ctype._replace(after=None)
    model = ObjectModel(class_of={"o1": "k", "o2": "k"}, relations=frozenset())
    linked = model._replace(relations={("r", "o1", "o2")})
    assert type(linked.relations) is frozenset and type(linked.class_of) is MappingProxyType
    with pytest.raises(LogError, match="references unknown object 'o3'"):
        model._replace(relations={("r", "o1", "o3")})
    delta = ObjectDelta(new_objects=[("o1", "k")])
    moved = delta._replace(new_objects=[("o2", "k"), ("o1", "k")], removed_relations={("r", "o2", "o1")})
    assert moved.new_objects == (("o1", "k"), ("o2", "k")) and moved.removed_relations == (("r", "o2", "o1"),)
    built = Event("e1", 1, "a", ["o1"])
    with pytest.raises(LogError, match="seq 0 outside the 64-bit positive range"):
        built._replace(seq=0)
    assert built._replace(seq=2**63 - 1, objects=["o2"]).objects == frozenset({"o2"})


def test_records_are_value_tuples():
    """Equal fields make equal records, and a record equals the plain tuple
    of its fields, as any named tuple does."""
    assert Cardinality(((3, 4), (1, 2))) == Cardinality(((1, 4),)) == (((1, 4),),)
    assert Event("e1", 1, "a", {"o1"}, {"k": "v"}) == Event("e1", 1, "a", ["o1"], {"k": "v"})
    assert ObjectDelta(new_relations=[("r", "o2", "o1"), ("r", "o1", "o2")]) == (
        (), (("r", "o1", "o2"), ("r", "o2", "o1")), (), None
    )


def test_decoded_events_share_the_one_empty_delta():
    """The checks test `delta is EMPTY_DELTA`, so an event line without delta
    keys, and an event built without a delta, carry that very delta."""
    log = load_log(b'{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o1", "class": "k"}]}\n'
                   b'{"id": "e2", "seq": 2, "activity": "a", "objects": ["o1"]}\n')
    assert log.events[0].delta is not EMPTY_DELTA
    assert log.events[1].delta is EMPTY_DELTA and Event("e3", 3, "a").delta is EMPTY_DELTA
    assert ObjectDelta() == EMPTY_DELTA


def test_asserted_stretches_keep_the_snapshot_map():
    """An asserted stretch that adds no objects keeps its snapshot's own
    class map rather than a copy of it: the build over a log with 1,000 such
    stretches retains about half of what it did with copies, and makes none
    on the way."""
    log = class_flip_log(4000)
    asserted = [e.delta.assert_snapshot.class_of for e in log.events if e.delta.assert_snapshot is not None]
    assert len(log._stretches) == len(asserted) + 1 == 1001
    assert all(kept is own for (_, kept), own in zip(log._stretches[1:], asserted))
    # A stretch that adds an object keeps the fold's own map, which holds it.
    grown = EventLog(events=(
        event("e1", 1, "a", assert_snapshot=ObjectModel(class_of={"o1": "k"}, relations=frozenset())),
        event("e2", 2, "a", new_objects=[("o2", "k")]),
    ))
    assert dict(grown._stretches[1][1]) == {"o1": "k", "o2": "k"}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = EventLog(init=log.init, events=log.events)
        gc.collect()
        retained, peak = (traced - before for traced in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert built == log
    # 953 KiB while each stretch kept a copy; 436 KiB before the build kept stretches.
    assert retained < 600 * 1024, f"the build retains {retained / 1024:.0f} KiB"
    # 913 KiB while the fold copied every snapshot's map and then dropped the copies.
    assert peak < 600 * 1024, f"the build peaks at {peak / 1024:.0f} KiB"


def _brought_in_by_walk(log: EventLog) -> list:
    """`introductions()` written out as a walk over every event."""
    walked = []
    for index, e in enumerate(log.events):
        delta = e.delta
        if index and delta is EMPTY_DELTA:
            continue
        if delta.assert_snapshot is not None:
            walked.append((index, list(delta.assert_snapshot.class_of.items())))
        elif index:
            walked.append((index, list(delta.new_objects)))
        else:
            walked.append((index, [*log.init.class_of.items(), *delta.new_objects]))
    return walked


def _change_edge_logs() -> dict[str, EventLog]:
    """Logs whose event 0, or an empty delta, sits at the edge of the build's change index."""
    init = ObjectModel(class_of={"d1": "desk", "t0": "ticket", "t1": "ticket"}, relations={("at", "t1", "d1")})
    asserted = ObjectModel(class_of={"d1": "desk", "t0": "desk", "t2": "ticket", "t4": "ticket"},
                           relations={("at", "t2", "t0")})
    lines = [
        {"init": {"objects": [{"id": "d1", "class": "desk"}, {"id": "t0", "class": "ticket"}], "relations": []}},
        {"id": "e1", "seq": 1, "activity": "open", "objects": ["t0"], "new_objects": []},
        {"id": "e2", "seq": 2, "activity": "open", "objects": ["t1"], "new_objects": [{"id": "t1", "class": "ticket"}]},
        {"id": "e3", "seq": 3, "activity": "note", "objects": ["d1"], "new_objects": []},
        {"id": "e4", "seq": 4, "activity": "note", "objects": ["t1"]},
    ]
    return {
        "init without a first delta": EventLog(init=init, events=(
            Event("e1", 1, "note", {"t0"}),
            Event("e2", 2, "open", {"t2", "d1"}, delta=ObjectDelta(
                new_objects=[("t2", "ticket")], new_relations=[("at", "t2", "d1")])),
            Event("e3", 3, "note", {"t1"}),
        )),
        "first event asserts": EventLog(init=init, events=(
            Event("e1", 1, "open", {"t0", "t1"}, delta=ObjectDelta(assert_snapshot=asserted)),
            Event("e2", 2, "note", {"t2"}),
            Event("e3", 3, "open", {"t3"}, delta=ObjectDelta(new_objects=[("t3", "ticket")])),
        )),
        "empty new_objects line": load_log("".join(json.dumps(line) + "\n" for line in lines)),
    }


def _change_logs() -> list[EventLog]:
    logs = [log for _, log in named_and_random_pairs()]
    logs += [relink_log(300), class_flip_log(400), persistent_breach_log(300), *_change_edge_logs().values()]
    # A scenario event never carries the shared empty delta; read back, an empty one does.
    return logs + [load_log(save_log(log)) for log in logs]


def test_the_change_index_holds_event_0_and_every_delta_event():
    """The build's `_changes` holds event 0 and every event whose delta is
    not the shared empty one, and `introductions()` derived from it equals
    a walk over every event."""
    for log in _change_logs():
        assert log._changes == [i for i, e in enumerate(log.events) if not i or e.delta is not EMPTY_DELTA]
        assert [(i, list(pairs)) for i, pairs in log.introductions()] == _brought_in_by_walk(log)
    edges = _change_edge_logs()
    assert edges["init without a first delta"].events[0].delta is EMPTY_DELTA
    assert edges["init without a first delta"]._changes == [0, 1]
    assert edges["first event asserts"]._changes == [0, 2]
    read = edges["empty new_objects line"]
    assert read.events[0].delta == read.events[2].delta == EMPTY_DELTA
    assert read.events[0].delta is not EMPTY_DELTA and read.events[3].delta is EMPTY_DELTA
    assert read._changes == [0, 1, 2]


@pytest.mark.parametrize("name", list(_change_edge_logs()))
def test_the_change_index_edges_check_as_the_oracle(name):
    """On the change index's edge logs type I, alone and beside the other
    kinds, equals the oracle in full and prefix mode."""
    model, log = desk_model(), _change_edge_logs()[name]
    oracle = sort_violations(naive_check(model, log))
    type_i = [v for v in oracle if v.kind == "I"]
    assert type_i
    for prefix in (False, True):
        assert check_violations(model, log, ("I",), prefix) == type_i, prefix
        expected = [v.downgraded() if prefix and v.kind == "II" else v for v in oracle]
        assert check_violations(model, log, prefix=prefix) == expected, prefix
