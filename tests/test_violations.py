"""The `Violation` record: immutable, hashable, equal by value, with fixed defaults."""

from __future__ import annotations

import json

import pytest

from ocbcheck import Violation, check_all, load_log, load_model, load_report, save_report

HUB_MODEL = {
    "activities": ["open", "pay"],
    "classes": ["desk", "ticket"],
    "relationships": [{"id": "at", "source": "ticket", "target": "desk", "card_tar_always": "1"}],
    "aoc": [
        {"activity": "open", "class": "ticket", "card_act_always": "1", "card_obj": "1"},
        {"activity": "open", "class": "desk", "card_obj": "1"},
        {"activity": "pay", "class": "ticket", "card_act_always": "0..1", "card_act_eventually": "1"},
        {"activity": "pay", "class": "desk", "card_obj": "1"},
    ],
    "constraints": [
        {"id": "c1", "type": "response", "ref": "open", "target": "pay", "via": "ticket"},
        {"id": "c2", "type": "precedence", "ref": "pay", "target": "open", "via": "desk"},
    ],
}


def hub_log(tickets: int, without_desk: int) -> bytes:
    """Tickets opened and paid at desk d0; the first `without_desk` never get
    their `at` relation, so each yields a type I violation at every later event."""
    lines = [json.dumps({"init": {"objects": [{"id": "d0", "class": "desk"}]}})]
    for i in range(1, tickets + 1):
        opened = {"id": f"o{i}", "seq": 2 * i - 1, "activity": "open", "objects": [f"t{i}", "d0"]}
        opened["new_objects"] = [{"id": f"t{i}", "class": "ticket"}]
        if i > without_desk:
            opened["new_relations"] = [["at", f"t{i}", "d0"]]
        paid = {"id": f"p{i}", "seq": 2 * i, "activity": "pay", "objects": [f"t{i}", "d0"]}
        lines += [json.dumps(opened), json.dumps(paid)]
    return ("\n".join(lines) + "\n").encode()


def test_fields_cannot_be_assigned():
    v = Violation(kind="IX", event="e1", seq=1, constraint="c", before=0, after=0)
    with pytest.raises(AttributeError):
        v.seq = 2
    with pytest.raises(AttributeError):
        v.severity = "warning"


def test_equal_violations_hash_and_compare_equal():
    a = Violation(kind="I", event="e3", seq=3, rel_type="at", side="tar", obj="t1", temporal="always", observed=0)
    b = Violation(kind="I", event="e3", seq=3, rel_type="at", side="tar", obj="t1", temporal="always", observed=0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != a._replace(observed=2)


def test_defaults():
    assert Violation(kind="I")._asdict() == {
        "kind": "I",
        "event": "",
        "seq": -1,
        "constraint": "",
        "obj": "",
        "activity": "",
        "cls": "",
        "rel_type": "",
        "side": "",
        "temporal": "",
        "observed": None,
        "expected": "",
        "before": None,
        "after": None,
        "detail": "",
        "severity": "error",
    }


def test_downgraded_returns_a_warning_copy():
    v = Violation(kind="II", event="e9", seq=9, rel_type="at", side="tar", obj="t1", observed=0, expected="1")
    warning = v.downgraded()
    assert warning.severity == "warning"
    assert v.severity == "error"
    assert warning._replace(severity="error") == v


def test_report_with_thousands_of_persistent_type_i_violations_round_trips():
    model = load_model(json.dumps(HUB_MODEL))
    report = check_all(model, load_log(hub_log(tickets=400, without_desk=3)))
    # t_k lacks its desk from event 2k-1 to the last of 800 events.
    assert report.summary["I"] == sum(800 - (2 * k - 1) + 1 for k in (1, 2, 3)) == 2394
    assert report.summary["II"] == 3 and not report.conforms
    data = save_report(report)
    rebuilt = load_report(data)
    assert rebuilt == report
    assert save_report(rebuilt) == data
