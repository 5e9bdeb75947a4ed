from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

import pytest

from ocbcheck import (
    KINDS,
    BcModel,
    ConstraintType,
    Event,
    EventLog,
    FormatError,
    InjectionError,
    ModelDefectsError,
    ObjectDelta,
    ObjectModel,
    OcbcModel,
    Violation,
    aggregate,
    check_all,
    generate_conforming,
    inject_violation,
    load_log,
    load_model,
    load_report,
    parse_cardinality,
    save_log,
    save_model,
    save_report,
)
from ocbcheck import formats
from ocbcheck.cli import main
from ocbcheck.cardinality import ANY
from ocbcheck.eventlog import MAX_SEQ
from ocbcheck.model import validate_model
from scenarios import (
    CARD_PAIRS,
    MULTI_RANGE_PAIRS,
    desk_model,
    hiring_log,
    hiring_model,
    named_and_random_pairs,
    order_process_log,
    order_process_model,
    persistent_breach_log,
    precedence_log,
    precedence_model,
    random_log,
    random_model,
    throughput_model,
    ticket_log,
    ticket_model,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"


FIG_MODEL = {
    "activities": ["a1", "a2"],
    "classes": ["oca", "ocb"],
    "relationships": [{"id": "r", "source": "oca", "target": "ocb"}],
    "aoc": [{"activity": "a1", "class": "oca"}, {"activity": "a2", "class": "ocb"}],
    "constraints": [
        {"id": "c", "type": "unary-precedence", "ref": "a2", "target": "a1", "via": "r"}
    ],
}


def as_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


def edited(base, **kwargs):
    doc = json.loads(json.dumps(base))
    doc.update(kwargs)
    return doc


# -- model documents -----------------------------------------------------------


def test_load_minimal_model():
    model = load_model(as_bytes(FIG_MODEL))
    assert model.bcm.activities == {"a1", "a2"}
    assert model.scope["c"] == "r"
    assert model == precedence_model()


def _custom_ctype_model():
    """The order model with its first constraints given types that are no
    template; returns the model and those constraints."""
    model = order_process_model()
    ctypes = [
        ConstraintType(before=parse_cardinality("1..*"), after=parse_cardinality("0..1,3"),
                       total=parse_cardinality("2..*")),
        ConstraintType(after=parse_cardinality("0,2..4")),
        ConstraintType(total=parse_cardinality("2..3")),
        ConstraintType(before=parse_cardinality("0"), after=parse_cardinality("1")),
    ]
    constraints = [c._replace(ctype=ct) for c, ct in zip(model.bcm.constraints, ctypes)]
    bcm = BcModel(model.bcm.activities, (*constraints, *model.bcm.constraints[len(ctypes):]))
    return OcbcModel(bcm, model.clam, model.links, model.scope), constraints


def test_model_round_trip_is_byte_stable():
    models = (order_process_model(), hiring_model(), ticket_model(), precedence_model(), _custom_ctype_model()[0])
    for model in models:
        data = save_model(model)
        assert load_model(data) == model
        assert save_model(load_model(data)) == data


def test_a_cardinality_is_saved_exactly_when_it_differs_from_its_default():
    """An omitted eventual cardinality takes its always value, and any other
    omitted cardinality is `*`: each `card_*` key is written exactly when
    its value differs from that default, and the document loads back to
    the model, or to the model's defects when it has some."""
    written, loaded = Counter(), 0
    for pairs, seed in product((CARD_PAIRS, MULTI_RANGE_PAIRS), range(300)):
        model = random_model(random.Random(seed), pairs)
        data = save_model(model)
        doc = json.loads(data)
        expected = []
        for rt in model.clam.rel_types:
            expected.append({
                "card_src_always": (rt.card_src_always, ANY),
                "card_src_eventually": (rt.card_src_eventually, rt.card_src_always),
                "card_tar_always": (rt.card_tar_always, ANY),
                "card_tar_eventually": (rt.card_tar_eventually, rt.card_tar_always),
            })
        for link in model.links:
            expected.append({
                "card_act_always": (link.card_events_always, ANY),
                "card_act_eventually": (link.card_events_eventually, link.card_events_always),
                "card_obj": (link.card_objects, ANY),
            })
        for entry, cards in zip(doc["relationships"] + doc["aoc"], expected, strict=True):
            assert {key: text for key, text in entry.items() if key.startswith("card_")} == {
                key: card.render() for key, (card, default) in cards.items() if card != default
            }, seed
            written.update((key, key in entry) for key in cards)
        defects = validate_model(model)
        if defects:
            with pytest.raises(ModelDefectsError) as caught:
                load_model(data)
            assert caught.value.defects == defects, seed
        else:
            assert load_model(data) == model, seed
            loaded += 1
    # Every key is both written and left out somewhere, and most models load.
    assert len(written) == 14 and loaded >= 100, (written, loaded)


def test_custom_constraint_types_are_saved_as_their_atoms():
    model, constraints = _custom_ctype_model()
    saved = {c["id"]: c["type"] for c in json.loads(save_model(model))["constraints"]}
    assert saved[constraints[0].id] == {"after": "0..1,3", "before": "1..*", "sum": "2..*"}
    assert [saved[c.id] for c in constraints[1:]] == [{"after": "0,2..4"}, {"sum": "2..3"}, {"after": "1", "before": "0"}]


def test_order_process_model_counts():
    data = save_model(order_process_model())
    model = load_model(data)
    assert len(model.bcm.activities) == 4
    assert len(model.clam.classes) == 5
    assert len(model.clam.rel_types) == 5
    assert len(model.bcm.constraints) == 9


def test_pair_shorthand_expansion_on_load():
    doc = {
        "activities": ["open", "close"],
        "classes": ["pos"],
        "aoc": [{"activity": "open", "class": "pos"}, {"activity": "close", "class": "pos"}],
        "constraints": [
            {
                "id": "c3", "type": "unary-response", "ref": "open", "target": "close",
                "via": "pos", "pair": "unary-precedence",
            }
        ],
    }
    model = load_model(as_bytes(doc))
    ids = sorted(c.id for c in model.bcm.constraints)
    assert ids == ["c3#1", "c3#2"]
    forward = model.bcm.constraint("c3#1")
    backward = model.bcm.constraint("c3#2")
    assert (forward.ref_activity, forward.target_activity) == ("open", "close")
    assert (backward.ref_activity, backward.target_activity) == ("close", "open")


def test_hiring_model_expands_three_pairs():
    assert len(hiring_model().bcm.constraints) == 11
    reloaded = load_model(save_model(hiring_model()))
    assert len(reloaded.bcm.constraints) == 11


def test_inline_constraint_type():
    doc = edited(
        FIG_MODEL,
        constraints=[{"id": "c", "type": {"before": "0..1", "sum": "1..*"}, "ref": "a2",
                      "target": "a1", "via": "r"}],
    )
    ctype = load_model(as_bytes(doc)).bcm.constraint("c").ctype
    assert ctype.before is not None and ctype.total is not None and ctype.after is None


def test_model_syntax_error_reports_location():
    with pytest.raises(FormatError, match="invalid JSON"):
        load_model(b'{"activities": [')


def test_model_missing_key():
    doc = {k: v for k, v in FIG_MODEL.items() if k != "classes"}
    with pytest.raises(FormatError, match="missing required key 'classes'"):
        load_model(as_bytes(doc))


def test_model_unknown_key():
    with pytest.raises(FormatError, match="unknown key 'color'"):
        load_model(as_bytes(edited(FIG_MODEL, color="red")))


def test_model_unknown_nested_key():
    doc = edited(FIG_MODEL, relationships=[{"id": "r", "source": "oca", "target": "ocb", "w": 1}])
    with pytest.raises(FormatError, match=r"relationships\[0\]: unknown key 'w'"):
        load_model(as_bytes(doc))


def test_model_bad_cardinality_text():
    doc = edited(FIG_MODEL, aoc=[{"activity": "a1", "class": "oca", "card_obj": "two"}])
    with pytest.raises(FormatError, match="bad cardinality 'two'"):
        load_model(as_bytes(doc))


def test_model_unknown_template():
    doc = edited(
        FIG_MODEL,
        constraints=[{"id": "c", "type": "alternate", "ref": "a2", "target": "a1", "via": "r"}],
    )
    with pytest.raises(FormatError, match="unknown constraint template 'alternate'"):
        load_model(as_bytes(doc))


def test_model_defects_are_fatal_and_listed():
    doc = edited(
        FIG_MODEL,
        constraints=[{"id": "c", "type": "response", "ref": "a1", "target": "a1", "via": "r"}],
    )
    with pytest.raises(ModelDefectsError) as err:
        load_model(as_bytes(doc))
    assert [d.code for d in err.value.defects] == ["scope-not-linked"]


def test_model_not_utf8():
    with pytest.raises(FormatError, match="not valid UTF-8"):
        load_model(b"\xff\xfe{}")


def test_omitted_eventual_cardinality_defaults_to_always():
    doc = edited(
        FIG_MODEL,
        relationships=[{"id": "r", "source": "oca", "target": "ocb", "card_tar_always": "0..1"}],
    )
    rt = load_model(as_bytes(doc)).clam.rel_type("r")
    assert rt.card_tar_eventually == rt.card_tar_always


def _constraint(**fields):
    return [{"id": "c", "type": "unary-precedence", "ref": "a2", "target": "a1", "via": "r", **fields}]


# Each row edits FIG_MODEL and pins the exact message `load_model` raises,
# location included.
BAD_MODELS = [
    (dict(constraints=_constraint(type={"before": 1})),
     "constraints[0].type.before: expected string, got int"),
    (dict(constraints=_constraint(type={"after": None})),
     "constraints[0].type.after: expected string, got NoneType"),
    (dict(constraints=_constraint(type={"sum": "1..x"})),
     "constraints[0].type.sum: bad cardinality '1..x': expected cardinality term, got '1..x' (at position 0)"),
    (dict(constraints=_constraint(type={"after": 1, "before": "two"})),
     "constraints[0].type.before: bad cardinality 'two': expected cardinality term, got 'two' (at position 0)"),
    (dict(constraints=_constraint(type={"before": "0..1", "color": "1"})),
     "constraints[0].type: unknown key 'color'"),
    (dict(constraints=_constraint(type={})),
     "constraints[0].type: constraint type needs at least one of before/after/sum"),
    (dict(constraints=_constraint(type=3)),
     "constraints[0].type: expected object, got int"),
    (dict(constraints=_constraint(pair="alternate")),
     "constraints[0].pair: unknown constraint template 'alternate' (expected one of co-existence, "
     "non-co-existence, non-precedence, non-response, precedence, response, unary-precedence, "
     "unary-response)"),
    (dict(constraints=_constraint(pair=3)),
     "constraints[0].pair: expected string, got int"),
    (dict(relationships=["r"]),
     "relationships[0]: expected object, got str"),
    (dict(relationships=[{"id": "r", "source": "oca", "target": "ocb", "card_tar_always": "x"}]),
     "relationships[0].card_tar_always: bad cardinality 'x': expected cardinality term, got 'x' (at position 0)"),
    (dict(aoc=[["a1", "oca"]]),
     "aoc[0]: expected object, got list"),
    # Of two bad keys in one entry, the one read first is reported.
    (dict(relationships=[{"id": "r", "source": "oca", "target": "ocb", "card_src_eventually": 1,
                          "card_tar_always": "x"}]),
     "relationships[0].card_tar_always: bad cardinality 'x': expected cardinality term, got 'x' (at position 0)"),
    (dict(aoc=[{"activity": "a1", "class": "oca", "card_obj": 1, "card_act_eventually": "x"}]),
     "aoc[0].card_act_eventually: bad cardinality 'x': expected cardinality term, got 'x' (at position 0)"),
    (dict(constraints=[None]),
     "constraints[0]: expected object, got NoneType"),
    (dict(activities=["a1", 2]),
     "activities[1]: expected string, got int"),
    (dict(activities="a1"),
     "document.activities: expected array, got str"),
]


@pytest.mark.parametrize(("edits", "message"), BAD_MODELS)
def test_model_error_messages(edits, message):
    with pytest.raises(FormatError) as caught:
        load_model(as_bytes(edited(FIG_MODEL, **edits)))
    assert str(caught.value) == message


# -- log documents ---------------------------------------------------------------


def test_log_round_trip_is_byte_stable():
    """Each line is ``json.dumps(entry, sort_keys=True)``, also for text
    that ASCII escapes."""
    odd = load_log(json.dumps({"id": "é1", "seq": 1, "activity": "\ud800", "attrs": {"nötig": "☕\n"}}))
    for log in (order_process_log(), ticket_log(), precedence_log(), odd):
        data = save_log(log)
        assert load_log(data) == log
        assert save_log(load_log(data)) == data
        for line in data.decode().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)


def test_log_loads_init_line():
    data = save_log(precedence_log())
    log = load_log(data)
    assert len(log.events_of_activity("a2")) == 5
    assert log.init.class_of["y4"] == "ocb"


def test_log_empty_document():
    log = load_log(b"")
    assert len(log) == 0 and not log.init.class_of


def test_log_duplicate_seq_names_line():
    lines = [
        json.dumps({"id": "e1", "seq": 3, "activity": "a"}),
        json.dumps({"id": "e2", "seq": 3, "activity": "a"}),
    ]
    with pytest.raises(FormatError, match="line 2: duplicate seq 3"):
        load_log("\n".join(lines))


def test_log_duplicate_event_id():
    lines = [
        json.dumps({"id": "e1", "seq": 1, "activity": "a"}),
        json.dumps({"id": "e1", "seq": 2, "activity": "a"}),
    ]
    with pytest.raises(FormatError, match="line 2: duplicate event id 'e1'"):
        load_log("\n".join(lines))


def test_log_duplicate_object_delta_error():
    lines = [
        json.dumps({"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o", "class": "k"}]}),
        json.dumps({"id": "e2", "seq": 2, "activity": "a", "new_objects": [{"id": "o", "class": "k"}]}),
    ]
    with pytest.raises(FormatError, match="line 2: object 'o' already exists"):
        load_log("\n".join(lines))


def test_log_dangling_endpoint_delta_error():
    line = json.dumps({"id": "e1", "seq": 1, "activity": "a", "new_relations": [["r", "x", "y"]]})
    with pytest.raises(FormatError, match=r"line 1: relation \('r', 'x', 'y'\) references unknown object 'x'"):
        load_log(line)


def test_log_build_error_names_its_own_line_in_file_order():
    # The build sorts by seq; the bad delta is first in the file, last by seq.
    lines = [
        json.dumps({"init": {"objects": [{"id": "x", "class": "k"}], "relations": []}}),
        json.dumps({"id": "e3", "seq": 30, "activity": "a", "removed_relations": [["r", "x", "y"]]}),
        "",
        json.dumps({"id": "e1", "seq": 10, "activity": "a", "new_objects": [{"id": "y", "class": "k"}]}),
        json.dumps({"id": "e2", "seq": 20, "activity": "a", "objects": ["x", "y"]}),
    ]
    with pytest.raises(FormatError, match="line 2: cannot remove absent relation"):
        load_log("\n".join(lines))
    lines[1], lines[3] = lines[3], lines[1]
    with pytest.raises(FormatError, match="line 4: cannot remove absent relation"):
        load_log("\n".join(lines))


def test_log_duplicate_event_id_names_the_line_at_its_index():
    # By seq the line-3 event comes first, so index 1 is the event on line 1.
    lines = [
        json.dumps({"id": "e1", "seq": 2, "activity": "a"}),
        "",
        json.dumps({"id": "e1", "seq": 1, "activity": "a"}),
    ]
    with pytest.raises(FormatError) as caught:
        load_log("\n".join(lines))
    assert str(caught.value) == "line 1: duplicate event id 'e1' (event 'e1', index 1)"


def test_log_duplicate_seq_out_of_file_order_names_the_later_line():
    # Equal seqs keep their file order, so the second of the two is reported.
    lines = [
        json.dumps({"id": "e3", "seq": 5, "activity": "a"}),
        json.dumps({"id": "e1", "seq": 1, "activity": "a"}),
        json.dumps({"id": "e2", "seq": 5, "activity": "a"}),
    ]
    with pytest.raises(FormatError) as caught:
        load_log("\n".join(lines))
    assert str(caught.value) == "line 3: duplicate seq 5 (event 'e2', index 2)"


def test_log_with_several_faults_names_the_first_in_seq_order():
    # The build checks ids and deltas in one pass, so the dangling relation
    # of seq 1 is reported before the duplicate id of seq 2.
    lines = [
        json.dumps({"id": "e1", "seq": 1, "activity": "a", "new_relations": [["r", "x", "y"]]}),
        json.dumps({"id": "e1", "seq": 2, "activity": "a"}),
    ]
    with pytest.raises(FormatError) as caught:
        load_log("\n".join(lines))
    assert str(caught.value) == "line 1: relation ('r', 'x', 'y') references unknown object 'x' (event 'e1', index 0)"


def test_log_removing_absent_relation_delta_error():
    lines = [
        json.dumps({"id": "e1", "seq": 1, "activity": "a",
                    "new_objects": [{"id": "x", "class": "k"}, {"id": "y", "class": "k"}]}),
        json.dumps({"id": "e2", "seq": 2, "activity": "a", "removed_relations": [["r", "x", "y"]]}),
    ]
    with pytest.raises(FormatError, match="line 2: cannot remove absent relation"):
        load_log("\n".join(lines))


def test_log_init_must_come_first():
    lines = [
        json.dumps({"id": "e1", "seq": 1, "activity": "a"}),
        json.dumps({"init": {"objects": [], "relations": []}}),
    ]
    with pytest.raises(FormatError, match="init model must be the first line"):
        load_log("\n".join(lines))


def test_log_seq_overflow():
    line = json.dumps({"id": "e1", "seq": 2**63, "activity": "a"})
    with pytest.raises(FormatError, match="outside the 64-bit positive range"):
        load_log(line)


def test_log_bad_json_line():
    with pytest.raises(FormatError, match="line 1: invalid JSON"):
        load_log(b"{nope}")


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_log_string_may_hold_a_raw_unicode_line_separator(separator, tmp_path, capsys):
    """`str.splitlines` breaks at these three, but JSON allows them raw inside
    a string: a log line ends at "\\n" only."""
    note = f"x{separator}y"
    line = json.dumps({"activity": "a", "attrs": {"note": note}, "id": "e1", "seq": 1}, ensure_ascii=False)
    assert separator in line
    assert load_log(line.encode()).event("e1").attrs["note"] == note
    model_path, log_path = tmp_path / "a.ocbc.json", tmp_path / "a.oclog.jsonl"
    model_path.write_text(json.dumps({"activities": ["a"], "classes": [], "relationships": [], "aoc": [],
                                      "constraints": []}))
    log_path.write_bytes((line + "\n").encode())
    assert main(["check", str(model_path), str(log_path)]) == 0
    assert capsys.readouterr().out.startswith("CONFORMS: yes")


def test_crlf_log_keeps_its_line_numbers():
    lines = [json.dumps({"id": f"e{i}", "seq": i, "activity": "a"}) for i in (1, 2, 3)]
    assert load_log("\r\n".join(lines) + "\r\n") == load_log("\n".join(lines))
    lines[2] = json.dumps({"id": "e3", "seq": "3", "activity": "a"})
    with pytest.raises(FormatError) as caught:
        load_log(("\r\n".join(lines) + "\r\n").encode())
    assert str(caught.value) == "line 3.seq: expected integer, got str"


def test_log_unknown_event_key():
    line = json.dumps({"id": "e1", "seq": 1, "activity": "a", "color": "red"})
    with pytest.raises(FormatError, match="unknown key 'color'"):
        load_log(line)


def test_log_missing_required_key():
    line = json.dumps({"id": "e1", "activity": "a"})
    with pytest.raises(FormatError, match="missing required key 'seq'"):
        load_log(line)


def test_log_non_string_attr():
    line = json.dumps({"id": "e1", "seq": 1, "activity": "a", "attrs": {"cost": 10}})
    with pytest.raises(FormatError, match="attrs.cost: expected string"):
        load_log(line)


# Each row is one bad event line and the exact message `load_log` raises for
# it, location included.  A line with several faults pins which is reported:
# id, seq (type, then range), activity, attrs, objects, new_objects,
# new_relations, removed_relations, assert_snapshot, then unknown keys.
BAD_EVENT_LINES = [
    # id, seq and activity
    ('{"seq": 1, "activity": "a"}',
     "line 1: missing required key 'id'"),
    ('{"id": 7, "seq": 1, "activity": "a"}',
     'line 1.id: expected string, got int'),
    ('{"id": null, "seq": 1, "activity": "a"}',
     'line 1.id: expected string, got NoneType'),
    ('{"id": "e1", "activity": "a"}',
     "line 1: missing required key 'seq'"),
    ('{"id": "e1", "seq": true, "activity": "a"}',
     'line 1.seq: expected integer, got boolean'),
    ('{"id": "e1", "seq": "1", "activity": "a"}',
     'line 1.seq: expected integer, got str'),
    ('{"id": "e1", "seq": 1.0, "activity": "a"}',
     'line 1.seq: expected integer, got float'),
    ('{"id": "e1", "seq": 0, "activity": "a"}',
     'line 1.seq: seq 0 outside the 64-bit positive range'),
    ('{"id": "e1", "seq": -3, "activity": "a"}',
     'line 1.seq: seq -3 outside the 64-bit positive range'),
    ('{"id": "e1", "seq": 9223372036854775808, "activity": "a"}',
     'line 1.seq: seq 9223372036854775808 outside the 64-bit positive range'),
    ('{"id": "e1", "seq": 1}',
     "line 1: missing required key 'activity'"),
    ('{"id": "e1", "seq": 1, "activity": ["a"]}',
     'line 1.activity: expected string, got list'),
    # attrs and objects
    ('{"id": "e1", "seq": 1, "activity": "a", "attrs": ["k", "v"]}',
     'line 1.attrs: expected object, got list'),
    ('{"id": "e1", "seq": 1, "activity": "a", "attrs": {"k": 1}}',
     'line 1.attrs.k: expected string, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "attrs": {"z": 1, "b": "v", "a": null}}',
     'line 1.attrs.a: expected string, got NoneType'),
    ('{"id": "e1", "seq": 1, "activity": "a", "objects": "o1"}',
     'line 1.objects: expected array, got str'),
    ('{"id": "e1", "seq": 1, "activity": "a", "objects": {"o1": 1}}',
     'line 1.objects: expected array, got dict'),
    ('{"id": "e1", "seq": 1, "activity": "a", "objects": ["o1", 2, 3]}',
     'line 1.objects[1]: expected string, got int'),
    # new_objects
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": {"id": "o1", "class": "k"}}',
     'line 1.new_objects: expected array, got dict'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": ["o1"]}',
     'line 1.new_objects[0]: expected object, got str'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [["o1", "k"]]}',
     'line 1.new_objects[0]: expected object, got list'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o1"}]}',
     "line 1.new_objects[0]: missing required key 'class'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"class": "k"}]}',
     "line 1.new_objects[0]: missing required key 'id'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{}]}',
     "line 1.new_objects[0]: missing required key 'id'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": 1, "class": "k"}]}',
     'line 1.new_objects[0].id: expected string, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o1", "class": 2}]}',
     'line 1.new_objects[0].class: expected string, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o1", "kind": "k"}]}',
     "line 1.new_objects[0]: missing required key 'class'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o1", "class": "k", "x": 1}]}',
     "line 1.new_objects[0]: unknown key 'x'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o1", "class": "k"}, {"id": "o2", "class": "k", "b": 1, "a": 2}]}',
     "line 1.new_objects[1]: unknown key 'a'"),
    # new_relations and removed_relations
    ('{"id": "e1", "seq": 1, "activity": "a", "new_relations": "r"}',
     'line 1.new_relations: expected array, got str'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_relations": [{"r": 1}]}',
     'line 1.new_relations[0]: expected array, got dict'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_relations": [["r", "o1"]]}',
     'line 1.new_relations[0]: expected [relType, source, target]'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_relations": [["r", "o1", "o2", "o3"]]}',
     'line 1.new_relations[0]: expected [relType, source, target]'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_relations": [["r", "o1", "o2"], ["r", 1, "o2"]]}',
     'line 1.new_relations[1][1]: expected string, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_relations": [[1, 2]]}',
     'line 1.new_relations[0]: expected [relType, source, target]'),
    ('{"id": "e1", "seq": 1, "activity": "a", "removed_relations": null}',
     'line 1.removed_relations: expected array, got NoneType'),
    ('{"id": "e1", "seq": 1, "activity": "a", "removed_relations": [[]]}',
     'line 1.removed_relations[0]: expected [relType, source, target]'),
    ('{"id": "e1", "seq": 1, "activity": "a", "removed_relations": [["r", "o1", null]]}',
     'line 1.removed_relations[0][2]: expected string, got NoneType'),
    # assert_snapshot
    ('{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": []}',
     'line 1.assert_snapshot: expected object, got list'),
    ('{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": {"objects": "o1"}}',
     'line 1.assert_snapshot.objects: expected array, got str'),
    ('{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": {"objects": [{"id": "o1"}]}}',
     "line 1.assert_snapshot.objects[0]: missing required key 'class'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": {"objects": [{"id": "o1", "class": "k"}, {"id": "o1", "class": "k"}]}}',
     "line 1.assert_snapshot.objects[1]: duplicate object id 'o1'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": {"relations": [["r", "o1", "o2"]]}}',
     "line 1.assert_snapshot: relation ('r', 'o1', 'o2') references unknown object 'o1'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": {"relations": [["r", "o1"]]}}',
     'line 1.assert_snapshot.relations[0]: expected [relType, source, target]'),
    ('{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": {"color": 1}}',
     "line 1.assert_snapshot: unknown key 'color'"),
    # init line
    ('{"init": []}',
     'line 1.init: expected object, got list'),
    ('{"init": {"objects": ["o1"]}}',
     'line 1.init.objects[0]: expected object, got str'),
    ('{"init": {"objects": [{"id": "o1"}]}}',
     "line 1.init.objects[0]: missing required key 'class'"),
    ('{"init": {"objects": [{"class": 3}]}}',
     "line 1.init.objects[0]: missing required key 'id'"),
    ('{"init": {"objects": [{"id": "o1", "class": "k", "b": 1, "a": 2}]}}',
     "line 1.init.objects[0]: unknown key 'a'"),
    ('{"init": {"objects": [{"id": "o1", "class": "k"}, {"id": "o1", "class": "k"}]}}',
     "line 1.init.objects[1]: duplicate object id 'o1'"),
    ('{"init": {}, "color": 1}',
     "line 1: unknown key 'color'"),
    # unknown keys and whole-line shapes
    ('{"id": "e1", "seq": 1, "activity": "a", "color": "red"}',
     "line 1: unknown key 'color'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "zeta": 1, "beta": 2}',
     "line 1: unknown key 'beta'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "init": {}}',
     "line 1: unknown key 'activity'"),
    ('["e1", 1, "a"]',
     'line 1: expected object, got list'),
    ('"e1"',
     'line 1: expected object, got str'),
    ('{"id": "e1", "seq": 1, "activity": "a"} {}',
     'line 1: invalid JSON: Extra data (line 1, column 41)'),
    ('{"id": "e1", "seq": 1, "activity": "a",}',
     'line 1: invalid JSON: Expecting property name enclosed in double quotes (line 1, column 40)'),
    # several faults: the first in decoding order is reported
    ('{"id": 1, "activity": 2}',
     'line 1.id: expected string, got int'),
    ('{"seq": 0, "activity": 2}',
     "line 1: missing required key 'id'"),
    ('{"id": "e1", "seq": 0}',
     'line 1.seq: seq 0 outside the 64-bit positive range'),
    ('{"id": "e1", "seq": 0, "activity": 2, "attrs": 3}',
     'line 1.seq: seq 0 outside the 64-bit positive range'),
    ('{"id": "e1", "seq": true, "activity": 2}',
     'line 1.seq: expected integer, got boolean'),
    ('{"id": "e1", "seq": 1, "attrs": 3, "objects": 4}',
     "line 1: missing required key 'activity'"),
    ('{"id": "e1", "seq": 1, "activity": "a", "attrs": 3, "objects": 4}',
     'line 1.attrs: expected object, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "objects": 4, "new_objects": 5}',
     'line 1.objects: expected array, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_objects": 5, "new_relations": 6}',
     'line 1.new_objects: expected array, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "new_relations": 6, "removed_relations": 7}',
     'line 1.new_relations: expected array, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "removed_relations": 7, "assert_snapshot": 8}',
     'line 1.removed_relations: expected array, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": 8, "color": 9}',
     'line 1.assert_snapshot: expected object, got int'),
    ('{"id": "e1", "seq": 1, "activity": "a", "color": 9, "attrs": {"k": 1}}',
     'line 1.attrs.k: expected string, got int'),
    ('{"id": "e1", "seq": 0, "activity": "a", "color": 9}',
     'line 1.seq: seq 0 outside the 64-bit positive range'),
    ('{"id": "e1", "seq": 0, "activity": "a", "new_relations": [["r", "x", "y"]]}',
     'line 1.seq: seq 0 outside the 64-bit positive range'),
]


@pytest.mark.parametrize(("line", "message"), BAD_EVENT_LINES)
def test_log_event_error_messages(line, message):
    with pytest.raises(FormatError) as caught:
        load_log(line)
    assert str(caught.value) == message


def test_log_dangling_reference_warns():
    line = json.dumps({"id": "e1", "seq": 1, "activity": "a", "objects": ["nobody"]})
    log = load_log(line)
    assert len(log.warnings) == 1


def test_log_attrs_round_trip():
    line = json.dumps(
        {"id": "e1", "seq": 1, "activity": "a", "attrs": {"resource": "rob", "cost": "12"}}
    )
    log = load_log(line)
    assert dict(log.event("e1").attrs) == {"cost": "12", "resource": "rob"}
    assert load_log(save_log(log)) == log


def test_log_assert_snapshot_round_trip():
    lines = [
        json.dumps({"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o", "class": "k"}]}),
        json.dumps({"id": "e2", "seq": 2, "activity": "a",
                    "assert_snapshot": {"objects": [{"id": "p", "class": "k"}], "relations": []}}),
    ]
    log = load_log("\n".join(lines))
    assert log.snapshot_after("e2").objects == {"p"}
    assert load_log(save_log(log)) == log


def test_log_shares_equal_strings_and_object_sets():
    lines = [
        {"id": "e1", "seq": 1, "activity": "issue", "objects": ["t1"],
         "new_objects": [{"id": "t1", "class": "ticket"}]},
        {"id": "e2", "seq": 2, "activity": "issue", "objects": ["t2"],
         "new_objects": [{"id": "t2", "class": "ticket"}]},
        {"id": "e3", "seq": 3, "activity": "pay", "objects": ["t1", "t2"]},
        {"id": "e4", "seq": 4, "activity": "pay", "objects": ["t1", "t2"]},
        {"id": "e5", "seq": 5, "activity": "pay", "objects": ["t2", "t1"]},
        {"id": "e6", "seq": 6, "activity": "pay", "objects": ["t1"]},
    ]
    log = load_log("\n".join(json.dumps(line) for line in lines).encode())
    e1, e2, e3, e4, e5, e6 = log.events

    def the(value, items):
        return next(item for item in items if item == value)

    assert e1.activity is e2.activity
    assert e3.activity is e4.activity is e5.activity is e6.activity
    assert e1.delta.new_objects[0][1] is e2.delta.new_objects[0][1]
    final = log.final_snapshot()
    for oid, creator in (("t1", e1), ("t2", e2)):
        created = creator.delta.new_objects[0][0]
        assert created is the(oid, creator.objects) is the(oid, e3.objects) is the(oid, e5.objects)
        assert created is the(oid, final.class_of)
        assert final.class_of[oid] is e1.delta.new_objects[0][1]
    assert e3.objects is e4.objects is e5.objects
    assert e1.objects is e6.objects


def _shared(events) -> list[int]:
    """Each string and `objects` set of `events`, in a fixed order, as the
    position of the first one that is the same object."""
    first: dict[int, int] = {}
    values = []
    for e in events:
        delta = e.delta
        values += [e.id, e.activity, e.objects, *sorted(e.objects), *chain(*e.attrs.items())]
        values += chain(*delta.new_objects, *delta.new_relations, *delta.removed_relations)
    return [first.setdefault(id(value), i) for i, value in enumerate(values)]


def _decoded_both_ways(monkeypatch, text: str) -> tuple:
    """`_decode_text` of `text` by the canonical line's match and by the
    JSON scanner alone: the init model, events, line numbers and shared
    values, or the error message."""
    def decoded():
        try:
            init, events, numbers = formats._decode_text(text)
        except FormatError as exc:
            return str(exc)
        return init, events, list(numbers), _shared(events)

    fast = decoded()
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_CANONICAL", "(?!)" + "()" * 8)  # matches no line; same groups
        return fast, decoded()


def _bench_shaped_lines() -> list[str]:
    """Lines as `bench/inputs.py` writes them: sorted keys, but new objects
    and new relations in the order they were made."""
    init = {"init": {"objects": [{"class": "customer", "id": "cu1"}], "relations": []}}
    events = [
        {"id": "e1", "seq": 1, "activity": "create order", "objects": ["o1"],
         "new_objects": [{"class": "order", "id": "o1"}, {"class": "order line", "id": "ol2"},
                         {"class": "order line", "id": "ol1"}],
         "new_relations": [["r4", "o1", "cu1"], ["r1", "o1", "ol2"], ["r1", "o1", "ol1"]]},
        {"id": "e2", "seq": 2, "activity": "pick item", "objects": ["ol2"]},
        {"id": "e3", "seq": 3, "activity": "deliver items", "objects": ["d1"],
         "new_objects": [{"class": "delivery", "id": "d1"}],
         "new_relations": [["r2", "ol2", "d1"], ["r2", "ol1", "d1"], ["r5", "d1", "cu1"]]},
        {"id": "e4", "seq": 4, "activity": "audit"},
        {"id": "e5", "seq": 5, "activity": "link", "new_relations": [["r1", "o1", "ol1"]]},
        {"id": "e6", "seq": 6, "activity": "pick item", "objects": ["ol1", "ol2"]},
    ]
    return [json.dumps(line, sort_keys=True) for line in [init, *events]]


_PAY = '{"activity": "pay", "id": "e1", "objects": ["t1"], "seq": 1}'
_OPEN = '{"activity": "open", "id": "e3", "new_objects": [{"class": "ticket", "id": "t2"}], "objects": ["t1", "t2"], "seq": 3}'
# A line between two canonical ones, so the values it shares cross paths.
_NEAR_MISSES = [
    '{"activity": "pa\\"y", "id": "e2", "objects": ["t1"], "seq": 2}',
    '{"activity": "pay", "id": "e2", "objects": ["t\\u0031"], "seq": 2}',
    '{"activity": "pay", "id": "e2", "objects": ["té", "t1"], "seq": 2}',
    '{"activity": "pay", "id": "e2", "objects": ["t1"], "seq": 02}',
    '{"activity": "pay", "id": "e2", "objects": ["t1"], "seq": 0}',
    '{"activity": "pay", "id": "e2", "objects": ["t1"], "seq": %d}' % MAX_SEQ,
    '{"activity": "pay", "id": "e2", "objects": ["t1"], "seq": %d}' % (MAX_SEQ + 1),
    '{"activity": "pay", "id": "e2", "objects": ["t1"], "seq": 1%s}' % ("0" * 4999),
    '{"activity":  "pay", "id": "e2",  "objects": ["t1"], "seq": 2}',
    '{"activity": "pay", "id": "e2", "id": "e9", "objects": ["t1"], "seq": 2}',
    '{"activity": "pay", "id": "e2", "objects": ["t1"], "seq": 2, "zone": "x"}',
    '{"activity": "pay", "id": "e2", "objects": [], "seq": 2}',
    '{"activity": "pay", "id": "e2", "new_objects": [], "objects": ["t1"], "seq": 2}',
    '{"activity": "pay", "id": "e2", "objects": ["t1", "t1"], "seq": 2}',
    '{"activity": "pay", "attrs": {"k": "v"}, "id": "e2", "objects": ["t1"], "seq": 2}',
    '{"activity": "pay", "id": "e2", "new_objects": [{"class": "", "id": ""}], "objects": [""], "seq": 2}',
]


def test_canonical_lines_decode_as_the_scanner_decodes_them(monkeypatch):
    """The canonical line's match and the JSON scanner give equal events, with
    the same strings and `objects` sets shared, or the same error."""
    texts = [save_log(log).decode() for _, log in named_and_random_pairs()]
    texts += [path.read_text(encoding="utf-8") for path in sorted(DEMO.glob("*.oclog.jsonl"))]
    texts.append("\n".join(_bench_shaped_lines()))
    texts += [f"{_PAY}\n{line}\n{_OPEN}" for line in _NEAR_MISSES]
    errors = 0
    for text in texts:
        fast, slow = _decoded_both_ways(monkeypatch, text)
        assert fast == slow, text[:300]
        errors += isinstance(fast, str)
    assert errors == 5  # leading zero, seq 0, MAX_SEQ + 1, 5000 digits, unknown key


_INIT = '{"init": {"objects": [{"class": "ticket", "id": "t1"}], "relations": []}}'
_PAY_AGAIN = '{"activity": "pay", "id": "e4", "objects": ["t1"], "seq": 4}'


def _line_layouts() -> dict[str, str]:
    """Logs whose canonical lines sit among blank, padded, CRLF and
    non-canonical lines, and logs that fail on a line after canonical ones."""
    lines = [_INIT, _PAY, _OPEN, _PAY_AGAIN]
    reordered = '{"seq": 2, "id": "e2", "activity": "pay", "objects": ["t2"]}'
    escaped = '{"activity": "p\\u0061y", "id": "e2", "objects": ["t\\"2"], "seq": 2}'
    attrs = '{"activity": "pay", "attrs": {"k": "v"}, "id": "e2", "objects": ["t1"], "seq": 2}'
    return {
        "empty": "",
        "blank lines": "\n\n",
        "one line, no final newline": _PAY,
        "final newline": "\n".join(lines) + "\n",
        "no final newline": "\n".join(lines),
        "CRLF": "\r\n".join(lines) + "\r\n",
        "CRLF, no final newline": "\r\n".join(lines),
        "blank lines between": "\n\n" + "\n\n\n".join(lines) + "\n\n",
        "CRLF blank lines": "\r\n\r\n".join(lines) + "\r\n\r\n",
        "spaces and tabs": "\n".join(f" \t{line}  " for line in lines),
        "trailing spaces": "\n".join(f"{line} " for line in lines),
        "leading tabs": "\n".join(f"\t{line}" for line in lines),
        "form feed": "\n".join(f"\f{line}\f" for line in lines),
        "U+0085": "\n".join(f"\x85{line}\x85" for line in lines),
        "U+0085 after": "\n".join(f"{line}\x85" for line in lines),
        "two carriage returns": "\n".join(f"{line}\r\r" for line in lines),
        "raw U+2028 in a string": "\n".join([_INIT, _PAY.replace("pay", "p\u2028ay"), _OPEN, _PAY_AGAIN]),
        "raw U+2028 and U+0085 in strings": _PAY.replace("t1", "t\u2028\x851"),
        "keys out of order between": "\n".join([_INIT, _PAY, reordered, _OPEN, _PAY_AGAIN]),
        "attrs between": "\n".join([_INIT, _PAY, attrs, _OPEN, _PAY_AGAIN]),
        "escapes between": "\n".join([_INIT, _PAY, escaped, _OPEN, _PAY_AGAIN]),
        "only non-canonical": "\n".join([reordered, attrs.replace("e2", "e5").replace(": 2", ": 5")]),
        "seq 2^63 first": "\n".join([_PAY.replace(": 1}", ": %d}" % 2**63), _OPEN]),
        "seq 2^63 last": "\n".join([_PAY, _OPEN, _PAY_AGAIN.replace(": 4}", ": %d}" % 2**63)]),
        "seq 2^63 after CRLF": "\r\n".join([_INIT, _PAY, _PAY_AGAIN.replace(": 4}", ": %d}\r" % 2**63)]),
        "init after events": "\n".join([_PAY, _OPEN, _INIT, _PAY_AGAIN]),
        "init after a blank line": "\n".join(["", _INIT, _PAY]),
        "bad JSON after events": "\n".join([_PAY, _OPEN, "{", _PAY_AGAIN]),
        "not an object after events": "\n".join([_PAY, "\n[1]", _OPEN]),
        "unknown key after events": "\n".join([_PAY, _OPEN, _PAY_AGAIN.replace('"seq"', '"zone": "x", "seq"')]),
        "duplicate seq": "\n".join([_PAY, _OPEN, _PAY_AGAIN.replace(": 4}", ": 3}")]),
    }


def test_line_layouts_decode_as_the_scanner_decodes_them(monkeypatch):
    """Around and between canonical lines, blank lines, padding, CRLF line
    ends and non-canonical lines leave the init model, events, line numbers,
    shared values and error messages those of the JSON scanner alone."""
    errors = []
    for name, text in _line_layouts().items():
        fast, slow = _decoded_both_ways(monkeypatch, text)
        assert fast == slow, name
        if isinstance(fast, str):
            errors.append(name)
        try:  # and a carriage return changes neither the log nor the build's errors
            assert load_log(text) == load_log(text.replace("\r", ""))
        except FormatError as exc:
            errors.append(f"{name}: {exc}")
    assert errors == [
        "seq 2^63 first", "seq 2^63 first: line 1.seq: seq 9223372036854775808 outside the 64-bit positive range",
        "seq 2^63 last", "seq 2^63 last: line 3.seq: seq 9223372036854775808 outside the 64-bit positive range",
        "seq 2^63 after CRLF",
        "seq 2^63 after CRLF: line 3.seq: seq 9223372036854775808 outside the 64-bit positive range",
        "init after events", "init after events: line 3: init model must be the first line",
        "bad JSON after events",
        "bad JSON after events: line 3: invalid JSON: Expecting property name enclosed in double quotes"
        " (line 1, column 2)",
        "not an object after events", "not an object after events: line 3: expected object, got list",
        "unknown key after events", "unknown key after events: line 3: unknown key 'zone'",
        "duplicate seq: line 3: duplicate seq 3 (event 'e4', index 2)",
    ]


def test_canonical_lines_skip_the_scanner(monkeypatch):
    """The JSON scanner decodes only the init line of a `save_log` output,
    also with CRLF line ends, and of a bench-shaped log: every event line
    takes the canonical match."""
    scanned = []

    def counting(line, start):
        scanned.append(line)
        return scan(line, start)

    scan = formats._scan_once
    monkeypatch.setattr(formats, "_scan_once", counting)
    saved = save_log(load_log((DEMO / "order-process.oclog.jsonl").read_bytes())).decode()
    for text in (saved, saved.replace("\n", "\r\n"), "\n".join(_bench_shaped_lines())):
        scanned.clear()
        _, events, _ = formats._decode_text(text)
        assert len(events) > 5
        assert [line[:8] for line in scanned] == ['{"init":']


def _model_entry(om: ObjectModel) -> dict:
    return {
        "objects": [{"class": cls, "id": oid} for oid, cls in sorted(om.class_of.items())],
        "relations": sorted(list(rel) for rel in om.relations),
    }


def _entry(event: Event) -> dict:
    """The dict form of `event`, whose ``json.dumps(entry, sort_keys=True)``
    is the line `save_log` must write: the yardstick for the writer."""
    entry = {"id": event.id, "seq": event.seq, "activity": event.activity}
    if event.attrs:
        entry["attrs"] = dict(event.attrs)
    if event.objects:
        entry["objects"] = sorted(event.objects)
    delta = event.delta
    if delta.new_objects:
        entry["new_objects"] = [{"class": cls, "id": oid} for oid, cls in sorted(delta.new_objects)]
    if delta.new_relations:
        entry["new_relations"] = sorted(list(rel) for rel in delta.new_relations)
    if delta.removed_relations:
        entry["removed_relations"] = sorted(list(rel) for rel in delta.removed_relations)
    if delta.assert_snapshot is not None:
        entry["assert_snapshot"] = _model_entry(delta.assert_snapshot)
    return entry


# Strings the JSON encoder escapes, and the empty one.
_ODD = ["", '"', "\\", "\n", "\x00", "é", "\u2028", "\ud800"]


def _odd_strings_log() -> EventLog:
    """A log with attrs, removed relations and a snapshot, each of whose
    string fields holds every string of `_ODD`."""
    old = {f"o{s}": s for s in _ODD}
    new = {f"n{s}": s for s in _ODD}
    init = ObjectModel(old, [(s, f"o{s}", "o") for s in _ODD])
    events = [
        Event("", 1, '"', old, {s: s for s in _ODD}, ObjectDelta(
            list(new.items()), [(s, f"n{s}", f"o{s}") for s in _ODD])),
        Event("\ud800", 2, "\u2028", new, delta=ObjectDelta(removed_relations=init.relations)),
        Event("é", 3, "\n", ["n\x00"], {"\\": ""}, ObjectDelta(
            assert_snapshot=ObjectModel(new, [(s, f"n{s}", "n") for s in _ODD]))),
    ]
    return EventLog(init=init, events=events)


def _writer_inputs() -> list[EventLog]:
    """The worked and random logs, the demo logs, generated logs with each
    kind injected (asserted snapshots, removed relations), and `_odd_strings_log`."""
    logs = [log for _, log in named_and_random_pairs()]
    logs += [load_log(path.read_bytes()) for path in sorted(DEMO.glob("*.oclog.jsonl"))]
    for model in (order_process_model(), throughput_model()):
        log = generate_conforming(model, events=60, seed=1)
        logs.append(log)
        for kind in KINDS:
            try:
                logs.append(inject_violation(model, log, kind, seed=1)[0])
            except InjectionError:
                pass
    logs.append(_odd_strings_log())
    return logs


def test_saved_lines_are_the_encoders_lines():
    """Each line `save_log` writes is ``json.dumps(entry, sort_keys=True)``
    of its dict form, and the log loads back equal."""
    keys: Counter = Counter()
    for log in _writer_inputs():
        data = save_log(log)
        expected = [_entry(event) for event in log.events]
        if log.init.class_of or log.init.relations:
            expected.insert(0, {"init": _model_entry(log.init)})
        assert data == "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in expected).encode()
        assert load_log(data) == log
        for entry in expected:
            keys.update(entry.keys())
    assert min(keys["attrs"], keys["removed_relations"], keys["assert_snapshot"]) > 1, keys


def test_saved_event_lines_take_the_canonical_form(monkeypatch):
    """An event line with no attrs, removed relations, snapshot or escaped
    string is the form `formats._CANONICAL` decodes; `json.dumps` writes only
    the init line, attrs and snapshots, keys sorted."""
    def counting(value, **options):
        calls.append(value)
        assert options == {"sort_keys": True}
        return json.dumps(value, **options)

    calls: list = []
    monkeypatch.setattr(formats, "json", SimpleNamespace(dumps=counting))
    canonical = re.compile(formats._CANONICAL).fullmatch
    matched = 0
    for log in _writer_inputs():
        calls.clear()
        has_init = bool(log.init.class_of or log.init.relations)
        lines = save_log(log).decode().split("\n")[has_init:-1]
        for event, line in zip(log.events, lines, strict=True):
            delta = event.delta
            if event.attrs or delta.removed_relations or delta.assert_snapshot is not None:
                continue
            strings = [event.id, event.activity, *event.objects, *chain(*delta.new_objects, *delta.new_relations)]
            if all(encode_basestring_ascii(s) == f'"{s}"' for s in strings):
                assert canonical(line), line
                matched += 1
        expected = has_init + sum(bool(e.attrs) + (e.delta.assert_snapshot is not None) for e in log.events)
        assert len(calls) == expected
    assert matched > 1000


def test_load_log_memory_per_event():
    import tracemalloc

    data = [save_log(generate_conforming(throughput_model(), events=3000, seed=1))]
    tracemalloc.start()
    try:
        log = load_log(data.pop())  # the caller keeps no reference to the bytes
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 97 bytes per line.  Decoding in one scan of the text and keying
    # positions by activity, then object, give 544 and 569 bytes per event;
    # a split-lines list and (object, activity) keys gave 630 and 664.
    # Keeping the text through the build, or a second key set, passes a bound.
    assert retained <= 590 * len(log), f"retained {retained / len(log):.0f} bytes per event"
    assert peak <= 615 * len(log), f"peak {peak / len(log):.0f} bytes per event"


# -- report documents -------------------------------------------------------------


def test_report_round_trip():
    report = check_all(ticket_model(), ticket_log())
    data = save_report(report)
    assert load_report(data) == report
    assert save_report(load_report(data)) == data


def test_conforming_report_document():
    report = check_all(precedence_model(), load_log(save_log(precedence_log())))
    doc = json.loads(save_report(report))
    assert doc["conforms"] is False
    assert [v["kind"] for v in doc["violations"]] == ["IX", "IX"]
    clean = json.loads(save_report(check_all(ticket_model(), load_log(b""))))
    assert clean["conforms"] is True and clean["violations"] == []


def test_report_conforms_flag_is_checked():
    report = check_all(ticket_model(), ticket_log())
    doc = json.loads(save_report(report))
    doc["conforms"] = True
    with pytest.raises(FormatError, match="conforms flag"):
        load_report(json.dumps(doc))


@pytest.mark.parametrize(
    "entry, needle",
    [
        ({"kind": "X"}, "violations[0].kind: unknown problem type 'X'"),
        ({"kind": "IX", "seq": "4"}, "violations[0].seq: expected integer, got str"),
        ({"kind": "IX", "before": True}, "violations[0].before: expected integer, got boolean"),
        ({"kind": "IV", "activity": ["a"]}, "violations[0].activity: expected string, got list"),
        ({"kind": "I", "side": "x", "temporal": "always"}, "violations[0].side: unknown side 'x'"),
        ({"kind": "II", "side": "", "temporal": "always"}, "violations[0].side: a temporal breach needs side src or tar"),
        ({"kind": "I", "temporal": "eventually"}, "violations[0].side: a temporal breach needs side src or tar"),
        ({"kind": "VII", "temporal": "sometimes"}, "violations[0].temporal: unknown temporal 'sometimes'"),
        ({"kind": "II", "side": "src", "temporal": "x"}, "violations[0].temporal: unknown temporal 'x'"),
        ({"kind": "IX", "severity": "bogus"}, "violations[0].severity: unknown severity 'bogus'"),
        ({"kind": "IV", "severity": ""}, "violations[0].severity: unknown severity ''"),
    ],
)
def test_report_violation_fields_are_typed(entry, needle):
    with pytest.raises(FormatError, match=re.escape(needle)):
        load_report(json.dumps({"conforms": False, "violations": [entry]}))


def reference_report_bytes(report) -> bytes:
    """The report laid out by one ``json.dumps(indent=2, sort_keys=True)`` call."""
    defaults = Violation(kind="I")._asdict()
    doc = {
        "conforms": report.conforms,
        "prefix_mode": report.prefix_mode,
        "summary": report.summary,
        "violations": [
            {key: value for key, value in v._asdict().items() if key == "kind" or value != defaults[key]}
            for v in report.violations
        ],
        "per_constraint": report.per_constraint,
        "per_aoc_edge": [
            {"activity": activity, "class": cls, "always": always, "eventually": eventually}
            for (activity, cls), (always, eventually) in report.per_aoc_edge.items()
        ],
        "per_rel_type": report.per_rel_type,
        "unknown_activities": list(report.unknown_activities),
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# Texts that need escaping, or that look like the writer's own joints, cut marks or format slots.
ODD_TEXTS = ['"', "\\", "\n", "\t", "\u00e9", "\U0001f600", "},\n      {", '"violations": []',
             "%", "%s", "%%d", "%(event)s", "\0"]


def test_report_bytes_are_indent_2_sorted_json():
    rng = random.Random(19)
    model = random_model(rng)
    log = random_log(rng, model)
    every_kind = check_all(model, log)
    assert all(every_kind.summary.values()), every_kind.summary
    with_warnings = check_all(model, log, prefix=True)
    assert with_warnings.warnings and with_warnings.errors
    odd = aggregate(
        [
            Violation(kind="IX", event=text, seq=i, constraint=text, expected=text, before=0, after=i, detail=text)
            for i, text in enumerate(ODD_TEXTS)
        ]
        + [Violation(kind="IV", event=f"e{i}", seq=i, activity=text) for i, text in enumerate(ODD_TEXTS)]
    )
    # Long enough that the writer encodes it in several batches.
    many = aggregate(
        [Violation(kind="IX", event=f"e{i}", seq=i, constraint="c", before=i % 3, after=0,
                   detail=ODD_TEXTS[i % len(ODD_TEXTS)]) for i in range(2501)]
    )
    # A persistent type I breach: each object's shape repeats at every event,
    # over more than one batch, so the writer fills one layout per shape.
    persistent = aggregate(
        [Violation(kind="I", event=f"e{seq}{ODD_TEXTS[seq % len(ODD_TEXTS)]}", seq=seq, obj=text, rel_type="at",
                   side="tar", temporal="always", observed=0, expected="1", detail=text)
         for seq in range(1201) for text in ODD_TEXTS[-5:]]
    )
    # Library-built violations without a seq or an event leave that field out.
    # The first batch holds the two seq -1 violations (they sort first), the
    # second the two empty events; the third holds neither and is laid out.
    unplaced = aggregate(
        [Violation(kind="VII", event="" if i in (1207, 1707) else f"e{i}", seq=-1 if i in (9, 909) else i,
                   obj="t1", activity="pay", cls="ticket", temporal="always", observed=2, expected="1")
         for i in range(2500)]
    )
    for report in (aggregate([]), every_kind, with_warnings, odd, many, persistent, unplaced):
        assert save_report(report) == reference_report_bytes(report)


def many_violations_report(count: int):
    return aggregate(
        [
            Violation(kind="IX", event=f"e{i}", seq=i, constraint=f"c{i % 7}", obj=f"o{i}",
                      activity="pay", expected="1..*", before=i % 3, after=0, detail="no target")
            for i in range(count)
        ]
    )


def test_save_report_holds_few_copies_of_the_text():
    """Distinct violations, and a persistent type I breach repeated at every
    event: the writer's peak stays within three times the text."""
    import tracemalloc

    persistent = check_all(desk_model(), persistent_breach_log(10_000))
    assert persistent.summary["I"] == 30_000
    for report in (many_violations_report(30_000), persistent):
        tracemalloc.start()
        try:
            data = save_report(report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(data), f"peak {peak} bytes for a {len(data)}-byte report"


def test_report_chunks_lay_out_one_batch_at_a_time():
    """Drained into a sink, the chunks of a long report never hold more than
    a quarter of its text at once, and they are `save_report`'s bytes."""
    import hashlib
    import tracemalloc

    report = check_all(desk_model(), persistent_breach_log(10_000))
    sink, length = hashlib.sha256(), 0
    tracemalloc.start()
    try:
        for chunk in formats.report_chunks(report):
            sink.update(chunk)
            length += len(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = save_report(report)
    assert length == len(data) and sink.digest() == hashlib.sha256(data).digest()
    assert peak <= length // 4, f"peak {peak} bytes for a {length}-byte report"


def mutants(data: bytes, rng: random.Random):
    """Truncations, byte flips, over-long integers and deep nesting of `data`."""
    for _ in range(30):
        yield data[: rng.randrange(len(data))]
    for _ in range(30):
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            flipped[rng.randrange(len(flipped))] = rng.randrange(256)
        yield bytes(flipped)
    digit_runs = list(re.finditer(rb"[0-9]+", data))
    for filler in [b"9" * 5000] * 5 + [b"[" * 50 + b"]" * 50, b"[" * 100_000 + b"]" * 100_000] * 3:
        run = rng.choice(digit_runs)
        yield data[: run.start()] + filler + data[run.end() :]
    for depth in (50, 100_000):
        yield b"[" * depth + data + b"]" * depth


@pytest.mark.parametrize("name", ["order-process", "unmatched-precedence"])
def test_mutated_demo_documents_load_or_raise_format_error(name, tmp_path):
    model_data = (DEMO / f"{name}.ocbc.json").read_bytes()
    log_data = (DEMO / f"{name}.oclog.jsonl").read_bytes()
    model = load_model(model_data)
    rng = random.Random(f"fuzz:{name}")
    model_mutants = list(mutants(model_data, rng))
    for data in model_mutants:
        try:
            load_model(data)
        except FormatError:
            pass
    log_mutants = list(mutants(log_data, rng))
    for data in log_mutants:
        try:
            log = load_log(data)
        except FormatError:
            continue
        save_report(check_all(model, log, prefix=True))
    # The command line maps the same inputs to an exit code and never a traceback.
    model_path, log_path = tmp_path / "model.ocbc.json", tmp_path / "log.oclog.jsonl"
    model_path.write_bytes(model_data)
    runs = [(["validate-model", str(log_path)], data) for data in model_mutants[-2:]]
    runs += [(["check", str(model_path), str(log_path)], data) for data in rng.sample(log_mutants, 3) + log_mutants[-2:]]
    for args, data in runs:
        log_path.write_bytes(data)
        result = subprocess.run([sys.executable, "-m", "ocbcheck.cli", *args], capture_output=True)
        assert result.returncode in (0, 1, 2)
        assert b"Traceback" not in result.stderr, result.stderr.decode(errors="replace")


def test_dangling_relation_error_stable_across_hash_randomization():
    import os

    # The init line relates x1 to four missing objects; the error must name
    # the same relation whatever order the relation set iterates in.
    init = {
        "init": {
            "objects": [{"id": "x1", "class": "c"}],
            "relations": [["r", "x1", f"y{i}"] for i in range(1, 5)],
        }
    }
    script = (
        "import sys\n"
        "from ocbcheck import FormatError, load_log\n"
        "try:\n"
        "    load_log(sys.stdin.buffer.read())\n"
        "except FormatError as exc:\n"
        "    print(exc)\n"
    )
    outputs = set()
    for hash_seed in ("1", "2", "3", "4", "5", "6"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(init).encode(),
            env=env,
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        outputs.add(result.stdout)
    assert outputs == {b"line 1.init: relation ('r', 'x1', 'y1') references unknown object 'y1'\n"}


def shuffled_model_documents(model_data: bytes, rng: random.Random, times: int):
    """The model document with every declaration list in a seeded random order."""
    for _ in range(times):
        doc = json.loads(model_data)
        for key in ("activities", "classes", "relationships", "aoc", "constraints"):
            rng.shuffle(doc[key])
        yield json.dumps(doc).encode()


def declaration_order_cases():
    for name in ("order-process", "unmatched-precedence"):
        yield name, (DEMO / f"{name}.ocbc.json").read_bytes(), load_log((DEMO / f"{name}.oclog.jsonl").read_bytes())
    for name, model, log in (
        ("order", order_process_model(), order_process_log()),
        ("hiring", hiring_model(), hiring_log()),
        ("tickets", ticket_model(), ticket_log()),
        ("precedence", precedence_model(), precedence_log()),
    ):
        yield name, save_model(model), log
    for seed in range(40):
        rng = random.Random(seed)
        model = random_model(rng)
        yield f"random-{seed}", save_model(model), random_log(rng, model)


def test_report_bytes_do_not_depend_on_declaration_order():
    rng = random.Random(23)
    for name, model_data, log in declaration_order_cases():
        model = load_model(model_data)
        for prefix in (False, True):
            expected = save_report(check_all(model, log, prefix=prefix))
            for data in shuffled_model_documents(model_data, rng, 5):
                got = save_report(check_all(load_model(data), log, prefix=prefix))
                assert got == expected, (name, prefix, data.decode())


def test_save_is_deterministic_across_runs():
    a = save_report(check_all(ticket_model(), ticket_log()))
    b = save_report(check_all(ticket_model(), ticket_log()))
    assert a == b
    assert save_model(order_process_model()) == save_model(order_process_model())
    assert save_log(order_process_log()) == save_log(order_process_log())


def test_outputs_stable_across_hash_randomization():
    import os
    import subprocess
    import sys

    script = (
        "import random, sys\n"
        "from scenarios import random_model, random_log, ticket_model, ticket_log\n"
        "from ocbcheck import check_all, save_report\n"
        "rng = random.Random(13)\n"
        "model = random_model(rng)\n"
        "log = random_log(rng, model)\n"
        "sys.stdout.buffer.write(save_report(check_all(model, log)))\n"
        "sys.stdout.buffer.write(save_report(check_all(ticket_model(), ticket_log())))\n"
    )
    # Keep the inherited PYTHONPATH after the tests dir: an uninstalled checkout
    # finds ocbcheck only through it (PYTHONPATH=src).
    pythonpath = os.pathsep.join(
        p for p in (os.path.dirname(__file__), os.environ.get("PYTHONPATH")) if p
    )
    outputs = set()
    for hash_seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert result.returncode == 0, (
            f"child with PYTHONHASHSEED={hash_seed} exited {result.returncode}:\n"
            + result.stderr.decode(errors="replace")
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
