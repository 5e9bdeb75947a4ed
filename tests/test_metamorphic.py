"""Metamorphic properties of the checker: transformations of the input whose
effect on the report is known without an oracle.

Each report property runs over the worked scenarios and the seeded random
pairs, in full and in prefix mode.  The model properties run over seeded
random model documents that parse but are not well-formed.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys

import pytest

from ocbcheck import BcModel, EventLog, ObjectDelta, ObjectModel, OcbcModel, check_all, check_violations
from ocbcheck import ModelDefectsError, formats, load_log, load_model, load_report, save_log, save_report
from ocbcheck.eventlog import MAX_SEQ
from ocbcheck.report import aggregate, render_text
from scenarios import named_and_random_pairs

# The type I detail names a relation as "relation (type,source,target)".
_RELATION = re.compile(r"^relation \(([^,]*),([^,]*),([^)]*)\)")


def _object_ids(log: EventLog) -> set[str]:
    models = [log.init] + [e.delta.assert_snapshot for e in log.events if e.delta.assert_snapshot]
    ids = {o for om in models for o in om.class_of}
    for event in log.events:
        ids |= event.objects
        ids.update(o for o, _ in event.delta.new_objects)
        for rel in event.delta.new_relations + event.delta.removed_relations:
            ids.update(rel[1:])
    return ids


def _bijection(names, prefix: str, rng: random.Random) -> dict[str, str]:
    """Fresh names in a shuffled order, so that sorting by them reorders."""
    old = sorted(names)
    new = [f"{prefix}{i}" for i in range(len(old))]
    rng.shuffle(new)
    return dict(zip(old, new))


def _renamed(log: EventLog, obj: dict[str, str], ev: dict[str, str]) -> EventLog:
    def rel(r):
        return (r[0], obj[r[1]], obj[r[2]])

    def model(om):
        return ObjectModel(
            class_of={obj[o]: c for o, c in om.class_of.items()},
            relations=frozenset(rel(r) for r in om.relations),
        )

    events = []
    for event in log.events:
        delta = event.delta
        renamed_delta = ObjectDelta(
            new_objects=[(obj[o], c) for o, c in delta.new_objects],
            new_relations=[rel(r) for r in delta.new_relations],
            removed_relations=[rel(r) for r in delta.removed_relations],
            assert_snapshot=None if delta.assert_snapshot is None else model(delta.assert_snapshot),
        )
        events.append(
            event._replace(id=ev[event.id], objects={obj[o] for o in event.objects}, delta=renamed_delta)
        )
    return EventLog(init=model(log.init), events=tuple(events))


@pytest.mark.parametrize("prefix", [False, True])
def test_renaming_objects_and_events_renames_the_report(prefix):
    rng = random.Random(11)
    for n, (model, log) in enumerate(named_and_random_pairs()):
        obj = _bijection(_object_ids(log), "x", rng)
        ev = _bijection([e.id for e in log.events], "v", rng)

        def rename(v):
            detail = _RELATION.sub(lambda m: f"relation ({m[1]},{obj[m[2]]},{obj[m[3]]})", v.detail)
            return v._replace(event=ev[v.event], obj=obj[v.obj] if v.obj else "", detail=detail)

        report = check_all(model, log, prefix=prefix)
        expected = aggregate([rename(v) for v in report.violations], prefix=prefix)
        assert check_all(model, _renamed(log, obj, ev), prefix=prefix) == expected, n


@pytest.mark.parametrize("prefix", [False, True])
def test_shifting_every_seq_changes_only_the_seqs(prefix):
    for n, (model, log) in enumerate(named_and_random_pairs()):
        top = max((e.seq for e in log.events), default=0)
        for shift in (7, MAX_SEQ - top):
            shifted = EventLog(
                init=log.init,
                events=tuple(e._replace(seq=e.seq + shift) for e in log.events),
            )
            report = check_all(model, log, prefix=prefix)
            moved = check_all(model, shifted, prefix=prefix)
            assert list(moved.violations) == [v._replace(seq=v.seq + shift) for v in report.violations], n
            assert moved._replace(violations=report.violations) == report, n


@pytest.mark.parametrize("prefix", [False, True])
def test_each_constraint_alone_keeps_its_ix_violations(prefix):
    for n, (model, log) in enumerate(named_and_random_pairs()):
        found = check_violations(model, log, ("IX",), prefix=prefix)
        for c in model.bcm.constraints:
            alone = OcbcModel(
                bcm=BcModel(activities=model.bcm.activities, constraints=(c,)),
                clam=model.clam,
                links=model.links,
                scope={c.id: model.scope[c.id]},
            )
            mine = [v for v in found if v.constraint == c.id]
            assert check_violations(alone, log, ("IX",), prefix=prefix) == mine, (n, c.id)


def _shuffled(value, rng: random.Random):
    """`value` with the keys of each of its objects in a shuffled order."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _shuffled(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [_shuffled(item, rng) for item in value]
    return value


@pytest.mark.parametrize("prefix", [False, True])
def test_a_log_in_another_json_layout_gives_the_same_report(prefix):
    """Compact separators and shuffled keys, written without ASCII escapes,
    take every line off the canonical match and onto the JSON scanner; with
    CRLF line ends and a blank line between lines, every other line compact,
    one log goes through both decoders.  Either way the log and the report
    bytes stay those of the canonical form."""
    rng = random.Random(5)
    canonical = re.compile(formats._CANONICAL).fullmatch
    mixed_logs = 0  # logs whose mixed layout keeps a canonical line and a compact one
    for n, (model, log) in enumerate(named_and_random_pairs()):
        data = save_log(log)
        plain = data.decode().splitlines()
        compact = [
            json.dumps(_shuffled(json.loads(line), rng), separators=(",", ":"), ensure_ascii=False)
            for line in plain
        ]
        assert not any(map(canonical, compact)), n
        mixed = [compact[i] if i % 2 else line for i, line in enumerate(plain)]
        mixed_logs += len(plain) > 1 and any(map(canonical, plain[::2]))
        report = save_report(check_all(model, load_log(data), prefix=prefix))
        for text in ("\n".join(compact), "\r\n\r\n".join(mixed) + "\r\n"):
            other = load_log(text.encode())
            assert other == log, n
            assert save_report(check_all(model, other, prefix=prefix)) == report, n
    assert mixed_logs > 10


@pytest.mark.parametrize("prefix", [False, True])
def test_the_text_report_survives_the_report_round_trip(prefix):
    """A report read back from its JSON document renders the same text."""
    for n, (model, log) in enumerate(named_and_random_pairs()):
        report = check_all(model, log, prefix=prefix)
        assert render_text(load_report(save_report(report))) == render_text(report), n


_NAMES = ["a", "b", "c", "k", "r", "x"]  # one small pool, so names clash and dangle often
_CARDS = ["*", "0", "1", "0..1", "1..*", "2"]


def _defective_document(rng: random.Random) -> dict:
    """A model document that parses, with ids, relationship ids and link pairs
    each used by one entry or by exact copies of it: the models sort their
    entries by id alone and `load_model` keeps one scope per constraint id, so
    two different entries under one id keep their document order."""
    def cards(*keys):
        return {key: rng.choice(_CARDS) for key in keys if rng.random() < 0.4}

    def copies(entries):
        return entries + [dict(e) for e in entries if rng.random() < 0.2]

    pick = lambda: rng.choice(_NAMES)  # noqa: E731
    return {
        "activities": rng.sample(_NAMES, rng.randint(1, 4)),
        "classes": rng.sample(_NAMES, rng.randint(1, 4)),
        "relationships": copies([
            {"id": rid, "source": pick(), "target": pick(),
             **cards("card_src_always", "card_tar_always", "card_src_eventually", "card_tar_eventually")}
            for rid in rng.sample(_NAMES, rng.randint(0, 3))
        ]),
        "aoc": copies([
            {"activity": act, "class": cls, **cards("card_act_always", "card_act_eventually", "card_obj")}
            for act, cls in rng.sample([(a, c) for a in _NAMES for c in _NAMES], rng.randint(0, 5))
        ]),
        "constraints": copies([
            {"id": cid, "type": rng.choice(["response", "precedence", "non-response"]),
             "ref": pick(), "target": pick(), "via": pick(), **({"pair": "response"} if rng.random() < 0.1 else {})}
            for cid in rng.sample(_NAMES, rng.randint(0, 4))
        ]),
    }


def _reordered(doc: dict, rng: random.Random) -> dict:
    return {key: rng.sample(value, len(value)) for key, value in doc.items()}


def _defects(doc: dict) -> list:
    with pytest.raises(ModelDefectsError) as caught:
        load_model(json.dumps(doc))
    return caught.value.defects


def _defective_documents(count: int) -> list[dict]:
    rng = random.Random(11)
    docs = []
    while len(docs) < count:
        doc = _defective_document(rng)
        try:
            load_model(json.dumps(doc))
        except ModelDefectsError:
            docs.append(doc)
    return docs


def test_shuffling_a_model_document_keeps_its_defect_list():
    """The defect list is a function of the model, not of the order in which
    the document declares activities, classes, relationships, links and
    constraints."""
    rng = random.Random(5)
    codes = set()
    for n, doc in enumerate(_defective_documents(300)):
        defects = _defects(doc)
        codes.update(d.code for d in defects)
        for _ in range(4):
            assert _defects(_reordered(doc, rng)) == defects, n
    assert codes == {"duplicate-id", "name-clash", "dangling-activity", "dangling-class",
                     "eventually-not-subset", "scope-not-linked", "dangling-scope"}


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_shuffling_a_model_document_keeps_validate_model_output(tmp_path, hash_seed):
    """`ocbcheck validate-model` prints the same bytes and exits 1 for a
    defective document in any array order, whatever the order in which sets
    iterate."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    rng = random.Random(7)
    path = tmp_path / "model.ocbc.json"
    docs = sorted(_defective_documents(40), key=lambda doc: len(_defects(doc)))[-3:]  # the longest lists
    for n, doc in enumerate(docs):
        expected = b"".join(f"defect {d}\n".encode() for d in _defects(doc))
        for variant in (doc, _reordered(doc, rng), _reordered(doc, rng)):
            path.write_text(json.dumps(variant))
            result = subprocess.run([sys.executable, "-m", "ocbcheck.cli", "validate-model", str(path)],
                                    env=env, capture_output=True)
            assert (result.stdout, result.stderr, result.returncode) == (expected, b"", 1), n
