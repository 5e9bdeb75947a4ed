"""Parsers and serializers for the model, log, and report documents.

Models are JSON objects (``.ocbc.json``), logs are line-delimited JSON with an
optional leading init-model line (``.oclog.jsonl``), reports are JSON
(``.report.json``).  Parsing is strict: unknown keys, missing keys, and bad
value shapes are rejected with the offending location.  Serialization is
canonical (sorted keys, sorted collections), so load/save round-trips are
byte-stable.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from json.encoder import encode_basestring_ascii
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Any, Iterator

from .cardinality import (
    ANY,
    Cardinality,
    CardinalityError,
    ConstraintType,
    TEMPLATES,
    parse_cardinality,
)
from .eventlog import EMPTY_ATTRS, EMPTY_DELTA, MAX_SEQ, Event, EventLog, LogError, ObjectDelta, ObjectModel
from .model import (
    ActivityClassLink,
    BcModel,
    BehavioralConstraint,
    ClassModel,
    ModelDefect,
    OcbcModel,
    RelationshipType,
    validate_model,
)
from .report import ConformanceReport, aggregate
from .violations import KINDS, SEVERITY_ERROR, SEVERITY_WARNING, Violation


class FormatError(ValueError):
    """Malformed document; `where` locates the problem (JSON path or line)."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.message = message
        self.where = where


class ModelDefectsError(FormatError):
    """The document parsed but the model is not well-formed."""

    def __init__(self, defects: list[ModelDefect]):
        listing = "; ".join(str(d) for d in defects)
        super().__init__(f"model has {len(defects)} defect(s): {listing}")
        self.defects = defects


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not valid UTF-8: {exc}") from None
    return data


_TYPE_NAMES = {dict: "object", list: "array", str: "string", int: "integer", bool: "boolean"}


def _expect(value: Any, kind: type, where: str) -> Any:
    if kind is int and isinstance(value, bool):
        raise FormatError("expected integer, got boolean", where)
    if not isinstance(value, kind):
        raise FormatError(f"expected {_TYPE_NAMES[kind]}, got {type(value).__name__}", where)
    return value


_MISSING = object()


# A value whose type is exactly `kind` is one `_expect` accepts, so `_take`
# and `_string_list` return it before formatting a location that only an
# error message would use.
def _take(obj: dict, key: str, kind: type, where: str, default: Any = _MISSING) -> Any:
    value = obj.pop(key, _MISSING)
    if type(value) is kind:
        return value
    if value is _MISSING:
        if default is _MISSING:
            raise FormatError(f"missing required key {key!r}", where)
        return default
    return _expect(value, kind, f"{where}.{key}")


def _no_extras(obj: dict, where: str) -> None:
    if obj:
        name = sorted(obj)[0]
        raise FormatError(f"unknown key {name!r}", where)


def _card(obj: dict, key: str, where: str, default: Cardinality | None = ANY) -> Cardinality | None:
    text = _take(obj, key, str, where, default=None)
    if text is None:
        return default
    try:
        return parse_cardinality(text)
    except CardinalityError as exc:
        raise FormatError(f"bad cardinality {text!r}: {exc}", f"{where}.{key}") from None


def _string_list(value: list, where: str) -> list[str]:
    for i, item in enumerate(value):
        if type(item) is not str:
            _expect(item, str, f"{where}[{i}]")
    return value


def _parse_json(data: bytes | str, where: str = "document") -> Any:
    text = _decode(data)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})", where) from None
    except RecursionError:
        raise FormatError("invalid JSON: nesting deeper than the decoder allows", where) from None
    except ValueError:  # the only other decoder error: an over-long integer literal
        limit = sys.get_int_max_str_digits()
        raise FormatError(f"invalid JSON: integer longer than {limit} digits", where) from None


# -- model documents ---------------------------------------------------------


_ATOMS = ("before", "after", "sum")  # a constraint type's keys, in `ConstraintType` field order


def _constraint_type(value: Any, where: str) -> ConstraintType:
    if isinstance(value, str):
        if value not in TEMPLATES:
            raise FormatError(
                f"unknown constraint template {value!r} "
                f"(expected one of {', '.join(sorted(TEMPLATES))})",
                where,
            )
        return TEMPLATES[value]
    _expect(value, dict, where)
    atoms = [_card(value, key, where, default=None) for key in _ATOMS]
    _no_extras(value, where)
    if atoms == [None, None, None]:
        raise FormatError("constraint type needs at least one of before/after/sum", where)
    return ConstraintType(*atoms)


# The model arrays whose entries hold cardinalities: the record type, each
# string key's field, and each cardinality key's field and the key whose value
# it takes when omitted (None: `*`).  An entry's first fault in this order is reported.
_CARD_ARRAYS = {
    "relationships": (RelationshipType, {"id": "id", "source": "source", "target": "target"}, (
        ("card_src_always", "card_src_always", None),
        ("card_tar_always", "card_tar_always", None),
        ("card_src_eventually", "card_src_eventually", "card_src_always"),
        ("card_tar_eventually", "card_tar_eventually", "card_tar_always"),
    )),
    "aoc": (ActivityClassLink, {"activity": "activity", "class": "cls"}, (
        ("card_act_always", "card_events_always", None),
        ("card_act_eventually", "card_events_eventually", "card_act_always"),
        ("card_obj", "card_objects", None),
    )),
}


def _read_array(doc: dict, name: str) -> list:
    """The records of the `_CARD_ARRAYS` array `name` in `doc`."""
    record, strings, cards = _CARD_ARRAYS[name]
    records = []
    for i, item in enumerate(_take(doc, name, list, "document", default=[])):
        where = f"{name}[{i}]"
        entry = _expect(item, dict, where)
        fields = {field: _take(entry, key, str, where) for key, field in strings.items()}
        read: dict[str, Cardinality] = {}  # the cardinalities by key, for the keys that default to them
        for key, field, default in cards:
            fields[field] = read[key] = _card(entry, key, where, read.get(default, ANY))
        records.append(record(**fields))
        _no_extras(entry, where)
    return records


def _write_array(records: tuple, name: str) -> list[dict]:
    """The entries of the `_CARD_ARRAYS` array `name`, less each cardinality equal to its default."""
    _, strings, cards = _CARD_ARRAYS[name]
    entries = []
    for rec in records:
        entry = {key: getattr(rec, field) for key, field in strings.items()}
        values = {key: getattr(rec, field) for key, field, _ in cards}
        entry.update((key, values[key].render()) for key, _, default in cards
                     if values[key] != values.get(default, ANY))
        entries.append(entry)
    return entries


def load_model(data: bytes | str) -> OcbcModel:
    """Parse and validate a model document; well-formedness defects are fatal."""
    doc = _expect(_parse_json(data), dict, "document")
    activities = _string_list(_take(doc, "activities", list, "document"), "activities")
    classes = _string_list(_take(doc, "classes", list, "document"), "classes")

    rel_types, links = _read_array(doc, "relationships"), _read_array(doc, "aoc")
    constraints: list[BehavioralConstraint] = []
    scope: dict[str, str] = {}
    for i, item in enumerate(_take(doc, "constraints", list, "document", default=[])):
        where = f"constraints[{i}]"
        entry = _expect(item, dict, where)
        cid = _take(entry, "id", str, where)
        ctype = _constraint_type(_take(entry, "type", object, where), f"{where}.type")
        ref = _take(entry, "ref", str, where)
        target = _take(entry, "target", str, where)
        via = _take(entry, "via", str, where)
        pair_name = _take(entry, "pair", str, where, default=None)
        _no_extras(entry, where)
        if pair_name is None:
            directed = [BehavioralConstraint(cid, ref, target, ctype)]
        else:
            # A pair is shorthand for two directed constraints: cid#1 from ref
            # to target, and cid#2 back from target to ref with the pair's type.
            back = _constraint_type(pair_name, f"{where}.pair")
            directed = [
                BehavioralConstraint(f"{cid}#1", ref, target, ctype),
                BehavioralConstraint(f"{cid}#2", target, ref, back),
            ]
        for c in directed:
            constraints.append(c)
            scope[c.id] = via
    _no_extras(doc, "document")

    model = OcbcModel(
        bcm=BcModel(activities=frozenset(activities), constraints=tuple(constraints)),
        clam=ClassModel(classes=frozenset(classes), rel_types=tuple(rel_types)),
        links=tuple(links),
        scope=scope,
    )
    defects = validate_model(model)
    if defects:
        raise ModelDefectsError(defects)
    return model


def _ctype_dict(ctype: ConstraintType) -> dict | str:
    for name, template in TEMPLATES.items():
        if template == ctype:
            return name
    return {key: card.render() for key, card in zip(_ATOMS, ctype) if card is not None}


def save_model(model: OcbcModel) -> bytes:
    """Canonical serialization; pair shorthands are saved in expanded form.
    The models already hold relationships, links and constraints sorted."""
    constraints = []
    for c in model.bcm.constraints:
        constraints.append(
            {
                "id": c.id,
                "type": _ctype_dict(c.ctype),
                "ref": c.ref_activity,
                "target": c.target_activity,
                "via": model.scope[c.id],
            }
        )
    doc = {
        "activities": sorted(model.bcm.activities),
        "classes": sorted(model.clam.classes),
        "relationships": _write_array(model.clam.rel_types, "relationships"),
        "aoc": _write_array(model.links, "aoc"),
        "constraints": constraints,
    }
    return (_indented(doc) + "\n").encode()


# -- log documents -----------------------------------------------------------


def _object_entry(item: Any, where: str) -> tuple[str, str]:
    """An `{"id": ..., "class": ...}` item of `objects` or `new_objects`."""
    _expect(item, dict, where)
    oid, cls = _take(item, "id", str, where), _take(item, "class", str, where)
    _no_extras(item, where)
    return oid, cls


def _object_model(value: Any, where: str) -> ObjectModel:
    entry = _expect(value, dict, where)
    class_of: dict[str, str] = {}
    for i, item in enumerate(_take(entry, "objects", list, where, default=[])):
        inner = f"{where}.objects[{i}]"
        oid, cls = _object_entry(item, inner)
        if oid in class_of:
            raise FormatError(f"duplicate object id {oid!r}", inner)
        class_of[oid] = cls
    relations = _relations(_take(entry, "relations", list, where, default=[]), f"{where}.relations")
    _no_extras(entry, where)
    try:
        return ObjectModel(class_of=class_of, relations=frozenset(relations))
    except LogError as exc:
        raise FormatError(str(exc), where) from None


_NO_OBJECTS: frozenset[str] = frozenset()


def _relations(items: list, where: str) -> tuple[tuple[str, str, str], ...]:
    """The `[relType, source, target]` items of the array at `where`."""
    out = []
    for i, item in enumerate(items):
        inner = f"{where}[{i}]"
        if len(_expect(item, list, inner)) != 3:
            raise FormatError("expected [relType, source, target]", inner)
        out.append(tuple(_string_list(item, inner)))
    return tuple(out)


def _object_set(items: list[str], memo: dict) -> frozenset[str]:
    """The set of `items` and its strings, each shared through `memo` with
    the equal one decoded first (see `_event`)."""
    objects = frozenset(map(memo.setdefault, items, items))
    return memo.setdefault(objects, objects)


def _delta(entry: dict, memo: dict) -> ObjectDelta:
    """The delta keys left in `entry`.  New object ids and classes come from
    `memo`, as in `_event`."""
    new_objects = []
    for i, item in enumerate(_take(entry, "new_objects", list, "", default=[])):
        oid, cls = _object_entry(item, f".new_objects[{i}]")
        new_objects.append((memo.setdefault(oid, oid), memo.setdefault(cls, cls)))
    new_relations = _relations(_take(entry, "new_relations", list, "", default=[]), ".new_relations")
    removed = _relations(_take(entry, "removed_relations", list, "", default=[]), ".removed_relations")
    snapshot = None
    if "assert_snapshot" in entry:
        snapshot = _object_model(entry.pop("assert_snapshot"), ".assert_snapshot")
    _no_extras(entry, "")
    return ObjectDelta(new_objects, new_relations, removed, snapshot)


def _event(entry: dict, memo: dict) -> Event:
    """Decode one event from the fresh dict `_decode_text` decoded: its keys
    are popped in place.  Error locations are relative to the line (".seq");
    `_decode_text` prefixes it.

    `memo` maps each activity, object id, class and `objects` set decoded so
    far in this log to its first copy, so equal values share one object."""
    eid = _take(entry, "id", str, "")
    seq = _take(entry, "seq", int, "")
    if not 1 <= seq <= MAX_SEQ:  # before any later field
        raise FormatError(f"seq {seq} outside the 64-bit positive range", ".seq")
    activity = _take(entry, "activity", str, "")
    activity = memo.setdefault(activity, activity)
    attrs = dict(sorted(_take(entry, "attrs", dict, "", default={}).items()))
    for key, val in attrs.items():
        _expect(val, str, f".attrs.{key}")
    items = _take(entry, "objects", list, "", default=None)
    objects = _NO_OBJECTS if items is None else _object_set(_string_list(items, ".objects"), memo)
    delta = _delta(entry, memo) if entry else EMPTY_DELTA  # delta keys or unknown keys left
    return Event(eid, seq, activity, objects, attrs, delta)


# The C scanner that ``json.loads`` ends in, without its Python wrapper.
_scan_once = json.JSONDecoder().scan_once

# An event line as `save_log` writes it, field by field, for an event with
# no attrs, removed relations or snapshot: only the keys activity, id,
# new_objects, new_relations, a non-empty objects and seq, in that order,
# and strings with no escape and no control character (S).  The first new
# object's class and id have groups of their own; the other new objects (O)
# and the new relations (R) are read by `findall` from their line's group,
# which is empty when there are none.  `_decode_text` tries it first on
# each line; `save_log` writes it.
_S = r'[^"\\\x00-\x1f]*'
_OBJECT = r'\{"class": "(S)", "id": "(S)"\}'.replace("S", _S)
_RELATION = r'\["(S)", "(S)", "(S)"\]'.replace("S", _S)
_CANONICAL = (
    r'\{"activity": "(S)", "id": "(S)"(?:, "new_objects": \[\{"class": "(S)", "id": "(S)"\}((?:, O)*)\])?'
    r'((?:, "new_relations": \[R(?:, R)*\])?)(?:, "objects": \["(S(?:", "S)*)"\])?, "seq": ([1-9][0-9]{0,18})\}'
).replace("O", _OBJECT.replace("(", "(?:")).replace("R", _RELATION.replace("(", "(?:")).replace("S", _S)


def _decode_text(text: str) -> tuple[ObjectModel | None, list[Event], array]:
    """The init model, the events in file order and the line number of each.

    One `finditer` gives one match per line.  A line that `_CANONICAL`
    matches whole (but for a carriage return), with its seq in range, is
    decoded from the match's groups; any other line goes to the JSON scanner
    and `_event`, which also gives every error.  Lines end at "\n" only, as
    JSON strings may hold U+2028, U+2029 and U+0085, and the scanner strips
    the whitespace around each.  Both paths build the same event through one
    `memo`, and no list of the lines is made."""
    memo: dict = {}
    sets: dict[str, frozenset[str]] = {}  # the `objects` set of each `objects` text matched
    init = None
    events: list[Event] = []
    line_numbers = array("q")
    # Compiled here, through `re`'s cache, so a run that decodes no log skips it.
    lines = re.compile("^(?:" + _CANONICAL + r"\r?$|(.*))", re.M).finditer(text)
    objects_in, relations_in = re.compile(_OBJECT).findall, re.compile(_RELATION).findall
    for lineno, match in enumerate(lines, 1):
        activity, eid, cls, oid, more_objects, new_relations, objects, seq, _ = match.groups()
        if seq is None or (seq := int(seq)) > MAX_SEQ:  # not canonical: the JSON scanner
            line = match[0].strip()
            if not line:
                continue
            try:
                value, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line) or type(value) is not dict:
                # Not one whole object: parse again for the decoder's message.
                where = f"line {lineno}"
                value = _expect(_parse_json(line, where), dict, where)
            if "init" in value:
                where = f"line {lineno}"
                if events or init is not None:
                    raise FormatError("init model must be the first line", where)
                init = _object_model(value.pop("init"), f"{where}.init")
                _no_extras(value, where)
                continue
            try:
                events.append(_event(value, memo))
            except FormatError as exc:
                raise FormatError(exc.message, f"line {lineno}{exc.where}") from None
            line_numbers.append(lineno)
            continue
        activity = memo.setdefault(activity, activity)
        if objects is None:
            objects = _NO_OBJECTS
        else:  # equal texts give one set, so each text is split once
            objects = sets.get(objects) or sets.setdefault(objects, _object_set(objects.split('", "'), memo))
        delta = EMPTY_DELTA
        if cls is not None or new_relations:
            pairs = relations = ()
            if cls is not None:
                pairs = ((memo.setdefault(oid, oid), memo.setdefault(cls, cls)),)
            if more_objects:
                more = [(memo.setdefault(o, o), memo.setdefault(c, c)) for c, o in objects_in(more_objects)]
                pairs = tuple(sorted([*pairs, *more]))
            if new_relations:
                relations = tuple(sorted(relations_in(new_relations)))
            delta = tuple.__new__(ObjectDelta, (pairs, relations, (), None))
        events.append(tuple.__new__(Event, (eid, seq, activity, objects, EMPTY_ATTRS, delta)))
        line_numbers.append(lineno)
    return init, events, line_numbers


def load_log(data: bytes | str) -> EventLog:
    """Parse a line-delimited log; replay failures carry the offending line.

    Equal strings and equal `objects` sets of one log share one object.  The
    input is released before the build: rebinding `data` frees the caller's
    bytes (unless it keeps a reference), and the text goes once decoded."""
    data = _decode(data)
    init, events, line_numbers = _decode_text(data)
    del data
    try:
        return EventLog(init=init if init is not None else ObjectModel({}, frozenset()), events=tuple(events))
    except LogError as exc:
        # Every build error names an event index.  The build sorts by seq,
        # stably, so sorting the file positions the same way maps it to a line.
        order = sorted(range(len(events)), key=[event.seq for event in events].__getitem__)
        raise FormatError(str(exc), f"line {line_numbers[order[exc.event_index]]}") from None


def save_log(log: EventLog) -> bytes:
    """Canonical line-delimited serialization (init line first when non-empty).

    Each line is ``json.dumps(entry, sort_keys=True)`` of its dict form.  An
    event line is written field by field, keys in sorted order, so one with
    no attrs, removed relations, snapshot or escaped string is the form that
    `_CANONICAL` matches; `json.dumps` itself writes the init line, attrs and
    an asserted snapshot.  The delta's lists are already sorted (`ObjectDelta`)."""
    q = encode_basestring_ascii

    def om_dict(om: ObjectModel) -> dict:
        return {
            "objects": [{"class": cls, "id": oid} for oid, cls in sorted(om.class_of.items())],
            "relations": sorted(list(rel) for rel in om.relations),
        }

    def relations(items: tuple) -> str:
        return ", ".join(["[%s]" % ", ".join(map(q, rel)) for rel in items])

    lines: list[str] = []
    if log.init.class_of or log.init.relations:
        lines.append(json.dumps({"init": om_dict(log.init)}, sort_keys=True))
    for eid, seq, activity, objects, attrs, (new_objects, new_relations, removed, snapshot) in log.events:
        head = mid = ""
        if snapshot is not None:
            head = ', "assert_snapshot": ' + json.dumps(om_dict(snapshot), sort_keys=True)
        if attrs:
            head += ', "attrs": ' + json.dumps(dict(attrs), sort_keys=True)
        if new_objects:
            items = ['{"class": %s, "id": %s}' % (q(cls), q(oid)) for oid, cls in new_objects]
            mid = ', "new_objects": [%s]' % ", ".join(items)
        if new_relations:
            mid += ', "new_relations": [%s]' % relations(new_relations)
        if objects:
            mid += ', "objects": [%s]' % ", ".join(map(q, sorted(objects)))
        if removed:
            mid += ', "removed_relations": [%s]' % relations(removed)
        lines.append(f'{{"activity": {q(activity)}{head}, "id": {q(eid)}{mid}, "seq": {seq}}}')
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


# -- report documents --------------------------------------------------------

# (field, position, default) in key order; "kind" has no default and is always written.
_VIOLATION_FIELDS = tuple(
    (key, Violation._fields.index(key), Violation._field_defaults.get(key, object()))
    for key in sorted(Violation._fields)
)


def _violation_dict(v: Violation) -> dict:
    return {key: value for key, i, default in _VIOLATION_FIELDS if (value := v[i]) != default}


# Violations written per batch: bounds the dicts and text alive at once.
_BATCH = 1000
_SEPARATORS = (",\n      ", ": ")
_BETWEEN = "\n    },\n    {\n      "
# Every field but event and seq: the violations that share these share one layout.
_SHAPE = itemgetter(0, *range(3, len(Violation._fields)))
_EVENT, _SEQ = itemgetter(1), itemgetter(2)
# The first violations of a batch decide its path: layouts pay off only
# when at most a quarter of them have a shape of their own.
_SAMPLE = 64


def _layout(v: Violation) -> tuple[str, ...]:
    """The JSON fields of `v` cut around its event id and its seq; a NUL marks
    each cut, as an encoded value is printable ASCII."""
    text = _SEPARATORS[0].join(
        f'"{key}": ' + ("\0" if key in ("event", "seq") else json.dumps(value))
        for key, i, default in _VIOLATION_FIELDS
        if (value := v[i]) != default
    )
    return tuple(text.split("\0"))


def _batch_json(batch: tuple[Violation, ...]) -> str:
    """The fields of each violation in `batch` as indent=2 lays them out one
    level down, joined by `_BETWEEN`.

    A batch whose shapes repeat lays out each shape once, and each violation
    is its shape's layout joined with its encoded event id and seq. Any other
    batch, or one holding a violation without an event or a seq (whose field
    is left out), is encoded in one C-encoder call.
    """
    sample = batch[:_SAMPLE]
    if 4 * len(set(map(_SHAPE, sample))) <= len(sample):
        events, seqs = list(map(_EVENT, batch)), list(map(_SEQ, batch))
        if "" not in events and -1 not in seqs:
            first: dict[tuple, int] = {}  # each shape, hashed once, to its first violation's position
            firsts = list(map(first.setdefault, map(_SHAPE, batch), count()))
            layouts = {i: _layout(batch[i]) for i in first.values()}
            befores, betweens, afters = zip(*map(layouts.__getitem__, firsts))
            joints = chain(("",), repeat(_BETWEEN))
            encoded = map(encode_basestring_ascii, events)
            pieces = zip(joints, befores, encoded, betweens, map(str, seqs), afters)
            return "".join(chain.from_iterable(pieces))
    flat = json.dumps([_violation_dict(v) for v in batch], separators=_SEPARATORS)
    return flat[2:-2].replace("},\n      {", _BETWEEN)


def _indented(value: Any, newline: str = "\n") -> str:
    """`value` as ``json.dumps(indent=2, sort_keys=True)`` lays it out after
    `newline` and its indent, each scalar and key encoded by the C encoder.

    ``json.dumps`` with an indent runs the pure-Python encoder, whose
    closures refer to each other and so leave cyclic garbage on every call.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = (f"{json.dumps(key)}: {_indented(item, inner)}" for key, item in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + inner + ("," + inner).join(_indented(item, inner) for item in value) + newline + "]"
    return json.dumps(value)


def report_chunks(report: ConformanceReport) -> Iterator[bytes]:
    r"""The UTF-8 text of `save_report` in chunks: the frame, then each batch
    of violations, laid out only when the chunk before it has been taken.

    The violation list is laid out exactly as ``json.dumps(indent=2,
    sort_keys=True)`` lays it out one level down.  Every field is a string or
    an integer (not a bool), and an encoded string holds no raw newline, so
    "},\n      {" occurs only between two violations.
    """
    doc = {
        "conforms": report.conforms,
        "prefix_mode": report.prefix_mode,
        "summary": report.summary,
        "violations": [],
        "per_constraint": report.per_constraint,
        "per_aoc_edge": [
            {"activity": activity, "class": cls, "always": always, "eventually": eventually}
            for (activity, cls), (always, eventually) in report.per_aoc_edge.items()
        ],
        "per_rel_type": report.per_rel_type,
        "unknown_activities": list(report.unknown_activities),
    }
    # "violations" sorts last, so the frame ends with its empty list: '[]\n}'.
    frame, violations = _indented(doc)[:-4], report.violations
    if not violations:
        yield (frame + "[]\n}\n").encode()
        return
    yield (frame + "[\n    {\n      ").encode()
    for start in range(0, len(violations), _BATCH):
        if start:
            yield _BETWEEN.encode()
        yield _batch_json(violations[start : start + _BATCH]).encode()
    yield b"\n    }\n  ]\n}\n"


def save_report(report: ConformanceReport) -> bytes:
    r"""Canonical report serialization: sorted keys, pre-sorted violations.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``.
    """
    return b"".join(report_chunks(report))


# The values a report's violation may give each of these fields.
_FIELD_VALUES = {
    "side": ("", "src", "tar"),
    "temporal": ("", "always", "eventually"),
    "severity": (SEVERITY_ERROR, SEVERITY_WARNING),
}


def load_report(data: bytes | str) -> ConformanceReport:
    doc = _expect(_parse_json(data), dict, "document")
    violations = []
    for i, item in enumerate(_take(doc, "violations", list, "document", default=[])):
        where = f"violations[{i}]"
        entry = _expect(item, dict, where)
        kind = _take(entry, "kind", str, where)
        if kind not in KINDS:
            raise FormatError(f"unknown problem type {kind!r}", f"{where}.kind")
        fields: dict[str, Any] = {}
        for key, default in Violation._field_defaults.items():
            if key in entry:
                value = entry.pop(key)
                if value is not None or default is not None:  # observed/before/after may be null
                    _expect(value, int if default is None else type(default), f"{where}.{key}")
                if key in _FIELD_VALUES and value not in _FIELD_VALUES[key]:
                    raise FormatError(f"unknown {key} {value!r}", f"{where}.{key}")
                fields[key] = value
        if kind in ("I", "II") and fields.get("temporal") and not fields.get("side"):
            raise FormatError("a temporal breach needs side src or tar", f"{where}.side")
        _no_extras(entry, where)
        violations.append(Violation(kind=kind, **fields))
    prefix = _take(doc, "prefix_mode", bool, "document", default=False)
    rebuilt = aggregate(violations, prefix=prefix)
    declared = _take(doc, "conforms", bool, "document")
    if declared != rebuilt.conforms:
        raise FormatError("conforms flag does not match the violation list", "document")
    # Aggregate tables are recomputed from the violations rather than trusted.
    for key in ("summary", "per_constraint", "per_aoc_edge", "per_rel_type", "unknown_activities"):
        doc.pop(key, None)
    _no_extras(doc, "document")
    return rebuilt
