from __future__ import annotations

import random
from collections import Counter

import pytest

from ocbcheck import aggregate, check_all, check_violations, render_text
from ocbcheck.violations import KINDS, SEVERITY_ERROR, SEVERITY_WARNING, Violation
from scenarios import (
    order_object_model,
    order_class_snapshot_model,
    precedence_log,
    precedence_model,
    random_log,
    random_model,
    ticket_log,
    ticket_model,
)


def test_empty_aggregate_is_all_zero():
    report = aggregate([])
    assert report.conforms
    assert report.violations == ()
    assert set(report.summary.values()) == {0}
    assert report.per_constraint == {}
    assert report.per_aoc_edge == {}
    assert report.unknown_activities == ()


def test_behavioral_violations_counted_per_constraint():
    report = check_all(precedence_model(), precedence_log())
    assert report.per_constraint == {"c": 2}
    assert report.summary["IX"] == 2


def test_ticket_scenario_aggregates():
    report = check_all(ticket_model(), ticket_log())
    assert report.per_aoc_edge == {("pay", "ticket"): (1, 1)}
    assert report.summary["VII"] == 2 and report.summary["VIII"] == 1


def test_validity_and_fulfilment_counted_per_relationship():
    model = order_class_snapshot_model()
    _, log = order_object_model(drop_relation=("r1", "o1", "ol1"))
    report = check_all(model, log)
    assert report.per_rel_type["r1"]["src_always"] == 1
    assert report.per_rel_type["r2"]["tar_eventually"] == 2


def test_unknown_activities_listed():
    from scenarios import event
    from ocbcheck import EventLog

    log = EventLog(events=(event("e1", 1, "ship"), event("e2", 2, "ship"), event("e3", 3, "melt")))
    report = check_all(ticket_model(), log)
    assert report.unknown_activities == ("melt", "ship")
    assert report.summary["IV"] == 3


def test_counts_match_violation_list():
    report = check_all(ticket_model(), ticket_log())
    for kind, count in report.summary.items():
        assert count == sum(1 for v in report.violations if v.kind == kind)
    assert (not report.violations) == report.conforms


def naive_tables(violations) -> dict:
    """Each aggregate field, recounted one violation at a time."""
    summary = dict.fromkeys(KINDS, 0)
    per_constraint: dict[str, int] = {}
    edges: dict[tuple[str, str], list[int]] = {}
    buckets: dict[str, dict[str, int]] = {}
    for v in violations:
        summary[v.kind] += 1
        if v.kind == "IX":
            per_constraint[v.constraint] = per_constraint.get(v.constraint, 0) + 1
        elif v.kind == "VII":
            edges.setdefault((v.activity, v.cls), [0, 0])[v.temporal != "always"] += 1
        elif v.kind in ("I", "II"):
            bucket = f"{v.side}_{v.temporal}" if v.temporal else "typing"
            counts = buckets.setdefault(
                v.rel_type, dict.fromkeys(("src_always", "src_eventually", "tar_always", "tar_eventually", "typing"), 0)
            )
            counts[bucket] += 1
    return {
        "summary": summary,
        "per_constraint": dict(sorted(per_constraint.items())),
        "per_aoc_edge": {edge: tuple(counts) for edge, counts in sorted(edges.items())},
        "per_rel_type": dict(sorted(buckets.items())),
        "unknown_activities": tuple(sorted({v.activity for v in violations if v.kind == "IV"})),
        "conforms": all(v.severity != SEVERITY_ERROR for v in violations),
    }


def test_aggregate_equals_a_per_violation_recount():
    """Also on the lists whose first, a middle or the last kind is absent,
    so that each kind's slice is found at every edge."""
    dropped = dict.fromkeys(("I", "V", "IX"), 0)
    for seed in range(40):
        rng = random.Random(seed)
        model = random_model(rng)
        log = random_log(rng, model, max_events=25)
        for prefix in (False, True):
            violations = check_violations(model, log, prefix=prefix)
            rng.shuffle(violations)
            without = {kind: [v for v in violations if v.kind != kind] for kind in dropped}
            for kind, part in without.items():
                dropped[kind] += len(part) < len(violations) and bool(part)
            for part in (violations, violations[:1], *without.values()):
                report = aggregate(part, prefix=prefix)
                expected = naive_tables(part)
                fields = {name: getattr(report, name) for name in expected}
                assert fields == expected, (seed, prefix)
                assert repr(fields) == repr(expected), "tables in another order"
                assert report.prefix_mode is prefix
    assert min(dropped.values()) >= 20, dropped


def test_render_conforming():
    text = render_text(aggregate([]))
    assert text.splitlines()[0] == "CONFORMS: yes"
    assert "0 violation(s)" in text
    for kind in ("I", "IX"):
        assert any(kind in line for line in text.splitlines())


def test_render_ticket_scenario_lines():
    report = check_all(ticket_model(), ticket_log())
    text = render_text(report)
    assert text.splitlines()[0] == "CONFORMS: no"
    assert "object t3: always event count 2, expected 0..1, at event p2 (seq 2)" in text
    assert "object t5: eventual event count 0, expected 1, at event p4 (seq 4)" in text
    assert "event p3 (seq 3): references 0 object(s), expected 1..*" in text


def test_render_behavioral_lines():
    report = check_all(precedence_model(), precedence_log())
    text = render_text(report)
    assert "constraint c at event e3 (seq 3): before=0 after=1, expected before in 1" in text
    assert "constraint c at event e6 (seq 6): before=0 after=0, expected before in 1" in text


def test_every_violation_appears_exactly_once_in_the_rendering():
    report = check_all(ticket_model(), ticket_log())
    text = render_text(report)
    assert text.count("[VII]") == 2
    assert text.count("[VIII]") == 1


def test_render_is_deterministic():
    model, log = ticket_model(), ticket_log()
    assert render_text(check_all(model, log)) == render_text(check_all(model, log))


def test_prefix_mode_rendering_mentions_warnings():
    violations = check_violations(ticket_model(), ticket_log(), prefix=True)
    text = render_text(aggregate(violations, prefix=True))
    assert "warning" in text


# -- the text line of each kind ----------------------------------------------------

_LINES = [
    (Violation("I", "e1", 1, rel_type="r1", side="src", obj="o1", temporal="always", observed=0, expected="1"),
     "[I] relationship r1 src side: object o1 has 0 partner(s), expected always 1 at event e1 (seq 1)"),
    (Violation("I", "e1", 1, rel_type="r1", side="tar", obj="ol1", cls="order", expected="line",
               detail="relation (r1,ol1,o1): tar endpoint has class 'order', expected 'line'"),
     "[I] relationship r1 tar side: relation (r1,ol1,o1): tar endpoint has class 'order', "
     "expected 'line' at event e1 (seq 1)"),
    (Violation("I", "e1", 1, rel_type="r9",
               detail="relation (r9,o1,ol1): relationship type not declared in the class model"),
     "[I] relationship r9 - side: relation (r9,o1,ol1): relationship type not declared in the "
     "class model at event e1 (seq 1)"),
    (Violation("II", "e9", 9, rel_type="r2", side="tar", obj="ol1", temporal="eventually", observed=2, expected="1"),
     "[II] relationship r2 tar side: object ol1 has 2 partner(s), expected eventually 1 at event e9 (seq 9)"),
    (Violation("II", "e9", 9, rel_type="r2", side="src", obj="o2", temporal="eventually", observed=0,
               expected="1..*", severity=SEVERITY_WARNING),
     "[II] (warning) relationship r2 src side: object o2 has 0 partner(s), expected eventually 1..* "
     "at event e9 (seq 9)"),
    (Violation("III", "e4", 4, obj="o1", detail="object disappeared from the object model"),
     "[III] object o1: object disappeared from the object model at event e4 (seq 4)"),
    (Violation("III", "e5", 5, obj="o3", detail="object changed class from 'order' to 'line'"),
     "[III] object o3: object changed class from 'order' to 'line' at event e5 (seq 5)"),
    (Violation("IV", "e2", 2, activity="melt"),
     "[IV] event e2 (seq 2): activity 'melt' is not in the model"),
    (Violation("V", "e3", 3, obj="ghost"),
     "[V] event e3 (seq 3): referenced object ghost does not exist"),
    (Violation("VI", "e3", 3, activity="pay", cls="line", obj="ol1"),
     "[VI] event e3 (seq 3): activity 'pay' may not reference class 'line' (object ol1)"),
    (Violation("VII", "e6", 6, activity="pay", cls="order", obj="o1", temporal="always", observed=2, expected="0..1"),
     "[VII] (pay, order) object o1: always event count 2, expected 0..1, at event e6 (seq 6)"),
    (Violation("VII", "e9", 9, activity="ship", cls="order", obj="o1", temporal="eventually", observed=0,
               expected="1"),
     "[VII] (ship, order) object o1: eventual event count 0, expected 1, at event e9 (seq 9)"),
    (Violation("VII", "e9", 9, activity="ship", cls="order", obj="o2", temporal="eventually", observed=0,
               expected="1", severity=SEVERITY_WARNING),
     "[VII] (warning) (ship, order) object o2: eventual event count 0, expected 1, at event e9 (seq 9)"),
    (Violation("VIII", "e7", 7, activity="pay", cls="order", observed=0, expected="1..*"),
     "[VIII] (pay, order) event e7 (seq 7): references 0 object(s), expected 1..*"),
    (Violation("IX", "e8", 8, constraint="c1", before=0, after=1, expected="before in 1"),
     "[IX] constraint c1 at event e8 (seq 8): before=0 after=1, expected before in 1"),
    (Violation("IX", "e9", 9, constraint="c2", before=1, after=0, expected="after in 1..*",
               severity=SEVERITY_WARNING),
     "[IX] (warning) constraint c2 at event e9 (seq 9): before=1 after=0, expected after in 1..*"),
    (Violation("II", rel_type="r2", side="src", obj="o4", temporal="eventually", observed=0, expected="1"),
     "[II] relationship r2 src side: object o4 has 0 partner(s), expected eventually 1 at final state"),
]

_TITLES = {
    "I": "object-model validity",
    "II": "fulfilment",
    "III": "monotonicity",
    "IV": "activity existence",
    "V": "object existence",
    "VI": "proper classes",
    "VII": "events per object",
    "VIII": "objects per event",
    "IX": "behavioral constraints",
}


@pytest.mark.parametrize("violation, line", _LINES, ids=[line[:40] for _, line in _LINES])
def test_each_kind_renders_its_line_under_its_header(violation, line):
    lines = render_text(aggregate([violation], prefix=True)).split("\n")
    at = lines.index(f"Type {violation.kind} ({_TITLES[violation.kind]}):")
    assert lines[at + 1 : at + 3] == ["  " + line, ""]


def test_render_pins_every_summary_row_header_and_the_footer():
    lines = render_text(aggregate([v for v, _ in _LINES])).splitlines()
    counts = Counter(v.kind for v, _ in _LINES)
    assert lines[:2] == ["CONFORMS: no", f"{len(_LINES)} violation(s)"]
    assert lines[3:12] == [
        "     I  object-model validity      3",
        "    II  fulfilment                 3",
        "   III  monotonicity               2",
        "    IV  activity existence         1",
        "     V  object existence           1",
        "    VI  proper classes             1",
        "   VII  events per object          3",
        "  VIII  objects per event          1",
        "    IX  behavioral constraints     2",
    ]
    headers = [line for line in lines if line.startswith("Type ")]
    assert headers == [f"Type {kind} ({_TITLES[kind]}):" for kind in KINDS]
    for kind in KINDS:
        at = lines.index(f"Type {kind} ({_TITLES[kind]}):")
        assert all(line.startswith(f"  [{kind}] ") for line in lines[at + 1 : at + 1 + counts[kind]])
        assert lines[at + 1 + counts[kind]] == ""
    assert lines[-1] == "activities not in the model: melt"
    two = aggregate([Violation("IV", "e2", 2, activity="melt"), Violation("IV", "e1", 1, activity="'a b'")])
    assert render_text(two).endswith("\n\nactivities not in the model: 'a b', melt\n")
