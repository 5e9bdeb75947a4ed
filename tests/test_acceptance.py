"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line in the terminal summary.  Tolerances are pinned here, not configurable."""

from __future__ import annotations

import gc
import json
import math
import random
import re
import statistics
import time
import tracemalloc
from collections import Counter

import pytest

from conftest import record_acceptance
from ocbcheck import (
    EventLog,
    FormatError,
    ModelDefectsError,
    builtin_constraint_type,
    check_all,
    check_type_i,
    check_type_ii,
    check_type_ix,
    check_violations,
    evaluate_bc,
    generate_conforming,
    inject_violation,
    load_log,
    load_model,
    load_report,
    save_log,
    save_model,
    save_report,
)
from ocbcheck.violations import KINDS, sort_violations
from oracle import naive_check
from scenarios import (
    CARD_PAIRS,
    MULTI_RANGE_PAIRS,
    class_flip_log,
    class_flip_model,
    crowd_log,
    crowd_model,
    customer_pairs_log,
    desk_hubs_log,
    desk_pairs_log,
    desk_model,
    fan_in_model,
    hiring_log,
    hiring_model,
    hub_order_log,
    order_object_model,
    order_class_snapshot_model,
    order_process_log,
    order_process_model,
    persistent_breach_log,
    precedence_log,
    precedence_model,
    random_case_scenario,
    random_log,
    random_model,
    relationship_hub_log,
    relink_log,
    relink_model,
    throughput_model,
    ticket_log,
    ticket_model,
)


def test_criterion_1_behavioral_violations_exact_set():
    """Unary-precedence over a shared relationship: violations exactly at the
    two reference events with no earlier correlated target."""
    started = time.perf_counter()
    violations = check_type_ix(precedence_model(), precedence_log())
    elapsed = time.perf_counter() - started
    assert [(v.event, v.before, v.after) for v in violations] == [("e3", 0, 1), ("e6", 0, 0)]
    assert {v.constraint for v in violations} == {"c"}
    assert elapsed < 1.0
    record_acceptance(1, "behavioral check flags exactly the two unmatched reference events")


def test_criterion_2_event_object_count_violations_exact_set():
    """Four payments over five tickets: one double payment, one missed
    payment, one ticketless payment, and nothing else."""
    report = check_all(ticket_model(), ticket_log())
    rows = [
        (v.kind, v.temporal, v.obj or v.event, v.observed, v.expected)
        for v in report.violations
    ]
    assert rows == [
        ("VII", "always", "t3", 2, "0..1"),
        ("VII", "eventually", "t5", 0, "1"),
        ("VIII", "", "p3", 0, "1..*"),
    ]
    record_acceptance(2, "double/missing payment and ticketless payment are the only findings")


def test_criterion_3_validity_and_fulfilment_triplet():
    model = order_class_snapshot_model()
    _, valid_log = order_object_model()
    assert check_type_i(model, valid_log) == []
    for mutant in (
        order_object_model(drop_relation=("r1", "o1", "ol1"))[1],
        order_object_model(add_relation=("r1", "o2", "ol1"))[1],
    ):
        violations = check_type_i(model, mutant)
        assert len(violations) == 1
        assert (violations[0].rel_type, violations[0].side, violations[0].expected) == ("r1", "src", "1")
    fulfilment = check_type_ii(model, valid_log)
    assert [(v.obj, v.rel_type, v.expected) for v in fulfilment] == [
        ("ol2", "r2", "1"),
        ("ol4", "r2", "1"),
    ]
    record_acceptance(3, "object-model validity and fulfilment triplet behaves exactly as specified")


def test_criterion_4_order_process_end_to_end():
    model, log = order_process_model(), order_process_log()
    assert 20 <= len(log.events) <= 40
    assert check_all(model, log).conforms
    for kind in KINDS:
        mutated, outcome = inject_violation(model, log, kind, seed=4)
        report = check_all(model, mutated)
        assert not report.conforms, kind
        assert any(outcome.matches(v) for v in report.violations), (kind, outcome)
    record_acceptance(4, "order process run conforms; all nine injected mutations flip the verdict")


def test_criterion_5_hiring_constraints():
    model = hiring_model()
    assert check_all(model, hiring_log()).conforms
    early = [v for v in check_violations(model, hiring_log("apply-before-open")) if v.kind == "IX"]
    assert [(v.constraint, v.before) for v in early] == [("c5", 0)]
    late = check_violations(model, hiring_log("apply-after-close"))
    assert [(v.kind, v.constraint, v.event, v.after) for v in late] == [("IX", "c6", "e6", 1)]
    record_acceptance(5, "hiring model: apply-before-open and apply-after-close mutants detected")


def test_criterion_6_oracle_equivalence_on_random_scenarios():
    """The optimized checker agrees with the definitional evaluator on 700
    random (model, log) pairs, violation for violation: 500 with the common
    cardinalities, and 200 whose link and relationship cardinalities are
    unions of ranges, so that counts fall into the gaps between ranges and
    an object can have several runs of type VII breaches."""
    pairs, several_runs = 0, 0
    families = [(seed, CARD_PAIRS) for seed in range(500)] + [(seed, MULTI_RANGE_PAIRS) for seed in range(200)]
    for seed, card_pairs in families:
        rng = random.Random(seed)
        model = random_model(rng, card_pairs)
        log = random_log(rng, model, max_events=15)
        assert len(log.events) <= 15
        assert len(log.final_snapshot().objects) <= 12
        assert len(model.bcm.constraints) <= 4
        fast = list(check_violations(model, log))
        slow = sort_violations(naive_check(model, log))
        where = f"seed {seed}{'' if card_pairs is CARD_PAIRS else ' (multi-range)'}"
        assert fast == slow, f"divergence from the definitional evaluator at {where}"
        assert fast == sort_violations(fast)
        behavioral = check_type_ix(model, log)
        assert behavioral == sort_violations(behavioral), f"unsorted type IX list at {where}"
        runs = Counter((v.activity, v.cls, v.obj) for v in fast if v.kind == "VII" and v.temporal == "always")
        several_runs += sum(n > 1 for n in runs.values())
        pairs += 1
    assert pairs == 700
    assert several_runs > 0
    record_acceptance(6, "optimized checker matches the definitional evaluator on 700 random pairs")


def test_criterion_7_trace_semantics_exhaustive_and_randomized():
    direct = {
        "response": lambda b, a: a >= 1,
        "unary-response": lambda b, a: a == 1,
        "non-response": lambda b, a: a == 0,
        "precedence": lambda b, a: b >= 1,
        "unary-precedence": lambda b, a: b == 1,
        "non-precedence": lambda b, a: b == 0,
        "co-existence": lambda b, a: b + a >= 1,
        "non-co-existence": lambda b, a: b + a == 0,
    }
    for name, predicate in direct.items():
        ctype = builtin_constraint_type(name)
        for before in range(11):
            for after in range(11):
                assert ctype.accepts(before, after) == predicate(before, after)

    from ocbcheck import BcModel
    from scenarios import constraint

    rng = random.Random(77)
    activities = ["a1", "a2", "a3"]
    for _ in range(200):
        model = BcModel(
            activities=frozenset(activities),
            constraints=tuple(
                constraint(f"c{i}", rng.choice(sorted(direct)), rng.choice(activities),
                           rng.choice(activities))
                for i in range(rng.randint(1, 4))
            ),
        )
        trace = [(f"e{i}", rng.choice(activities)) for i in range(rng.randint(0, 12))]
        fast = {
            (v.constraint, v.ref_event): (v.before_count, v.after_count, v.satisfied)
            for v in evaluate_bc(model, trace)
        }
        for c in model.constraints:
            for i, (eid, activity) in enumerate(trace):
                if activity != c.ref_activity:
                    continue
                before = sum(1 for j, (_, a) in enumerate(trace) if a == c.target_activity and j < i)
                after = sum(1 for j, (_, a) in enumerate(trace) if a == c.target_activity and j > i)
                assert fast[(c.id, eid)] == (before, after, c.ctype.accepts(before, after))
    record_acceptance(7, "trace semantics: exhaustive template grid and 200 randomized recounts agree")


def test_criterion_8_case_partitioning_mimics_trace_checking():
    """On single-class models where every event carries one case object,
    object-centric verdicts per case equal plain trace evaluation."""
    for seed in range(50):
        rng = random.Random(1000 + seed)
        model, log, by_case = random_case_scenario(rng)
        failing = {
            (v.constraint, v.event, v.before, v.after)
            for v in check_violations(model, log, kinds=("IX",))
        }
        expected = set()
        for case, event_ids in by_case.items():
            trace = [(eid, log.event(eid).activity) for eid in event_ids]
            for verdict in evaluate_bc(model.bcm, trace):
                if not verdict.satisfied:
                    expected.add(
                        (verdict.constraint, verdict.ref_event, verdict.before_count,
                         verdict.after_count)
                    )
        assert failing == expected, f"seed {seed}"
    record_acceptance(8, "per-case verdicts equal plain trace checking on 50 single-case scenarios")


def test_criterion_9_throughput_and_scaling():
    model = throughput_model()
    small = generate_conforming(model, events=10_000, seed=1)
    assert 10_000 <= len(small.events) <= 11_000
    assert len(small.final_snapshot().objects) * 2 == len(small.events)
    large = generate_conforming(model, events=2 * len(small.events), seed=1)

    def per_event(log, repeats):
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            report = check_all(model, log)
        elapsed = time.perf_counter() - started
        assert report.conforms
        return elapsed / (repeats * len(log.events))

    t_small = per_event(small, 1) * len(small.events)
    assert t_small < 5.0, f"10k-event check took {t_small:.2f}s"
    # The small log runs twice, so each timing of a pair covers as many events.
    ratio = median_pair_ratio(lambda: per_event(small, 2), lambda: per_event(large, 1))
    assert ratio <= 1.5, f"doubling the log scaled per-event runtime by {ratio:.2f}x"

    def peak_memory(log):
        tracemalloc.start()
        check_all(model, log)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    memory_ratio = peak_memory(large) / max(peak_memory(small), 1)
    assert memory_ratio <= 3.0, f"doubling the log scaled memory by {memory_ratio:.2f}x"
    record_acceptance(
        9, f"10k-event check in {t_small * 1000:.0f} ms; 2x log -> {ratio:.2f}x per-event time, "
           f"{memory_ratio:.2f}x memory",
    )


def median_pair_ratio(time_small, time_large) -> float:
    """Median of time_large() / time_small() over nine pairs of timings.

    The speed of a shared machine drifts by up to 1.8x over seconds, so each
    ratio comes from two adjacent timings, in alternating order, each
    covering about as many events; the median is taken over a fixed nine
    such pairs.
    """
    ratios = []
    for pair in range(9):
        if pair % 2:
            t_large = time_large()
            t_small = time_small()
        else:
            t_small = time_small()
            t_large = time_large()
        ratios.append(t_large / t_small)
    return statistics.median(ratios)


def test_criterion_9_relationship_scoped_scaling():
    """The order process correlates IX through relationships and folds
    many-to-many deltas; building its log and checking it stay linear."""
    model = order_process_model()
    small = generate_conforming(model, events=1000, seed=1)
    large = generate_conforming(model, events=2 * len(small.events), seed=1)
    # The generator overshoots its target, so compare time per event.
    assert len(large.events) >= 2 * len(small.events)

    def per_event(run, log):
        repeats = math.ceil(len(large.events) / len(log.events))
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            run(log)
        return (time.perf_counter() - started) / (repeats * len(log.events))

    def per_event_ratio(run):
        return median_pair_ratio(lambda: per_event(run, small), lambda: per_event(run, large))

    build = per_event_ratio(lambda log: EventLog(init=log.init, events=log.events))
    check = per_event_ratio(lambda log: check_all(model, log))
    assert build <= 1.5, f"doubling the log scaled per-event build time by {build:.2f}x"
    assert check <= 1.5, f"doubling the log scaled per-event check time by {check:.2f}x"
    record_acceptance(
        9, f"order process {len(small.events)} -> {len(large.events)} events: per-event "
           f"build {build:.2f}x, check {check:.2f}x",
    )


def test_criterion_9_persistent_type_i_breach_scaling():
    """A type I breach that persists is reported again at every event, so
    the report grows with the log: the check's cost per violation stays flat."""
    model = desk_model()
    small, large = persistent_breach_log(1500), persistent_breach_log(3000)

    def per_violation(log, repeats):
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            report = check_all(model, log)
        return (time.perf_counter() - started) / (repeats * len(report.violations))

    assert check_all(model, large).summary["I"] == 3 * len(large.events)
    ratio = median_pair_ratio(lambda: per_violation(small, 2), lambda: per_violation(large, 1))
    assert ratio <= 1.5, f"doubling the log scaled per-violation check time by {ratio:.2f}x"
    record_acceptance(
        9, f"persistent type I breach {len(small.events)} -> {len(large.events)} events: "
           f"per-violation check {ratio:.2f}x",
    )


@pytest.mark.parametrize(
    "via, build, shape",
    [
        ("r", relationship_hub_log, "relationship hub"),
        ("desk", desk_hubs_log, "two class-scope hubs"),
    ],
)
def test_criterion_9_fan_in_correlation_scaling(via, build, shape):
    """Every reference event correlates with all target events of the log,
    through one customer's orders or two desks: IX still costs the same per
    event at twice the size."""
    model = fan_in_model(via)
    small, large = build(500), build(1000)

    def per_event(log):
        repeats = 40_000 // len(log.events)
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            found = check_violations(model, log, ("IX",))
        assert not found
        return (time.perf_counter() - started) / (repeats * len(log.events))

    ratio = median_pair_ratio(lambda: per_event(small), lambda: per_event(large))
    assert ratio <= 1.5, f"doubling the log scaled per-event IX time by {ratio:.2f}x"
    record_acceptance(
        9, f"{shape} {len(small.events)} -> {len(large.events)} events: per-event IX {ratio:.2f}x"
    )


@pytest.mark.parametrize(
    "via, build, pairs, shape",
    [
        ("desk", desk_pairs_log, 2000, "distinct desk sets {d1, x_i}"),
        ("r", customer_pairs_log, 1000, "distinct customer sets {c, k_i}"),
        ("r", hub_order_log, 1000, "customers k_i of one hub order"),
    ],
)
def test_criterion_9_distinct_set_correlation_scaling(via, build, pairs, shape):
    """Every reference event has an object set of its own, and each set holds
    the one busy object, or a partner of it, that correlates with all target
    events of its kind: IX still costs the same per event at twice the size."""
    model = fan_in_model(via)
    small, large = build(pairs), build(2 * pairs)

    def per_event(log):
        repeats = 16_000 // len(log.events)
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            found = check_violations(model, log, ("IX",))
        assert not found
        return (time.perf_counter() - started) / (repeats * len(log.events))

    ratio = median_pair_ratio(lambda: per_event(small), lambda: per_event(large))
    assert ratio <= 1.5, f"doubling the log scaled per-event IX time by {ratio:.2f}x"
    record_acceptance(
        9, f"{shape} {len(small.events)} -> {len(large.events)} events: per-event IX {ratio:.2f}x"
    )


@pytest.mark.parametrize(
    "kind, rel_types, per_note, shape",
    [("VIII", 2, 50, "fifty counted objects per note"), ("II", 32, 5, "32 relationship types")],
)
def test_criterion_9_fan_in_kind_scaling(kind, rel_types, per_note, shape):
    """VIII over events that each reference many counted objects, and II
    over many relationship types: each kind still costs the same per event
    at twice the size."""
    model = crowd_model(rel_types)
    small, large = crowd_log(1000, rel_types, per_note), crowd_log(2000, rel_types, per_note)

    def per_event(log):
        repeats = 4_000 // len(log.events)
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            found = check_violations(model, log, (kind,))
        assert len(found) > len(log.events) // 4
        return (time.perf_counter() - started) / (repeats * len(log.events))

    ratio = median_pair_ratio(lambda: per_event(small), lambda: per_event(large))
    assert ratio <= 1.5, f"doubling the log scaled per-event {kind} time by {ratio:.2f}x"
    record_acceptance(
        9, f"{shape} {len(small.events)} -> {len(large.events)} events: per-event {kind} {ratio:.2f}x"
    )


@pytest.mark.parametrize("every, which", [(1, "every line"), (2, "every other line")])
def test_criterion_9_off_canonical_decode_scaling(every, which):
    """Event lines in another JSON layout (compact separators) miss the
    canonical line's match and go to the JSON scanner, every line or every
    other one: loading still costs the same per line at twice the size."""
    model = throughput_model()

    def relaid(events: int) -> bytes:
        lines = save_log(generate_conforming(model, events=events, seed=1)).decode().splitlines()
        compact = [json.dumps(json.loads(line), separators=(",", ":")) if i % every == 0 else line
                   for i, line in enumerate(lines)]
        return "\n".join(compact).encode()

    small, large = relaid(5000), relaid(10_000)
    assert load_log(large) == generate_conforming(model, events=10_000, seed=1)

    def per_line(data, repeats):
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            log = load_log(data)
        return (time.perf_counter() - started) / (repeats * len(log))

    ratio = median_pair_ratio(lambda: per_line(small, 2), lambda: per_line(large, 1))
    assert ratio <= 1.5, f"doubling the log scaled per-line load time by {ratio:.2f}x"
    record_acceptance(
        9, f"{which} off the canonical form, 5000 -> 10000 events: per-line load {ratio:.2f}x"
    )


def test_one_long_near_canonical_line_decodes_in_bounded_time():
    """A line of about 1 MiB in the canonical form up to its last object id,
    which holds an escape, or up to its end, which lacks the closing brace:
    the first loads and the second is refused, each in about the time the
    JSON decoder takes over it, not the time of a scan per object."""
    ids = ", ".join(f'"t{i:07d}"' for i in range(100_000))
    head = '{"activity": "pay", "id": "e1", "objects": [' + ids
    escaped = (head + ', "t\\u0031"], "seq": 1}').encode()
    unclosed = (head + '], "seq": 1').encode()
    assert len(escaped) > 2**20
    started = time.perf_counter()
    json.loads(escaped)
    decoder = time.perf_counter() - started
    started = time.perf_counter()
    assert len(load_log(escaped).events[0].objects) == 100_001
    with pytest.raises(FormatError, match="^line 1: invalid JSON"):
        load_log(unclosed)
    elapsed = time.perf_counter() - started
    # A scan per object would take minutes; both loads take tens of decoders.
    assert elapsed < 100 * decoder + 1.0, f"{elapsed:.2f}s for two 1 MiB lines"


def test_criterion_9_many_assertions_scaling():
    """An asserted snapshot every fourth event: types III, VI and VIII read
    an object's class at an event from its stretch's class map, and still
    cost the same per event at twice the size."""
    model = class_flip_model()
    small, large = class_flip_log(2000), class_flip_log(4000)

    def per_event(log):
        repeats = 8_000 // len(log.events)
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            found = check_violations(model, log, ("III", "VI", "VIII"))
        assert {v.kind for v in found} == {"III", "VI", "VIII"}
        return (time.perf_counter() - started) / (repeats * len(log.events))

    ratio = median_pair_ratio(lambda: per_event(small), lambda: per_event(large))
    assert ratio <= 1.5, f"doubling the log scaled per-event III, VI and VIII time by {ratio:.2f}x"
    record_acceptance(
        9, f"many assertions {len(small.events)} -> {len(large.events)} events: "
           f"per-event III, VI and VIII {ratio:.2f}x"
    )


def test_criterion_9_type_i_over_many_assertions_scaling():
    """An asserted snapshot every other event flips one of four objects'
    class while relations on them come and go: type I takes each asserting
    event's stretch map in turn, not by a scan of the stretches, and still
    costs the same per event at twice the size."""
    model = relink_model()
    small, large = relink_log(6000, every=2, objects=4), relink_log(12_000, every=2, objects=4)

    def per_event(log):
        repeats = 12_000 // len(log.events)
        gc.collect()
        started = time.perf_counter()
        for _ in range(repeats):
            found = check_violations(model, log, ("I",))
        assert len(found) > len(log.events)
        return (time.perf_counter() - started) / (repeats * len(log.events))

    assert len(large._stretches) == 6001
    ratio = median_pair_ratio(lambda: per_event(small), lambda: per_event(large))
    assert ratio <= 1.5, f"doubling the log scaled per-event type I time by {ratio:.2f}x"
    record_acceptance(
        9, f"type I over many assertions {len(small.events)} -> {len(large.events)} events: "
           f"per-event type I {ratio:.2f}x"
    )


def test_criterion_9_generator_scaling_on_order_process():
    """Order lines wait for their delivery, so the generator's ready demand
    grows with the log; drawing from it must still cost the same per event."""
    model = order_process_model()
    target = 2000

    def per_event(events, repeats):
        gc.collect()
        started = time.perf_counter()
        emitted = sum(len(generate_conforming(model, events, seed=1).events) for _ in range(repeats))
        return (time.perf_counter() - started) / emitted

    ratio = median_pair_ratio(lambda: per_event(target, 2), lambda: per_event(2 * target, 1))
    assert ratio <= 1.5, f"doubling the target scaled per-event generation time by {ratio:.2f}x"
    record_acceptance(
        9, f"order process generator {target} -> {2 * target} target events: per-event {ratio:.2f}x"
    )


BAD_MODEL_DOCS = [
    (b'{"activities": [', "invalid JSON"),
    (b'{"activities": []}', "missing required key 'classes'"),
    (b'{"activities": [], "classes": [], "color": 1}', "unknown key 'color'"),
    (b'{"activities": 3, "classes": []}', "expected array"),
    (b'{"activities": [], "classes": [], "aoc": [{"activity": "a"}]}', "missing required key 'class'"),
    (
        b'{"activities": ["a"], "classes": ["k"], "aoc": [{"activity": "a", "class": "k", '
        b'"card_obj": "oops"}]}',
        "bad cardinality 'oops'",
    ),
    (
        b'{"activities": ["a"], "classes": ["k"], "aoc": [{"activity": "a", "class": "k", '
        b'"card_obj": "5..2"}]}',
        "bad cardinality",
    ),
    (
        b'{"activities": ["a"], "classes": [], "constraints": [{"id": "c", "type": "zz", '
        b'"ref": "a", "target": "a", "via": "k"}]}',
        "unknown constraint template",
    ),
    (b"\xff\xfe", "not valid UTF-8"),
    (
        b'{"activities": [], "classes": ["k"], "relationships": [{"id": "r", "source": "k", '
        b'"target": "k", "card_src_always": 1}]}',
        re.escape("relationships[0].card_src_always: expected string, got int"),
    ),
    (b"[" * 100_000, re.escape("document: invalid JSON: nesting deeper than the decoder allows")),
    (b"9" * 5000, re.escape("document: invalid JSON: integer longer than 4300 digits")),
]

BAD_LOG_DOCS = [
    (b"{nope}", "invalid JSON"),
    (b'{"id": "e1", "activity": "a"}', "missing required key 'seq'"),
    (b'{"id": "e1", "seq": 1, "activity": "a", "x": 1}', "unknown key 'x'"),
    (b'{"id": "e1", "seq": 9223372036854775808, "activity": "a"}', "64-bit"),
    (
        b'{"id": "e1", "seq": 1, "activity": "a"}\n{"id": "e2", "seq": 1, "activity": "a"}',
        "duplicate seq",
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a"}\n{"id": "e1", "seq": 2, "activity": "a"}',
        "duplicate event id",
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o", "class": "k"}]}\n'
        b'{"id": "e2", "seq": 2, "activity": "a", "new_objects": [{"id": "o", "class": "k"}]}',
        "already exists",
    ),
    (b'{"id": "e1", "seq": 1, "activity": "a", "new_relations": [["r", "x", "y"]]}', "unknown object"),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "removed_relations": [["r", "x", "y"]]}',
        "cannot remove absent relation",
    ),
    (b'{"id": "e1", "seq": 1, "activity": "a"}\n{"init": {}}', "init model must be the first line"),
    (b'{"id": "e1", "seq": true, "activity": "a"}', re.escape("line 1.seq: expected integer, got boolean")),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "objects": ["o", 2]}',
        re.escape("line 1.objects[1]: expected string, got int"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": 7, "class": "k"}]}',
        re.escape("line 1.new_objects[0].id: expected string, got int"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "new_relations": [["r", "x", null]]}',
        re.escape("line 1.new_relations[0][2]: expected string, got NoneType"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": {"objects": [{"id": "o", "class": 3}]}}',
        re.escape("line 1.assert_snapshot.objects[0].class: expected string, got int"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "attrs": ["k"]}',
        re.escape("line 1.attrs: expected object, got list"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "attrs": {"j": "v", "k": 1}}',
        re.escape("line 1.attrs.k: expected string, got int"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "objects": null}',
        re.escape("line 1.objects: expected array, got NoneType"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "objects": [3]}',
        re.escape("line 1.objects[0]: expected string, got int"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "assert_snapshot": null}',
        re.escape("line 1.assert_snapshot: expected object, got NoneType"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "objects": ["o"], "zz": 1, "yy": 2}',
        re.escape("line 1: unknown key 'yy'"),
    ),
    (b"[" * 100_000, re.escape("line 1: invalid JSON: nesting deeper than the decoder allows")),
    (
        b'{"id": "e1", "seq": ' + b"9" * 5000 + b', "activity": "a"}',
        re.escape("line 1: invalid JSON: integer longer than 4300 digits"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a"} {"x": 1}',
        re.escape("line 1: invalid JSON: Extra data (line 1, column 41)"),
    ),
    (
        b'\xef\xbb\xbf{"id": "e1", "seq": 1, "activity": "a"}',
        re.escape("line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)"),
    ),
    (b'["id", "e1"]', re.escape("line 1: expected object, got list")),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "new_objects": null}',
        re.escape("line 1.new_objects: expected array, got NoneType"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "new_objects": ["o"]}',
        re.escape("line 1.new_objects[0]: expected object, got str"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o"}]}',
        re.escape("line 1.new_objects[0]: missing required key 'class'"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "new_objects": [{"id": "o", "class": "k", "x": 1}]}',
        re.escape("line 1.new_objects[0]: unknown key 'x'"),
    ),
    (
        b'{"id": "e1", "seq": 1, "activity": "a", "new_relations": [["r", "x"]]}',
        re.escape("line 1.new_relations[0]: expected [relType, source, target]"),
    ),
]


def test_criterion_10_format_robustness():
    for data, needle in BAD_MODEL_DOCS:
        with pytest.raises(FormatError, match=needle):
            load_model(data)
    with pytest.raises(ModelDefectsError, match="scope-not-linked"):
        load_model(
            json.dumps(
                {
                    "activities": ["a1", "a2"],
                    "classes": ["oca", "ocb"],
                    "relationships": [{"id": "r", "source": "oca", "target": "ocb"}],
                    "aoc": [{"activity": "a1", "class": "oca"}],
                    "constraints": [
                        {"id": "c", "type": "response", "ref": "a1", "target": "a2", "via": "r"}
                    ],
                }
            )
        )
    for data, needle in BAD_LOG_DOCS:
        with pytest.raises(FormatError, match=needle):
            load_log(data)

    for model in (order_process_model(), hiring_model(), precedence_model()):
        data = save_model(model)
        assert save_model(load_model(data)) == data
    for log in (order_process_log(), ticket_log(), precedence_log()):
        data = save_log(log)
        assert save_log(load_log(data)) == data
    report = check_all(ticket_model(), ticket_log())
    assert save_report(load_report(save_report(report))) == save_report(report)
    record_acceptance(10, "every schema error class has a failing fixture; round-trips byte-stable")
