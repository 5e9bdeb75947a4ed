from __future__ import annotations

import json
import random

from ocbcheck import BcModel, evaluate_bc, load_model
from ocbcheck.cardinality import builtin_constraint_type
from scenarios import constraint


def _two_constraint_model():
    # A step preceded by exactly one start, and followed by at least one finish.
    return BcModel(
        activities=frozenset({"start", "step", "finish"}),
        constraints=(
            constraint("c1", "unary-precedence", "step", "start"),
            constraint("c2", "response", "step", "finish"),
        ),
    )


def _trace(*activities):
    return [(f"e{i}", a) for i, a in enumerate(activities, start=1)]


def test_ordered_run_satisfies_both():
    verdicts = evaluate_bc(_two_constraint_model(), _trace("start", "step", "finish"))
    assert all(v.satisfied for v in verdicts)
    assert {(v.constraint, v.before_count, v.after_count) for v in verdicts} == {
        ("c1", 1, 0),
        ("c2", 0, 1),
    }


def test_lone_step_fails_both():
    verdicts = evaluate_bc(_two_constraint_model(), _trace("step"))
    assert [(v.constraint, v.satisfied) for v in verdicts] == [("c1", False), ("c2", False)]
    assert not all(v.satisfied for v in verdicts)


def test_double_start_breaks_unary_precedence_only():
    verdicts = evaluate_bc(_two_constraint_model(), _trace("start", "start", "step", "finish"))
    by_constraint = {v.constraint: v for v in verdicts}
    assert not by_constraint["c1"].satisfied and by_constraint["c1"].before_count == 2
    assert by_constraint["c2"].satisfied


def test_counts_are_strict_for_self_referential_constraints():
    model = BcModel(
        activities=frozenset({"a"}),
        constraints=(constraint("c", "non-co-existence", "a", "a"),),
    )
    verdicts = evaluate_bc(model, _trace("a"))
    assert verdicts == [
        v for v in verdicts if (v.before_count, v.after_count) == (0, 0) and v.satisfied
    ]
    two = evaluate_bc(model, _trace("a", "a"))
    assert [(v.before_count, v.after_count, v.satisfied) for v in two] == [
        (0, 1, False),
        (1, 0, False),
    ]


def test_constraints_sharing_an_id_interleave_by_position():
    model = BcModel(
        activities=frozenset({"a", "b"}),
        constraints=(
            constraint("c", "response", "a", "b"),
            constraint("c", "precedence", "a", "b"),
        ),
    )
    verdicts = evaluate_bc(model, _trace("a", "b", "a"))
    assert [(v.ref_event, v.before_count, v.after_count, v.satisfied) for v in verdicts] == [
        ("e1", 0, 1, True),
        ("e1", 0, 1, False),
        ("e3", 1, 0, False),
        ("e3", 1, 0, True),
    ]


def test_counting_exactness():
    rng = random.Random(11)
    model = _two_constraint_model()
    activities = sorted(model.activities)
    for _ in range(100):
        trace = _trace(*(rng.choice(activities) for _ in range(rng.randint(0, 12))))
        totals = {a: sum(1 for _, x in trace if x == a) for a in activities}
        by_id = dict(trace)
        for v in evaluate_bc(model, trace):
            c = model.constraint(v.constraint)
            own = 1 if by_id[v.ref_event] == c.target_activity else 0
            assert v.before_count + v.after_count + own == totals[c.target_activity]


def _naive_verdicts(model, trace):
    """Quadratic recount straight from the satisfaction definition."""
    out = []
    for c in model.constraints:
        for i, (eid, activity) in enumerate(trace):
            if activity != c.ref_activity:
                continue
            before = sum(1 for j, (_, a) in enumerate(trace) if a == c.target_activity and j < i)
            after = sum(1 for j, (_, a) in enumerate(trace) if a == c.target_activity and j > i)
            out.append((c.id, eid, before, after, c.ctype.accepts(before, after)))
    return sorted(out)


def test_single_pass_matches_quadratic_recount():
    rng = random.Random(23)
    activities = ["a1", "a2", "a3"]
    for round_no in range(200):
        constraints = tuple(
            constraint(
                f"c{i}",
                rng.choice(
                    [
                        "response", "unary-response", "non-response", "precedence",
                        "unary-precedence", "non-precedence", "co-existence", "non-co-existence",
                    ]
                ),
                rng.choice(activities),
                rng.choice(activities),
            )
            for i in range(rng.randint(1, 4))
        )
        model = BcModel(activities=frozenset(activities), constraints=constraints)
        trace = _trace(*(rng.choice(activities) for _ in range(rng.randint(0, 12))))
        fast = sorted(
            (v.constraint, v.ref_event, v.before_count, v.after_count, v.satisfied)
            for v in evaluate_bc(model, trace)
        )
        assert fast == _naive_verdicts(model, trace), f"mismatch in round {round_no}"


def test_non_response_violations_are_monotone_under_suffixing():
    model = BcModel(
        activities=frozenset({"a", "b"}),
        constraints=(constraint("c", "non-response", "a", "b"),),
    )
    rng = random.Random(5)
    for _ in range(50):
        trace = _trace(*(rng.choice(["a", "b"]) for _ in range(rng.randint(1, 10))))
        extended = trace + [(f"x{len(trace)}", "b")]
        before = {v.ref_event: v.satisfied for v in evaluate_bc(model, trace)}
        after = {v.ref_event: v.satisfied for v in evaluate_bc(model, extended)}
        for eid, was_ok in before.items():
            if not was_ok:
                assert not after[eid]


def _pair_model(cid, left, right, forward, backward):
    """A loaded model whose one constraint is a pair: `forward` from `left`
    to `right`, and `backward` back, both scoped by class `k`."""
    doc = {
        "activities": [left, right],
        "classes": ["k"],
        "aoc": [{"activity": left, "class": "k"}, {"activity": right, "class": "k"}],
        "constraints": [
            {"id": cid, "type": forward, "ref": left, "target": right, "via": "k", "pair": backward}
        ],
    }
    return load_model(json.dumps(doc).encode())


def test_expand_shorthand_pair():
    model = _pair_model("c34", "place order", "pay", "unary-response", "unary-precedence")
    forward, backward = model.bcm.constraints
    assert (forward.id, forward.ref_activity, forward.target_activity) == ("c34#1", "place order", "pay")
    assert (backward.id, backward.ref_activity, backward.target_activity) == ("c34#2", "pay", "place order")
    assert forward.ctype == builtin_constraint_type("unary-response")
    assert backward.ctype == builtin_constraint_type("unary-precedence")
    assert model.scope == {"c34#1": "k", "c34#2": "k"}


def test_expansion_equals_joint_evaluation():
    forward, backward = _pair_model("p", "a1", "a2", "response", "precedence").bcm.constraints
    assert (forward.id, forward.ref_activity, backward.id, backward.ref_activity) == ("p#1", "a1", "p#2", "a2")
    both = BcModel(activities=frozenset({"a1", "a2"}), constraints=(forward, backward))
    only_forward = BcModel(activities=frozenset({"a1", "a2"}), constraints=(forward,))
    only_backward = BcModel(activities=frozenset({"a1", "a2"}), constraints=(backward,))
    rng = random.Random(3)
    for _ in range(50):
        trace = _trace(*(rng.choice(["a1", "a2"]) for _ in range(rng.randint(0, 8))))
        whole, forward_only, backward_only = (
            all(v.satisfied for v in evaluate_bc(bcm, trace))
            for bcm in (both, only_forward, only_backward)
        )
        assert whole == (forward_only and backward_only)
