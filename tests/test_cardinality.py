from __future__ import annotations

import random

import pytest

from ocbcheck import (
    Cardinality,
    CardinalityError,
    builtin_constraint_type,
    parse_cardinality,
)
from ocbcheck.cardinality import ConstraintType, TEMPLATES


def test_parse_single_values():
    assert parse_cardinality("1").ranges == ((1, 1),)
    assert parse_cardinality("1..*").ranges == ((1, None),)
    assert parse_cardinality("0..1").ranges == ((0, 1),)
    assert parse_cardinality("*").ranges == ((0, None),)


def test_parse_union_and_normalization():
    assert parse_cardinality("3..5,1").ranges == ((1, 1), (3, 5))
    # Adjacent and overlapping ranges merge.
    assert parse_cardinality("1..3,4..6").ranges == ((1, 6),)
    assert parse_cardinality("1..5,3..7").ranges == ((1, 7),)
    assert parse_cardinality("2,2..4,10..*").ranges == ((2, 4), (10, None))


@pytest.mark.parametrize("text", ["", "x", "1..", "..4", "5..3", "1,,2", "-1", "1..x"])
def test_parse_rejects_bad_syntax(text):
    with pytest.raises(CardinalityError):
        parse_cardinality(text)


def test_parse_error_carries_position():
    with pytest.raises(CardinalityError) as err:
        parse_cardinality("1..2,oops")
    assert err.value.position == 5


def test_parse_rejects_overflow():
    with pytest.raises(CardinalityError):
        parse_cardinality(str(2**31))
    with pytest.raises(CardinalityError, match="bound of 5000 digits"):
        parse_cardinality("1.." + "9" * 5000)
    assert parse_cardinality("0" * 5000 + "7").minimum() == 7
    assert parse_cardinality(str(2**31 - 1)).minimum() == 2**31 - 1


def test_membership():
    card = parse_cardinality("0..1")
    assert 1 in parse_cardinality("1")
    assert 2 not in card
    assert 0 not in parse_cardinality("1..*")
    assert 10**9 in parse_cardinality("1..*")


@pytest.mark.parametrize("text", ["0,2..3,5..*", "1", "*", "4..4,7", "0..1,3,6..8,11"])
def test_membership_matches_definition(text):
    card = parse_cardinality(text)

    def defined(n):
        return any(low <= n and (high is None or n <= high) for low, high in card.ranges)

    for n in [*range(13), 10**12]:
        assert (n in card) == defined(n), (text, n)


def test_gap_starts_examples():
    assert parse_cardinality("0,2").gap_starts(0, 5) == (1, 3)
    assert parse_cardinality("0,2").gap_starts(1, 1) == (1,)
    assert parse_cardinality("0,2").gap_starts(2, 2) == ()
    assert parse_cardinality("0,2").gap_starts(4, 9) == (4,)
    assert parse_cardinality("1,3..4").gap_starts(0, 4) == (0, 2)
    assert parse_cardinality("0..1,3..*").gap_starts(0, 10**9) == (2,)
    assert parse_cardinality("*").gap_starts(0, 10**9) == ()


@pytest.mark.parametrize("text", ["0,2", "1,3..4", "0..1,3..*", "1..2,5", "2", "*", "0,2..3,5..*"])
def test_gap_starts_match_the_first_non_member_of_each_run(text):
    card = parse_cardinality(text)
    for low in range(10):
        for high in range(low, 10):
            starts = tuple(n for n in range(low, high + 1) if n not in card and (n == low or n - 1 in card))
            assert card.gap_starts(low, high) == starts, (text, low, high)


def test_render_parse_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        ranges = []
        for _ in range(rng.randint(1, 3)):
            low = rng.randint(0, 40)
            high = None if rng.random() < 0.3 else low + rng.randint(0, 10)
            ranges.append((low, high))
        card = Cardinality(tuple(ranges))
        assert parse_cardinality(card.render()) == card


# Every finite bound of `_random_card` is below this, so each cardinality is
# constant on the counts from here on.
_BOUND = 12


def _random_card(rng):
    ranges = []
    for _ in range(rng.randint(1, 3)):
        low = rng.randint(0, 7)
        ranges.append((low, None if rng.random() < 0.3 else low + rng.randint(0, 3)))
    return Cardinality(tuple(ranges))


def test_subset():
    assert parse_cardinality("1").is_subset_of(parse_cardinality("0..1"))
    assert parse_cardinality("2..3,7").is_subset_of(parse_cardinality("1..*"))
    assert not parse_cardinality("1..*").is_subset_of(parse_cardinality("0..1"))
    assert not parse_cardinality("1..3").is_subset_of(parse_cardinality("1..2,4..5"))
    # Against membership, over counts up to past every finite bound and the tails beyond.
    rng = random.Random(11)
    cards = [parse_cardinality(t) for t in ("*", "0", "1", "1..*", "0..1", "2..3,7", "1..2,4..5")]
    cards += [_random_card(rng) for _ in range(60)]
    for a in cards:
        for b in cards:
            members = all(n in b for n in range(_BOUND + 1) if n in a)
            tails = a.maximum() is not None or b.maximum() is None  # all counts past every bound
            assert a.is_subset_of(b) == (members and tails), (a, b)


def test_intersect_and_shift():
    a = parse_cardinality("0..3,8..*")
    b = parse_cardinality("2..9")
    assert a.intersect(b) == parse_cardinality("2..3,8..9")
    assert a.intersect(parse_cardinality("5..6")) is None
    assert a.restrict_min(9) == parse_cardinality("9..*")


def test_empty_cardinality_rejected():
    with pytest.raises(CardinalityError):
        Cardinality(())


def test_empty_range_rejected():
    with pytest.raises(CardinalityError, match=r"^empty range 3\.\.1\b"):
        Cardinality(((0, 1), (3, 1)))


def test_constraint_type_str_is_its_rendering():
    ctype = ConstraintType(before=parse_cardinality("0"), after=parse_cardinality("1..2"),
                           total=parse_cardinality("1,3..*"))
    assert str(ctype) == ctype.render() == "before in 0 and after in 1..2 and before+after in 1,3..*"
    assert str(TEMPLATES["co-existence"]) == "before+after in 1..*"


def test_builtin_templates():
    assert builtin_constraint_type("response") == ConstraintType(after=parse_cardinality("1..*"))
    assert builtin_constraint_type("unary-precedence") == ConstraintType(before=parse_cardinality("1"))
    assert builtin_constraint_type("non-co-existence") == ConstraintType(total=parse_cardinality("0"))
    with pytest.raises(ValueError):
        builtin_constraint_type("alternate-response")


_DIRECT = {
    "response": lambda b, a: a >= 1,
    "unary-response": lambda b, a: a == 1,
    "non-response": lambda b, a: a == 0,
    "precedence": lambda b, a: b >= 1,
    "unary-precedence": lambda b, a: b == 1,
    "non-precedence": lambda b, a: b == 0,
    "co-existence": lambda b, a: b + a >= 1,
    "non-co-existence": lambda b, a: b + a == 0,
}


def test_templates_match_direct_arithmetic_exhaustively():
    # All eight templates on the full (before, after) grid up to 10.
    for name, direct in _DIRECT.items():
        ctype = builtin_constraint_type(name)
        for before in range(11):
            for after in range(11):
                assert ctype.accepts(before, after) == direct(before, after), (
                    name, before, after,
                )


def test_constraint_type_accepts_examples():
    assert builtin_constraint_type("response").accepts(0, 3)
    assert builtin_constraint_type("unary-precedence").accepts(1, 7)
    assert not builtin_constraint_type("non-response").accepts(2, 1)


def test_constraint_type_requires_an_atom():
    with pytest.raises(ValueError):
        ConstraintType()


def test_constraint_type_sum_atom():
    ctype = ConstraintType(total=parse_cardinality("2..3"))
    assert ctype.accepts(1, 1) and ctype.accepts(0, 3)
    assert not ctype.accepts(0, 1) and not ctype.accepts(2, 2)


def test_future_fixable():
    response = builtin_constraint_type("response")
    assert response.future_fixable(0, 0)  # a later target event repairs it
    unary_response = builtin_constraint_type("unary-response")
    assert unary_response.future_fixable(3, 0)
    assert not unary_response.future_fixable(3, 2)  # overshoot cannot be undone
    precedence = builtin_constraint_type("precedence")
    assert not precedence.future_fixable(0, 5)  # the past cannot change
    assert not builtin_constraint_type("non-response").future_fixable(0, 1)
    assert builtin_constraint_type("co-existence").future_fixable(0, 0)
    # Against the definition, some later after count is accepted: every count
    # from `after` to past every finite bound plus `before` is tried, beyond
    # which nothing changes.
    rng = random.Random(5)
    ctypes = list(TEMPLATES.values())
    while len(ctypes) < 300:
        atoms = [_random_card(rng) if rng.random() < 0.5 else None for _ in range(3)]
        if any(atoms):
            ctypes.append(ConstraintType(*atoms))
    for ctype in ctypes:
        for before in range(_BOUND):
            for after in range(_BOUND):
                defined = any(ctype.accepts(before, n) for n in range(after, _BOUND + before + 1))
                assert ctype.future_fixable(before, after) == defined, (ctype, before, after)


def test_all_templates_have_distinct_semantics():
    rendered = {name: TEMPLATES[name].render() for name in TEMPLATES}
    assert len(set(rendered.values())) == len(TEMPLATES)


@pytest.mark.parametrize(
    "ranges, message",
    [(((0, 1), (3, 1)), "empty range 3..1"), (((-1, 2),), "negative bound -1"),
     ((), "cardinality must be a non-empty set")],
)
def test_a_constructed_cardinality_claims_no_text_position(ranges, message):
    with pytest.raises(CardinalityError) as err:
        Cardinality(ranges)
    assert str(err.value) == message
    assert err.value.position is None
