from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from ocbcheck import (
    BcModel,
    ClassModel,
    EventLog,
    GenerationError,
    InjectionError,
    ObjectModel,
    OcbcModel,
    check_all,
    check_violations,
    evaluate_bc,
    generate_conforming,
    inject_violation,
    parse_cardinality,
    save_log,
    validate_model,
)
from ocbcheck import generator
from ocbcheck.violations import KINDS
from scenarios import (
    CARD_PAIRS,
    MULTI_RANGE_PAIRS,
    constraint,
    event,
    link,
    order_process_log,
    open_after_work_model,
    order_process_model,
    random_log,
    random_model,
    rel_type,
    throughput_model,
)


def test_generated_order_process_logs_conform_across_seeds():
    model = order_process_model()
    for seed in (0, 1, 7, 42):
        log = generate_conforming(model, events=30, seed=seed)
        assert len(log.events) >= 30
        report = check_all(model, log)
        assert report.conforms, (seed, report.violations[:4])


def test_generated_throughput_logs_conform():
    model = throughput_model()
    for seed in (0, 3):
        log = generate_conforming(model, events=50, seed=seed)
        assert check_all(model, log).conforms
        # one issue + one payment per ticket
        assert len(log.events) == 50


def test_generation_is_deterministic_per_seed():
    model = order_process_model()
    first = generate_conforming(model, events=25, seed=9)
    second = generate_conforming(model, events=25, seed=9)
    assert first == second
    other = generate_conforming(model, events=25, seed=10)
    assert first != other


# sha256 of save_log(generate_conforming(model, events, seed)).  Generated
# logs serve as fixtures, so a scheduler change must keep their bytes.
PINNED_LOG_SHA256 = {
    ("order_process", 1, 200): "78969f4d5e5274b4ab535bcc68a90c94c74a594e4b8e157377e0db1dbd815a9e",
    ("order_process", 1, 3000): "35c91e2081cf076857f6b4829e3a4af0a6f7c28fea6ba560503481d1862c0b30",
    ("order_process", 2, 200): "53d9087fc3066514e95a20394bce93a880687fe25fb98176a0a5f472034cd39f",
    ("order_process", 2, 3000): "52418dd358dda0078c168f52ff2265325eda3ecba6600a493398adaa6b006f54",
    ("order_process", 3, 200): "556ae4c69478e7ccfe8d32838fc8ad33983ddf5c8923f3a5b3a3293f4e736566",
    ("order_process", 3, 3000): "bbfe53c66ecfb07f7e422e58782e28252e3370216dd9f35a0a00b74aa542080a",
    ("throughput", 1, 200): "4aad29bf3cd111b0db093fcaba28c0b8a0069d5220b7216a77c7f561b3048d5b",
    ("throughput", 1, 3000): "2298c022b46e4529c65b7918b494eda5c5570443d991a4ebe012c333aad9b4c3",
    ("throughput", 2, 200): "6dedf8359558e43aca05e69d7d8b7516b06291f7db08cdffca74347cc57bbb01",
    ("throughput", 2, 3000): "33e7f3b792f381bd0be36d2c49dc974ace074e50ceb644c3c44118a4ce59b260",
    ("throughput", 3, 200): "2f2fe6345b2f21096bf36cadd93087ba6576664a3866dff1fff7fa2ea05e702c",
    ("throughput", 3, 3000): "d59c833c7db4fadbe4d507f1e9eda8ab7f8e93f3cd2baac5f3f4fe2310bde6bc",
}


def test_generated_log_bytes_are_pinned():
    models = {"order_process": order_process_model(), "throughput": throughput_model()}
    for (name, seed, events), digest in PINNED_LOG_SHA256.items():
        data = save_log(generate_conforming(models[name], events=events, seed=seed))
        assert hashlib.sha256(data).hexdigest() == digest, (name, seed, events)


# sha256 over inject_violation's results (log bytes and outcome, or the
# InjectionError text) for every kind on generated logs, the logs the
# command line injects into.
PINNED_INJECTION_SHA256 = "c889b2407548b35d577221febc173a0888e82dfe0c573392ed7a2086208d2be4"


def test_injected_log_bytes_are_pinned():
    digest = hashlib.sha256()
    for model in (order_process_model(), throughput_model()):
        for seed in (1, 2, 3):
            log = generate_conforming(model, events=60, seed=seed)
            for kind in KINDS:
                try:
                    mutated, outcome = inject_violation(model, log, kind, seed=seed)
                except InjectionError as exc:
                    digest.update(f"{exc}\n".encode())
                else:
                    digest.update(save_log(mutated) + f"{outcome}\n".encode())
    assert digest.hexdigest() == PINNED_INJECTION_SHA256


def test_zero_events_requested_gives_empty_conforming_log():
    model = order_process_model()
    log = generate_conforming(model, events=0, seed=1)
    assert len(log.events) == 0
    assert check_all(model, log).conforms


def test_unsatisfiable_link_is_rejected():
    model = order_process_model()
    links = tuple(
        l._replace(card_events_always=parse_cardinality("0,2"),
                   card_events_eventually=parse_cardinality("2"))
        if l.activity == "pick item"
        else l
        for l in model.links
    )
    broken = OcbcModel(model.bcm, model.clam, links, model.scope)
    assert validate_model(broken) == []
    with pytest.raises(GenerationError, match="passes through 1"):
        generate_conforming(broken, events=10, seed=0)


# The smallest seed of `random_model` (card pairs, seed, target events) at
# which each analysis rule rejects the model, with the generation seed
# equal to the model seed.
ANALYSIS_RULES = [
    (CARD_PAIRS, 1, 0, "class 'k0' has two activities that must coincide with creation"),
    (MULTI_RANGE_PAIRS, 0, 0, "link (a1, k0): cardinalities do not admit exactly one creating event"),
    (CARD_PAIRS, 2, 0, "constraint c1: forbidding constraint types are unsupported"),
    (CARD_PAIRS, 470, 0, "class 'k1' would need demand-driven creation on two relationships"),
    (CARD_PAIRS, 114, 0, "classes 'k0' and 'k0' both require creation events but must be created together"),
    (CARD_PAIRS, 107, 0, "class 'k1' needs a 'k0' partner at creation but 'k0' is created independently"),
    (CARD_PAIRS, 156, 0, "class 'k0' is co-created by 'k0' but has co-created dependents of its own"),
    (CARD_PAIRS, 5, 0, "link (a2, k2): object cardinality 1 does not admit 0 reference(s) on 'a2' events"),
    (CARD_PAIRS, 8, 0, "class 'k0': cyclic ordering between activities ['a1']"),
    (CARD_PAIRS, 0, 5, "class 'k1' is needed as an ambient partner but has obligations of its own"),
    (CARD_PAIRS, 21, 1, "ambient class 'k0' has a bounded cardinality on its side of r0"),
    (CARD_PAIRS, 7, 1, "model has no startable cluster to generate events from"),
]


@pytest.mark.parametrize("card_pairs, seed, events, message", ANALYSIS_RULES)
def test_each_analysis_rule_rejects_its_model(card_pairs, seed, events, message):
    model = random_model(random.Random(seed), card_pairs)
    with pytest.raises(GenerationError) as caught:
        generate_conforming(model, events=events, seed=seed)
    assert str(caught.value) == message


# The sweep over `random_model` seeds 0-2999 at 25 events, with the
# generation seed equal to the model seed: sha256 over save_log of every
# generated log that passes check_all, and the counts of generated and of
# failing logs.  A change that widens or narrows the generated family edits
# the counts on purpose; the digest holds as long as every model whose log
# conformed still generates the same bytes.
SWEEP_CONFORMING_SHA256 = "60aeeafebc2a96ad3690586aafcb29b26f92b6b48a49c314eaf3966224b4b675"
SWEEP_GENERATED, SWEEP_FAILING = 280, 67


def test_random_model_sweep_is_pinned():
    digest = hashlib.sha256()
    generated = failing = 0
    for seed in range(3000):
        model = random_model(random.Random(seed))
        try:
            log = generate_conforming(model, events=25, seed=seed)
        except GenerationError:
            continue
        generated += 1
        if check_all(model, log).conforms:
            digest.update(save_log(log))
        else:
            failing += 1
    assert digest.hexdigest() == SWEEP_CONFORMING_SHA256
    assert (generated, failing) == (SWEEP_GENERATED, SWEEP_FAILING)


def test_a_constraint_ordering_an_act_before_the_creating_event_is_a_cycle():
    """The creating event is an object's first obligation, so a constraint
    that needs another of its acts before it cannot be met."""
    model = open_after_work_model()
    assert validate_model(model) == []
    with pytest.raises(GenerationError) as caught:
        generate_conforming(model, events=4, seed=1)
    assert str(caught.value) == "class 'case': cyclic ordering between activities ['open', 'work']"


# Hand-made models for the creation rules no `random_model` seed reaches:
# (relationship type a -> b, links, target events, message).
CREATION_RULES = [
    # Each b needs two a's at creation, and each a needs its b then too.
    (rel_type("r", "a", "b", src="2", tar="1"), [link("make", "a", always="1")], 1,
     "class 'b' needs 2 'a' partners at creation; only one co-creating parent is supported"),
    # Each a eventually needs a b, which takes no a at all.
    (rel_type("r", "a", "b", src="0", tar="*", tar_ev="1..*"),
     [link("open", "a", always="1"), link("mk", "b", always="1")], 1,
     "class 'b': no admissible partner count at creation"),
    # Each b takes two a's at creation, and the one event makes one a.
    (rel_type("r", "a", "b", src="2", tar="*", tar_ev="1..*"),
     [link("open", "a", always="1"), link("mk", "b", always="1")], 1,
     "cannot create a 'b': needs 2 pending partner(s), only 1 are ready"),
]


@pytest.mark.parametrize("rt, links, events, message", CREATION_RULES)
def test_each_creation_rule_rejects_its_model(rt, links, events, message):
    model = OcbcModel(
        bcm=BcModel(activities=frozenset(l.activity for l in links), constraints=()),
        clam=ClassModel(classes=frozenset({"a", "b"}), rel_types=(rt,)),
        links=tuple(links),
        scope={},
    )
    assert validate_model(model) == []
    with pytest.raises(GenerationError) as caught:
        generate_conforming(model, events=events, seed=0)
    assert str(caught.value) == message


def _model(classes, rel_types, links, constraints=(), scope=None) -> OcbcModel:
    model = OcbcModel(
        bcm=BcModel(activities=frozenset(l.activity for l in links), constraints=constraints),
        clam=ClassModel(classes=frozenset(classes), rel_types=tuple(rel_types)),
        links=tuple(links),
        scope=scope or {},
    )
    assert validate_model(model) == []
    return model


def test_a_flush_waits_until_enough_demand_is_ready(monkeypatch):
    """Each b takes two a's at creation, so a flush with one ready a returns
    without an event, and the run goes on to a conforming log."""
    model = _model("ab", [rel_type("r", "a", "b", src="2", tar="*", tar_ev="1..*")],
                   [link("open", "a", always="1"), link("mk", "b", always="1")])
    flush = generator._Generator._flush
    waits = 0

    def counting(self, cls, drain):
        nonlocal waits
        before = len(self.events)
        flush(self, cls, drain)
        waits += len(self.events) == before

    monkeypatch.setattr(generator._Generator, "_flush", counting)
    for seed in range(5):
        log = generate_conforming(model, events=20, seed=seed)
        assert check_all(model, log).conforms, seed
    assert waits > 0


def test_a_drain_that_never_ends_stops_at_the_budget(monkeypatch):
    """An object whose obligations start over after each event never leaves
    `active`: the drain stops with an error once the log runs past its
    budget, 256 events beyond the target for a small target."""
    act = generator._Generator._act
    emitted = []

    def endless(self, live, delta=generator.EMPTY_DELTA):
        act(self, live, delta)
        live.next_act = live.emitted = 0
        emitted.append(len(self.events))
        return False

    monkeypatch.setattr(generator._Generator, "_act", endless)
    with pytest.raises(GenerationError, match="^generation budget exceeded while draining obligations$"):
        generate_conforming(order_process_model(), events=5, seed=0)
    assert emitted[-1] == 5 + 256 + 1


def test_an_ambient_pool_grows_past_its_first_objects():
    """A pool starts with two to four objects; an a that needs five b's at
    creation grows it to five, all in the initial model."""
    model = _model("ab", [rel_type("r", "a", "b", tar="5")], [link("open", "a", always="1")])
    log = generate_conforming(model, events=6, seed=0)
    assert sorted(log.init.class_of.values()) == ["b"] * 5
    assert check_all(model, log).conforms


def test_injection_into_an_empty_log_finds_nothing():
    empty = EventLog(init=ObjectModel({}, frozenset()), events=())
    for kind in KINDS:
        with pytest.raises(InjectionError, match=f"no verified mutation of kind {kind} "):
            inject_violation(order_process_model(), empty, kind)


def test_injection_of_an_unknown_kind_is_refused_by_name():
    """An unknown kind is the caller's error, named as the CLI names it, not
    an `InjectionError` that blames the model or log."""
    model = order_process_model()
    log = generate_conforming(model, events=20, seed=0)
    for kind in ("X", "ix", "VII "):
        with pytest.raises(ValueError) as caught:
            inject_violation(model, log, kind)
        assert str(caught.value) == (
            f"unknown problem type {kind!r} (choose from I, II, III, IV, V, VI, VII, VIII, IX)"
        )


def test_ix_injection_does_not_move_the_reference_event_across_itself(monkeypatch):
    """A same-activity constraint correlates each reference event with
    itself; the first target in id order is the reference, which is skipped,
    and the injection goes on to a verified one."""
    model = _model("a", [], [link("open", "a", always="1"), link("work", "a", eventually="2")],
                   [constraint("c", "co-existence", "work", "work")], {"c": "a"})
    log = generate_conforming(model, events=20, seed=0)
    assert check_all(model, log).conforms
    resolve = generator.resolve_targets
    skipped = 0

    def recording(model, log, cid, ref_id):
        nonlocal skipped
        targets = resolve(model, log, cid, ref_id)
        skipped += min(targets) == ref_id  # the move loop's first target
        return targets

    monkeypatch.setattr(generator, "resolve_targets", recording)
    mutated, outcome = inject_violation(model, log, "IX", seed=0)
    assert skipped > 0
    assert any(outcome.matches(v) for v in check_violations(model, mutated, kinds=("IX",)))


def test_generation_error_stable_across_hash_randomization(tmp_path):
    # Both links are outside the generated family; the error must name the
    # same one whatever order the class set iterates in.
    entry = {"card_act_always": "0,2", "card_act_eventually": "2"}
    doc = {
        "activities": ["x", "y"],
        "classes": ["a", "b"],
        "aoc": [{"activity": "x", "class": "a", **entry}, {"activity": "y", "class": "b", **entry}],
    }
    path = tmp_path / "two-defects.ocbc.json"
    path.write_text(json.dumps(doc))
    outputs = set()
    for hash_seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-m", "ocbcheck.cli", "generate", str(path), "--events", "5"],
            env=env,
            capture_output=True,
        )
        assert result.returncode == 2, result.stderr.decode(errors="replace")
        outputs.add(result.stderr)
    assert outputs == {
        b"error: link (x, a): reaching eventual count 2 passes through 1, "
        b"which the always-cardinality 0,2 forbids\n"
    }


def test_generated_case_traces_satisfy_the_constraints_per_object():
    # Each ticket's own two-event trace satisfies the plain trace semantics.
    model = throughput_model()
    log = generate_conforming(model, events=40, seed=5)
    by_ticket: dict[str, list[tuple[str, str]]] = {}
    for e in log.events:
        for obj in e.objects:
            by_ticket.setdefault(obj, []).append((e.id, e.activity))
    for trace in by_ticket.values():
        assert all(v.satisfied for v in evaluate_bc(model.bcm, trace))


@pytest.mark.parametrize("kind", KINDS)
def test_injection_produces_the_requested_kind(kind):
    model = order_process_model()
    log = order_process_log()
    mutated, outcome = inject_violation(model, log, kind, seed=4)
    assert outcome.kind == kind
    found = check_violations(model, mutated, kinds=(kind,))
    assert any(outcome.matches(v) for v in found), outcome
    assert not check_all(model, mutated).conforms


@pytest.mark.parametrize("kind", KINDS)
def test_injection_on_generated_log(kind):
    model = order_process_model()
    log = generate_conforming(model, events=24, seed=2)
    mutated, outcome = inject_violation(model, log, kind, seed=11)
    found = check_violations(model, mutated, kinds=(kind,))
    assert any(outcome.matches(v) for v in found)


def test_demand_on_two_relationships_is_rejected():
    from ocbcheck import BcModel, ClassModel, OcbcModel
    from scenarios import link, rel_type

    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"make", "pack"}), constraints=()),
        clam=ClassModel(
            classes=frozenset({"item", "box"}),
            rel_types=(
                rel_type("in", "item", "box", src="1..*", tar="0..1", tar_ev="1"),
                rel_type("on", "item", "box", tar="0..1", tar_ev="1"),
            ),
        ),
        links=(link("make", "item", always="1", objects="1"),
               link("pack", "box", always="1", objects="1")),
        scope={},
    )
    assert validate_model(model) == []
    with pytest.raises(GenerationError, match="demand-driven creation"):
        generate_conforming(model, events=10, seed=0)


def test_a_class_without_creating_activity_enters_with_its_first_obligation():
    """No ticket activity must coincide with creation, so each ticket enters
    the log in the delta of its first obligation event."""
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"pay", "close"}), constraints=()),
        clam=ClassModel(classes=frozenset({"ticket"}), rel_types=()),
        links=(link("pay", "ticket", always="*", eventually="2..*", objects="1"),
               link("close", "ticket", always="0..1", eventually="1", objects="1")),
        scope={},
    )
    for seed in (1, 2):
        log = generate_conforming(model, events=30, seed=seed)
        assert check_all(model, log).conforms, seed
        assert not log.init.class_of
        entered = [(log.events[i], introduced) for i, introduced in log.introductions()]
        assert len(entered) > 3
        for entering, introduced in entered:
            (ticket, _), = introduced
            assert entering.objects == {ticket} and entering.activity in ("pay", "close")


def test_eventual_demand_of_two_is_absorbed_by_two_creations():
    """Each order eventually needs two deliveries, and a delivery takes an
    order at creation, so each order's demand is absorbed one delivery at a
    time."""
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"create", "ship"}), constraints=()),
        clam=ClassModel(
            classes=frozenset({"order", "delivery"}),
            rel_types=(rel_type("r", "order", "delivery", src="1..*", tar_ev="2..*"),),
        ),
        links=(link("create", "order", always="1", objects="1"),
               link("ship", "delivery", always="1", objects="1")),
        scope={},
    )
    for seed in (1, 2):
        log = generate_conforming(model, events=40, seed=seed)
        assert check_all(model, log).conforms, seed
        shipped_at: dict[str, set[int]] = {}
        for i, e in enumerate(log.events):
            for _, order, _ in e.delta.new_relations:
                shipped_at.setdefault(order, set()).add(i)
        orders = log.final_snapshot().objects_of_class("order")
        assert orders and all(len(shipped_at[o]) >= 2 for o in orders)


def test_injection_skips_a_mutation_that_no_longer_replays():
    """Dropping e1's relation leaves e2 removing an absent one, so the only
    type II candidate does not replay: the injection fails with
    `InjectionError`, not the log's `LogError`."""
    model = OcbcModel(
        bcm=BcModel(activities=frozenset({"a"}), constraints=()),
        clam=ClassModel(classes=frozenset({"k"}), rel_types=(rel_type("r", "k", "k"),)),
        links=(link("a", "k"),),
        scope={},
    )
    init = ObjectModel(class_of={"x": "k", "y": "k"}, relations=frozenset())
    log = EventLog(
        init=init,
        events=(
            event("e1", 1, "a", {"x"}, new_relations=[("r", "x", "y")]),
            event("e2", 2, "a", {"x"}, removed_relations=[("r", "x", "y")]),
        ),
    )
    with pytest.raises(InjectionError):
        inject_violation(model, log, "II")


def test_injection_reports_unachievable_kind():
    model = throughput_model()
    log = generate_conforming(model, events=4, seed=0)
    # No relationships exist, so no mutation can break snapshot validity.
    with pytest.raises(InjectionError):
        inject_violation(model, log, "I", seed=0)


def test_vi_injection_folds_no_snapshot_when_every_class_is_linked(monkeypatch):
    """Both ticket activities are linked to the only class, so no event can
    take a type VI mutation, and none pays for a fold from event 0."""
    model = throughput_model()
    log = generate_conforming(model, events=200, seed=0)
    calls = []
    snapshot_after = EventLog.snapshot_after
    monkeypatch.setattr(EventLog, "snapshot_after", lambda self, eid: calls.append(eid) or snapshot_after(self, eid))
    with pytest.raises(InjectionError):
        inject_violation(model, log, "VI")
    assert calls == []


def test_injection_is_deterministic():
    model = order_process_model()
    log = order_process_log()
    a = inject_violation(model, log, "IX", seed=3)
    b = inject_violation(model, log, "IX", seed=3)
    assert a == b


def test_injection_survives_a_relation_the_host_removes_and_the_deleted_event_readds():
    # Seed 6: deleting e5 moves its re-add of ('r0', 'o1', 'o1') into e4,
    # which removes that relation; e8 removes it again later.
    rng = random.Random(6)
    model = random_model(rng)
    log = random_log(rng, model)
    mutated, outcome = inject_violation(model, log, "VII")
    assert outcome.description == "deleted event e5"
    assert any(outcome.matches(v) for v in check_all(model, mutated).violations)


def test_deleting_an_event_keeps_the_state_after_it():
    """Wherever `_delete_event` deletes an event, the state after the event
    that took over its delta (or the initial model) is the state after the
    deleted event, and the final state is unchanged."""
    merged = 0
    for seed in range(400):
        rng = random.Random(seed)
        model = random_model(rng)
        log = random_log(rng, model)
        for index, victim in enumerate(log.events):
            deleted = generator._delete_event(log, index)
            if deleted is None:
                continue
            mutated = generator._rebuild(*deleted)
            host = mutated.init if index == 0 else mutated.snapshot_after(mutated.events[index - 1].id)
            assert host == log.snapshot_after(victim.id), (seed, index)
            assert mutated.final_snapshot() == log.final_snapshot(), (seed, index)
            merged += 1
    assert merged > 2500
