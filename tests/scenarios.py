"""Shared fixtures: hand-encoded models and logs for the worked scenarios,
plus seeded random scenario builders for the oracle and mimicking suites."""

from __future__ import annotations

import random
from itertools import chain

from ocbcheck import (
    ActivityClassLink,
    BcModel,
    BehavioralConstraint,
    ClassModel,
    Event,
    EventLog,
    ObjectDelta,
    ObjectModel,
    OcbcModel,
    RelationshipType,
    parse_cardinality,
)
from ocbcheck.cardinality import ConstraintType, builtin_constraint_type


def card(text: str):
    return parse_cardinality(text)


def rel_type(rid, source, target, src="*", tar="*", src_ev=None, tar_ev=None):
    return RelationshipType(
        id=rid,
        source=source,
        target=target,
        card_src_always=card(src),
        card_src_eventually=card(src_ev if src_ev is not None else src),
        card_tar_always=card(tar),
        card_tar_eventually=card(tar_ev if tar_ev is not None else tar),
    )


def link(activity, cls, always="*", eventually=None, objects="*"):
    return ActivityClassLink(
        activity=activity,
        cls=cls,
        card_events_always=card(always),
        card_events_eventually=card(eventually if eventually is not None else always),
        card_objects=card(objects),
    )


def constraint(cid, template, ref, target):
    ctype = template if isinstance(template, ConstraintType) else builtin_constraint_type(template)
    return BehavioralConstraint(id=cid, ref_activity=ref, target_activity=target, ctype=ctype)


def event(eid, seq, activity, objects=(), new_objects=(), new_relations=(),
          removed_relations=(), assert_snapshot=None, attrs=None):
    return Event(
        id=eid,
        seq=seq,
        activity=activity,
        objects=frozenset(objects),
        attrs=attrs or {},
        delta=ObjectDelta(
            new_objects=tuple(new_objects),
            new_relations=tuple(new_relations),
            removed_relations=tuple(removed_relations),
            assert_snapshot=assert_snapshot,
        ),
    )


# -- order process (intro scenario): 4 activities, 5 classes, 5 relationships,
# -- 9 constraints; deliveries group order lines across orders ----------------


def order_process_model() -> OcbcModel:
    activities = frozenset({"create order", "pick item", "wrap item", "deliver items"})
    constraints = (
        constraint("c1", "response", "create order", "pick item"),
        constraint("c2", "unary-precedence", "pick item", "create order"),
        constraint("c3#1", "unary-response", "pick item", "wrap item"),
        constraint("c3#2", "unary-precedence", "wrap item", "pick item"),
        constraint("c4", "unary-response", "wrap item", "deliver items"),
        constraint("c5", "precedence", "deliver items", "wrap item"),
        constraint("c6", "precedence", "deliver items", "pick item"),
        constraint("c7", "response", "create order", "wrap item"),
        constraint("c8", "response", "pick item", "deliver items"),
    )
    clam = ClassModel(
        classes=frozenset({"order", "order line", "delivery", "customer", "product"}),
        rel_types=(
            rel_type("r1", "order", "order line", src="1", tar="1..*"),
            rel_type("r2", "order line", "delivery", src="1..*", tar="0..1", tar_ev="1"),
            rel_type("r3", "order line", "product", tar="1"),
            rel_type("r4", "order", "customer", tar="1"),
            rel_type("r5", "delivery", "customer", tar="1"),
        ),
    )
    links = (
        link("create order", "order", always="1", objects="1"),
        link("pick item", "order line", always="0..1", eventually="1", objects="1"),
        link("wrap item", "order line", always="0..1", eventually="1", objects="1"),
        link("deliver items", "delivery", always="1", objects="1"),
    )
    scope = {
        "c1": "r1", "c2": "r1", "c3#1": "order line", "c3#2": "order line",
        "c4": "r2", "c5": "r2", "c6": "r2", "c7": "r1", "c8": "r2",
    }
    return OcbcModel(
        bcm=BcModel(activities=activities, constraints=constraints),
        clam=clam,
        links=links,
        scope=scope,
    )


def order_process_log() -> EventLog:
    """A 20-event conforming run: three orders, seven order lines, three
    deliveries; delivery d1 groups lines of two different orders."""
    init = ObjectModel(
        class_of={
            "cu1": "customer", "cu2": "customer",
            "pr1": "product", "pr2": "product", "pr3": "product",
        },
        relations=frozenset(),
    )

    def create(eid, seq, order, customer, lines):
        new_objects = [(order, "order")] + [(ol, "order line") for ol, _pr in lines]
        new_relations = [("r4", order, customer)]
        for ol, product in lines:
            new_relations += [("r1", order, ol), ("r3", ol, product)]
        return event(eid, seq, "create order", {order}, new_objects, new_relations)

    def deliver(eid, seq, delivery, customer, lines):
        new_relations = [("r2", ol, delivery) for ol in lines] + [("r5", delivery, customer)]
        return event(eid, seq, "deliver items", {delivery}, [(delivery, "delivery")], new_relations)

    events = (
        create("e1", 1, "o1", "cu1", [("ol1", "pr1"), ("ol2", "pr2")]),
        event("e2", 2, "pick item", {"ol1"}),
        create("e3", 3, "o2", "cu2", [("ol3", "pr3"), ("ol4", "pr1"), ("ol5", "pr2")]),
        event("e4", 4, "wrap item", {"ol1"}),
        event("e5", 5, "pick item", {"ol3"}),
        event("e6", 6, "pick item", {"ol2"}),
        event("e7", 7, "wrap item", {"ol3"}),
        deliver("e8", 8, "d1", "cu1", ["ol1", "ol3"]),
        event("e9", 9, "wrap item", {"ol2"}),
        event("e10", 10, "pick item", {"ol4"}),
        create("e11", 11, "o3", "cu1", [("ol6", "pr1"), ("ol7", "pr2")]),
        event("e12", 12, "pick item", {"ol5"}),
        event("e13", 13, "wrap item", {"ol5"}),
        event("e14", 14, "pick item", {"ol6"}),
        event("e15", 15, "wrap item", {"ol4"}),
        event("e16", 16, "pick item", {"ol7"}),
        event("e17", 17, "wrap item", {"ol6"}),
        event("e18", 18, "wrap item", {"ol7"}),
        deliver("e19", 19, "d2", "cu2", ["ol5", "ol6", "ol7"]),
        deliver("e20", 20, "d3", "cu1", ["ol2", "ol4"]),
    )
    return EventLog(init=init, events=events)


# -- order/delivery object model (class-model validity and fulfilment) --------


def order_class_snapshot_model() -> OcbcModel:
    """The order-process class model with a single bookkeeping activity that
    carries object-model snapshots and no constraints."""
    base = order_process_model()
    return OcbcModel(
        bcm=BcModel(activities=frozenset({"record"}), constraints=()),
        clam=base.clam,
        links=(),
        scope={},
    )


def order_object_model(
    drop_relation=None, add_relation=None
) -> tuple[ObjectModel, EventLog]:
    """The 21-object instance population: 3 orders over 7 order lines, 2
    deliveries leaving ol2 and ol4 undelivered, 4 customers, 5 products."""
    class_of = {}
    class_of.update({o: "order" for o in ("o1", "o2", "o3")})
    class_of.update({ol: "order line" for ol in ("ol1", "ol2", "ol3", "ol4", "ol5", "ol6", "ol7")})
    class_of.update({d: "delivery" for d in ("d1", "d2")})
    class_of.update({c: "customer" for c in ("c1", "c2", "c3", "c4")})
    class_of.update({p: "product" for p in ("p1", "p2", "p3", "p4", "p5")})
    relations = {
        ("r1", "o1", "ol1"), ("r1", "o1", "ol2"),
        ("r1", "o2", "ol3"), ("r1", "o2", "ol4"), ("r1", "o2", "ol5"),
        ("r1", "o3", "ol6"), ("r1", "o3", "ol7"),
        ("r2", "ol1", "d1"), ("r2", "ol3", "d1"),
        ("r2", "ol5", "d2"), ("r2", "ol6", "d2"), ("r2", "ol7", "d2"),
        ("r3", "ol1", "p1"), ("r3", "ol2", "p2"), ("r3", "ol3", "p3"),
        ("r3", "ol4", "p4"), ("r3", "ol5", "p5"), ("r3", "ol6", "p1"),
        ("r3", "ol7", "p2"),
        ("r4", "o1", "c1"), ("r4", "o2", "c2"), ("r4", "o3", "c3"),
        ("r5", "d1", "c1"), ("r5", "d2", "c3"),
    }
    if drop_relation:
        relations.discard(drop_relation)
    if add_relation:
        relations.add(add_relation)
    om = ObjectModel(class_of=class_of, relations=frozenset(relations))
    log = EventLog(
        events=(
            event(
                "e1", 1, "record",
                new_objects=sorted(class_of.items()),
                new_relations=sorted(relations),
            ),
        )
    )
    return om, log


# -- hiring process: 8 activities, 4 classes, 4 relationships, 11 constraints --


def hiring_model() -> OcbcModel:
    activities = frozenset(
        {"register", "apply", "reference", "interview", "open pos.", "close pos.", "select", "hire"}
    )
    constraints = (
        constraint("c1", "unary-precedence", "reference", "apply"),
        constraint("c2", "unary-precedence", "interview", "apply"),
        constraint("c3#1", "unary-response", "open pos.", "close pos."),
        constraint("c3#2", "unary-precedence", "close pos.", "open pos."),
        constraint("c4#1", "unary-response", "close pos.", "select"),
        constraint("c4#2", "unary-precedence", "select", "close pos."),
        constraint("c5", "precedence", "apply", "open pos."),
        constraint("c6", "non-response", "close pos.", "apply"),
        constraint("c7", "precedence", "hire", "interview"),
        constraint("c8#1", "unary-response", "select", "hire"),
        constraint("c8#2", "unary-precedence", "hire", "select"),
    )
    clam = ClassModel(
        classes=frozenset({"person", "application", "position", "employee"}),
        rel_types=(
            rel_type("ra", "person", "application", src="1", tar="*", tar_ev="1..*"),
            rel_type("rb", "position", "application", src="1", tar="*", tar_ev="1..*"),
            rel_type("rc", "application", "employee", src="1", tar="0..1"),
            rel_type("rd", "position", "employee", src="1", tar="0..1", tar_ev="1"),
        ),
    )
    links = (
        link("register", "person", always="1", objects="1"),
        link("apply", "application", always="1", objects="1"),
        link("reference", "application", always="0..5", objects="1"),
        link("interview", "application", always="0..2", objects="1"),
        link("open pos.", "position", always="1", objects="1"),
        link("close pos.", "position", always="0..1", eventually="1", objects="1"),
        link("select", "position", always="0..1", eventually="1", objects="1"),
        link("hire", "employee", always="1", objects="1"),
    )
    scope = {
        "c1": "application", "c2": "application",
        "c3#1": "position", "c3#2": "position",
        "c4#1": "position", "c4#2": "position",
        "c5": "rb", "c6": "rb", "c7": "rc",
        "c8#1": "rd", "c8#2": "rd",
    }
    return OcbcModel(
        bcm=BcModel(activities=activities, constraints=constraints),
        clam=clam,
        links=links,
        scope=scope,
    )


def _hiring_events(order: str) -> tuple[Event, ...]:
    register = ("e1", "register", {"pe1"}, [("pe1", "person")], [])
    open_pos = ("e2", "open pos.", {"po1"}, [("po1", "position")], [])
    apply_ = (
        "e3", "apply", {"ap1"}, [("ap1", "application")],
        [("ra", "pe1", "ap1"), ("rb", "po1", "ap1")],
    )
    reference = ("e4", "reference", {"ap1"}, [], [])
    interview = ("e5", "interview", {"ap1"}, [], [])
    close = ("e6", "close pos.", {"po1"}, [], [])
    select = ("e7", "select", {"po1"}, [], [])
    hire = (
        "e8", "hire", {"em1"}, [("em1", "employee")],
        [("rc", "ap1", "em1"), ("rd", "po1", "em1")],
    )
    second_apply = (
        "e9", "apply", {"ap2"}, [("ap2", "application")],
        [("ra", "pe1", "ap2"), ("rb", "po1", "ap2")],
    )
    if order == "conforming":
        rows = [register, open_pos, apply_, reference, interview, close, select, hire]
    elif order == "apply-before-open":
        # The application's position relation has to wait for the position.
        apply_first = ("e2x", "apply", {"ap1"}, [("ap1", "application")], [("ra", "pe1", "ap1")])
        open_after = ("e3x", "open pos.", {"po1"}, [("po1", "position")], [("rb", "po1", "ap1")])
        rows = [register, apply_first, open_after, reference, interview, close, select, hire]
    elif order == "apply-after-close":
        rows = [register, open_pos, apply_, reference, interview, close, select, hire, second_apply]
    else:
        raise ValueError(order)
    return tuple(
        event(eid, seq, activity, refs, new_objects, new_relations)
        for seq, (eid, activity, refs, new_objects, new_relations) in enumerate(rows, start=1)
    )


def hiring_log(order: str = "conforming") -> EventLog:
    return EventLog(events=_hiring_events(order))


# -- payments and tickets (events-per-object / objects-per-event scenario) ----


def ticket_model() -> OcbcModel:
    return OcbcModel(
        bcm=BcModel(activities=frozenset({"pay"}), constraints=()),
        clam=ClassModel(classes=frozenset({"ticket"}), rel_types=()),
        links=(link("pay", "ticket", always="0..1", eventually="1", objects="1..*"),),
        scope={},
    )


def ticket_log() -> EventLog:
    init = ObjectModel(
        class_of={t: "ticket" for t in ("t1", "t2", "t3", "t4", "t5")}, relations=frozenset()
    )
    return EventLog(
        init=init,
        events=(
            event("p1", 1, "pay", {"t1", "t3"}),
            event("p2", 2, "pay", {"t2", "t3"}),
            event("p3", 3, "pay", set()),
            event("p4", 4, "pay", {"t4"}),
        ),
    )


# -- two activities correlated through one relationship (behavioral scenario) --


def precedence_model() -> OcbcModel:
    return OcbcModel(
        bcm=BcModel(
            activities=frozenset({"a1", "a2"}),
            constraints=(constraint("c", "unary-precedence", "a2", "a1"),),
        ),
        clam=ClassModel(
            classes=frozenset({"oca", "ocb"}),
            rel_types=(rel_type("r", "oca", "ocb"),),
        ),
        links=(link("a1", "oca"), link("a2", "ocb")),
        scope={"c": "r"},
    )


def precedence_log() -> EventLog:
    init = ObjectModel(
        class_of={
            "x1": "oca", "x2": "oca",
            "y1": "ocb", "y2": "ocb", "y3": "ocb", "y4": "ocb", "y5": "ocb",
        },
        relations=frozenset(
            {("r", "x1", "y1"), ("r", "x2", "y2"), ("r", "x1", "y3"), ("r", "x2", "y5")}
        ),
    )
    return EventLog(
        init=init,
        events=(
            event("e1", 1, "a1", {"x1"}),
            event("e2", 2, "a2", {"y1"}),
            event("e3", 3, "a2", {"y2"}),
            event("e4", 4, "a1", {"x2"}),
            event("e5", 5, "a2", {"y3"}),
            event("e6", 6, "a2", {"y4"}),
            event("e7", 7, "a2", {"y5"}),
        ),
    )


def open_after_work_model() -> OcbcModel:
    """Each case is created by its one `open` event, yet every `open` needs a
    `work` of its case before it: no log with a case conforms."""
    return OcbcModel(
        bcm=BcModel(
            activities=frozenset({"open", "work"}),
            constraints=(constraint("c", "precedence", "open", "work"),),
        ),
        clam=ClassModel(classes=frozenset({"case"}), rel_types=()),
        links=(link("open", "case", always="1"), link("work", "case", always="0..1", eventually="1")),
        scope={"c": "case"},
    )


# -- ticket issue/pay model sized for throughput runs -------------------------


def throughput_model() -> OcbcModel:
    return OcbcModel(
        bcm=BcModel(
            activities=frozenset({"issue", "pay"}),
            constraints=(
                constraint("c1", "unary-precedence", "pay", "issue"),
                constraint("c2", "response", "issue", "pay"),
            ),
        ),
        clam=ClassModel(classes=frozenset({"ticket"}), rel_types=()),
        links=(
            link("issue", "ticket", always="1", objects="1"),
            link("pay", "ticket", always="0..1", eventually="1", objects="1"),
        ),
        scope={"c1": "ticket", "c2": "ticket"},
    )


# -- tickets at desks: a persistent type I breach ------------------------------


def desk_model() -> OcbcModel:
    """Each ticket sits at exactly one desk; "note" may reference tickets only."""
    return OcbcModel(
        bcm=BcModel(activities=frozenset({"open", "note"}), constraints=()),
        clam=ClassModel(
            classes=frozenset({"ticket", "desk"}),
            rel_types=(rel_type("at", "ticket", "desk", tar="1"),),
        ),
        links=(link("open", "ticket"), link("open", "desk"), link("note", "ticket")),
        scope={},
    )


def persistent_breach_log(events: int) -> EventLog:
    """Three tickets that never get a desk breach type I at every event.
    Each "open" adds a ticket and seats it in the same delta, and every
    tenth event is an undeclared "audit" of an open ticket (types IV, VI)."""
    init = ObjectModel(
        class_of={"d1": "desk", "lost1": "ticket", "lost2": "ticket", "lost3": "ticket"},
        relations=frozenset(),
    )
    log = []
    for seq in range(1, events + 1):
        if seq % 10:
            ticket = f"t{seq}"
            log.append(event(f"e{seq}", seq, "open", {ticket, "d1"}, new_objects=[(ticket, "ticket")],
                             new_relations=[("at", ticket, "d1")]))
        else:
            log.append(event(f"e{seq}", seq, "audit", {f"t{seq - 1}"}))
    return EventLog(init=init, events=tuple(log))


# -- fan-in: many reference events correlate with one busy object set ---------


def fan_in_model(via: str) -> OcbcModel:
    """Every `visit` needs a later `ship` (response), correlated via `via`:
    the relationship `r` from a customer to its orders, or the class `desk`."""
    return OcbcModel(
        bcm=BcModel(
            activities=frozenset({"visit", "ship"}),
            constraints=(constraint("c", "response", "visit", "ship"),),
        ),
        clam=ClassModel(
            classes=frozenset({"customer", "order", "desk"}),
            rel_types=(rel_type("r", "customer", "order"),),
        ),
        links=(link("visit", "customer"), link("ship", "order"), link("visit", "desk"), link("ship", "desk")),
        scope={"c": via},
    )


def relationship_hub_log(n: int) -> EventLog:
    """A customer with `n` orders over `r`: each order has one `ship` event,
    and `n` `visit` events reference the customer, so every visit correlates
    with all `n` ships."""
    orders = [f"o{i}" for i in range(1, n + 1)]
    init = ObjectModel(
        class_of={"c": "customer", **dict.fromkeys(orders, "order")},
        relations=frozenset(("r", "c", o) for o in orders),
    )
    events = []
    for i, order in enumerate(orders):
        events.append(event(f"v{i}", 2 * i + 1, "visit", {"c"}))
        events.append(event(f"s{i}", 2 * i + 2, "ship", {order}))
    return EventLog(init=init, events=tuple(events))


def desk_hubs_log(n: int) -> EventLog:
    """Two desks: `n` `visit` events reference both, and each of `n` `ship`
    events one of them, so every visit correlates with two long lists."""
    init = ObjectModel(class_of={"d1": "desk", "d2": "desk"}, relations=frozenset())
    events = []
    for i in range(n):
        events.append(event(f"v{i}", 2 * i + 1, "visit", {"d1", "d2"}))
        events.append(event(f"s{i}", 2 * i + 2, "ship", {f"d{i % 2 + 1}"}))
    return EventLog(init=init, events=tuple(events))


def desk_pairs_log(n: int) -> EventLog:
    """`n` distinct reference sets that share one busy desk (class scope
    `desk`): visit `i` and ship `i` each reference `{d1, x_i}`, so every
    visit correlates with all `n` ships on `d1`, its own among them."""
    desks = [f"x{i}" for i in range(n)]
    init = ObjectModel(class_of=dict.fromkeys(["d1", *desks], "desk"), relations=frozenset())
    events = []
    for i, desk in enumerate(desks):
        events.append(event(f"v{i}", 2 * i + 1, "visit", {"d1", desk}))
        events.append(event(f"s{i}", 2 * i + 2, "ship", {"d1", desk}))
    return EventLog(init=init, events=tuple(events))


def customer_pairs_log(n: int) -> EventLog:
    """`n` distinct reference sets that share one busy customer
    (relationship scope `r`): customer `c` owns orders `o_i` and customer
    `k_i` owns order `q_i`, each order has one ship, and visit `i`
    references `{c, k_i}`, so it correlates with all `n` ships of `c`'s
    orders and the one of `q_i`."""
    init = ObjectModel(
        class_of={
            "c": "customer", **{f"k{i}": "customer" for i in range(n)},
            **{f"{o}{i}": "order" for i in range(n) for o in "oq"},
        },
        relations=frozenset(chain.from_iterable((("r", "c", f"o{i}"), ("r", f"k{i}", f"q{i}")) for i in range(n))),
    )
    events = []
    for i in range(n):
        events.append(event(f"v{i}", 3 * i + 1, "visit", {"c", f"k{i}"}))
        events.append(event(f"s{i}", 3 * i + 2, "ship", {f"o{i}"}))
        events.append(event(f"t{i}", 3 * i + 3, "ship", {f"q{i}"}))
    return EventLog(init=init, events=tuple(events))


def desk_trios_log(n: int) -> EventLog:
    """`n` distinct reference sets that each hold two busy desks (class
    scope `desk`): visit `i` references `{d1, d2, x_i}` and ship `i`
    `{d1 or d2 alternately, x_i}`, so every visit correlates with two long
    lists and one short one, over an object set of its own."""
    desks = [f"x{i}" for i in range(n)]
    init = ObjectModel(class_of=dict.fromkeys(["d1", "d2", *desks], "desk"), relations=frozenset())
    events = []
    for i, desk in enumerate(desks):
        events.append(event(f"v{i}", 2 * i + 1, "visit", {"d1", "d2", desk}))
        events.append(event(f"s{i}", 2 * i + 2, "ship", {f"d{i % 2 + 1}", desk}))
    return EventLog(init=init, events=tuple(events))


def hub_order_log(n: int) -> EventLog:
    """`n` customers that share one busy order (relationship scope `r`):
    customer `k_i` owns the hub order `h` and its own order `q_i`; per `i`
    one ship references `h`, one `q_i`, and visit `i` references `k_i`, so
    it correlates with all `n` ships of `h` and the one of `q_i`."""
    customers = [f"k{i}" for i in range(n)]
    init = ObjectModel(
        class_of={"h": "order", **dict.fromkeys(customers, "customer"), **{f"q{i}": "order" for i in range(n)}},
        relations=frozenset(chain.from_iterable((("r", k, "h"), ("r", k, f"q{i}")) for i, k in enumerate(customers))),
    )
    events = []
    for i, customer in enumerate(customers):
        events.append(event(f"v{i}", 3 * i + 1, "visit", {customer}))
        events.append(event(f"s{i}", 3 * i + 2, "ship", {"h"}))
        events.append(event(f"t{i}", 3 * i + 3, "ship", {f"q{i}"}))
    return EventLog(init=init, events=tuple(events))


FAN_IN_TEMPLATES = ("response", "precedence", "co-existence")


def fan_in_family(seed: int, via: str, events: int = 40) -> tuple[OcbcModel, EventLog]:
    """A seeded pair of `fan_in_model(via)`'s shape whose reference events
    correlate with several long target lists at once, with one constraint
    per template of `FAN_IN_TEMPLATES` and its activities drawn.

    Class scope `desk`: each event references 1–5 of six desks, and most
    also reference a desk of their own that their delta creates; a few
    reference the desk that the next event creates.  Relationship scope
    `r`: four customers own two to four orders each, visits reference
    1–4 customers and ships 1–2 orders; some ships create an order that
    a customer owns from then on, or that no customer owns."""
    rng = random.Random(f"fan-in:{seed}:{via}:{events}")
    pairs = [("visit", "ship"), ("ship", "visit")]
    if via == "desk":  # class scope: any two activities, equal ones too
        pairs += [("visit", "visit"), ("ship", "ship")]
    base = fan_in_model(via)
    constraints = [constraint(f"c{i}", template, *rng.choice(pairs)) for i, template in enumerate(FAN_IN_TEMPLATES)]
    model = OcbcModel(
        bcm=BcModel(activities=base.bcm.activities, constraints=tuple(constraints)),
        clam=base.clam,
        links=base.links,
        scope={c.id: via for c in constraints},
    )
    log = []
    if via == "desk":
        desks = [f"d{i}" for i in range(6)]
        init = ObjectModel(class_of=dict.fromkeys(desks, "desk"), relations=frozenset())
        for seq in range(1, events + 1):
            objects, new_objects = set(rng.sample(desks, rng.randint(1, 5))), []
            if rng.random() < 0.8:
                objects.add(f"x{seq}")
                new_objects = [(f"x{seq}", "desk")]
            elif rng.random() < 0.5:
                objects.add(f"x{seq + 1}")
            log.append(event(f"e{seq}", seq, rng.choice(("visit", "ship")), objects, new_objects=new_objects))
        return model, EventLog(init=init, events=tuple(log))
    customers = [f"c{i}" for i in range(4)]
    owned = [(c, f"o{c}-{j}") for c in customers for j in range(rng.randint(2, 4))]
    orders = [o for _, o in owned]
    init = ObjectModel(
        class_of={**dict.fromkeys(customers, "customer"), **dict.fromkeys(orders, "order")},
        relations=frozenset(("r", c, o) for c, o in owned),
    )
    for seq in range(1, events + 1):
        new_objects, new_relations = [], []
        if rng.random() < 0.5:
            objects = set(rng.sample(customers, rng.randint(1, 4)))
            activity = "visit"
        else:
            objects = set(rng.sample(orders, rng.randint(1, 2)))
            activity = "ship"
            if rng.random() < 0.2:
                order = f"n{seq}"
                objects.add(order)
                new_objects = [(order, "order")]
                if rng.random() < 0.8:
                    new_relations = [("r", rng.choice(customers), order)]
                    orders.append(order)
        log.append(event(f"e{seq}", seq, activity, objects, new_objects=new_objects, new_relations=new_relations))
    return model, EventLog(init=init, events=tuple(log))


def crowd_model(rel_types: int) -> OcbcModel:
    """A "note" references one to ten tickets, and each of `rel_types`
    relationship types seats a ticket at exactly one desk, eventually."""
    return OcbcModel(
        bcm=BcModel(activities=frozenset({"open", "note"}), constraints=()),
        clam=ClassModel(
            classes=frozenset({"ticket", "desk"}),
            rel_types=tuple(rel_type(f"r{i}", "ticket", "desk", tar_ev="1") for i in range(rel_types)),
        ),
        links=(link("open", "ticket"), link("open", "desk"), link("note", "ticket", objects="1..10")),
        scope={},
    )


def crowd_log(events: int, rel_types: int, per_note: int) -> EventLog:
    """Every other event opens a ticket and seats it at a desk over every
    other relationship type; each "note" references the last `per_note`
    tickets and desk d0 (types II and VIII)."""
    init = ObjectModel(class_of={f"d{i}": "desk" for i in range(10)}, relations=frozenset())
    log = []
    for seq in range(1, events + 1):
        t = (seq + 1) // 2
        if seq % 2:
            seats = [(f"r{i}", f"t{t}", f"d{(t + i) % 10}") for i in range(t % 2, rel_types, 2)]
            log.append(event(f"e{seq}", seq, "open", {f"t{t}"}, new_objects=[(f"t{t}", "ticket")], new_relations=seats))
        else:
            log.append(event(f"e{seq}", seq, "note", {"d0", *(f"t{k}" for k in range(max(1, t - per_note + 1), t + 1))}))
    return EventLog(init=init, events=tuple(log))


# -- class flips: many asserted snapshots ---------------------------------------


def class_flip_model() -> OcbcModel:
    """Each "note" references exactly one ticket, and no desk."""
    return OcbcModel(
        bcm=BcModel(activities=frozenset({"note"}), constraints=()),
        clam=ClassModel(classes=frozenset({"ticket", "desk"}), rel_types=()),
        links=(link("note", "ticket", objects="1"),),
        scope={},
    )


def class_flip_log(events: int) -> EventLog:
    """Twenty objects, two of which each "note" references in turn; every
    fourth event asserts a snapshot in which one more of them has flipped
    between ticket and desk (types III, VI and VIII)."""
    classes = {f"o{i}": "ticket" for i in range(20)}
    log = []
    for seq in range(1, events + 1):
        snapshot = None
        if seq % 4 == 0:
            flipped = f"o{seq // 4 % 20}"
            classes[flipped] = "desk" if classes[flipped] == "ticket" else "ticket"
            snapshot = ObjectModel(class_of=classes, relations=frozenset())
        log.append(event(f"e{seq}", seq, "note", {f"o{seq % 20}", f"o{(seq + 7) % 20}"}, assert_snapshot=snapshot))
    return EventLog(init=ObjectModel(class_of={o: "ticket" for o in classes}, relations=frozenset()), events=tuple(log))


def relink_model() -> OcbcModel:
    """A ticket sits at exactly one desk, and a desk seats at most two tickets."""
    return OcbcModel(
        bcm=BcModel(activities=frozenset({"note"}), constraints=()),
        clam=ClassModel(
            classes=frozenset({"ticket", "desk"}),
            rel_types=(rel_type("at", "ticket", "desk", src="0..2", tar="1"),),
        ),
        links=(link("note", "ticket"), link("note", "desk")),
        scope={},
    )


def relink_log(events: int, every: int = 4, objects: int = 12) -> EventLog:
    """`objects` objects, one of which flips between ticket and desk at each
    snapshot, asserted every `every`th event, while "at" relations on them
    are added, re-added when present and removed, within and across
    stretches.  A snapshot keeps most relations; its event also re-adds a
    present one and adds one the snapshot drops.  The first event of a
    stretch adds an object linked at once, which the next snapshot drops;
    some events change nothing (types I, II and III)."""
    rng = random.Random(f"relink:{events}:{every}:{objects}")
    classes = {f"o{i}": "desk" if i % 3 == 0 else "ticket" for i in range(objects)}
    relations = {("at", "o1", "o0"), ("at", "o2", "o0")}
    init = ObjectModel(class_of=classes, relations=relations)
    log = []
    for seq in range(1, events + 1):
        a, b = rng.sample(sorted(classes), 2)
        new_objects, new, removed, snapshot = [], [("at", a, b)], [], None
        if seq % every == 0:
            flipped = rng.choice(sorted(classes))
            classes = {**classes, flipped: "ticket" if classes[flipped] == "desk" else "desk"}
            new += rng.sample(sorted(relations), min(1, len(relations)))
            # Drawn in sorted order, not set (hash) order, so every process builds one log.
            relations = {
                rel for rel in sorted(relations) if rel[1] in classes and rel[2] in classes and rng.random() < 0.8
            }
            snapshot = ObjectModel(class_of=classes, relations=relations)
        elif seq % every == 1:
            new_objects = [(f"n{seq}", rng.choice(("ticket", "desk")))]
            new = [("at", f"n{seq}", a), ("at", b, f"n{seq}")]
            relations.update(new)
        elif relations and rng.random() < 0.3:
            new, removed = [], [rng.choice(sorted(relations))]
            relations.difference_update(removed)
        elif relations and rng.random() < 0.3:
            new = [rng.choice(sorted(relations))]
        elif rng.random() < 0.3:
            new = []
        else:
            relations.update(new)
        log.append(event(f"e{seq}", seq, "note", {a}, new_objects=new_objects, new_relations=new,
                         removed_relations=removed, assert_snapshot=snapshot))
    return EventLog(init=init, events=tuple(log))


# -- seeded random scenarios ---------------------------------------------------

CARD_PAIRS = [
    ("*", "*"),
    ("*", "1"),
    ("*", "1..*"),
    ("0..1", "0..1"),
    ("0..1", "1"),
    ("1..*", "1..*"),
    ("1", "1"),
    ("0..2", "1..2"),
    ("0..3", "0..3"),
]

# Unions of ranges, whose gaps give an object several runs of type VII breaches.
_MULTI_RANGE_CARDS = ["0,2", "1,3..4", "0..1,3..*", "1..2,5", "2"]
MULTI_RANGE_PAIRS = [(always, eventually) for always in _MULTI_RANGE_CARDS for eventually in _MULTI_RANGE_CARDS]

_TEMPLATES = [
    "response", "unary-response", "non-response", "precedence",
    "unary-precedence", "non-precedence", "co-existence", "non-co-existence",
]


def random_model(rng: random.Random, card_pairs: list[tuple[str, str]] = CARD_PAIRS) -> OcbcModel:
    """A random model whose link and relationship cardinalities are
    (always, eventually) pairs drawn from `card_pairs`."""
    classes = [f"k{i}" for i in range(rng.randint(2, 3))]
    rel_types = []
    for i in range(rng.randint(0, 2)):
        src_always, src_ev = rng.choice(card_pairs)
        tar_always, tar_ev = rng.choice(card_pairs)
        rel_types.append(
            rel_type(
                f"r{i}", rng.choice(classes), rng.choice(classes),
                src=src_always, tar=tar_always, src_ev=src_ev, tar_ev=tar_ev,
            )
        )
    activities = [f"a{i}" for i in range(rng.randint(2, 4))]
    links = []
    for activity in activities:
        for cls in rng.sample(classes, rng.randint(1, min(2, len(classes)))):
            always, eventually = rng.choice(card_pairs)
            links.append(
                link(activity, cls, always=always, eventually=eventually,
                     objects=rng.choice(["*", "1", "0..1", "1..*", "0..2"]))
            )
    link_pairs = {(l.activity, l.cls) for l in links}
    constraints = []
    scope = {}
    for i in range(rng.randint(0, 4)):
        ref, target = rng.choice(activities), rng.choice(activities)
        vias = [
            cls for cls in classes
            if (ref, cls) in link_pairs and (target, cls) in link_pairs
        ]
        for rt in rel_types:
            straight = (ref, rt.source) in link_pairs and (target, rt.target) in link_pairs
            flipped = (ref, rt.target) in link_pairs and (target, rt.source) in link_pairs
            if straight or flipped:
                vias.append(rt.id)
        if not vias:
            continue
        cid = f"c{i}"
        constraints.append(constraint(cid, rng.choice(_TEMPLATES), ref, target))
        scope[cid] = rng.choice(vias)
    return OcbcModel(
        bcm=BcModel(activities=frozenset(activities), constraints=tuple(constraints)),
        clam=ClassModel(classes=frozenset(classes), rel_types=tuple(rel_types)),
        links=tuple(links),
        scope=scope,
    )


def random_log(rng: random.Random, model: OcbcModel, max_events: int = 15) -> EventLog:
    """A structurally parseable but intentionally messy log: wrong classes,
    dangling references, undeclared activities, deletions via snapshot
    assertions, relation churn."""
    classes = sorted(model.clam.classes)
    activities = sorted(model.bcm.activities) + ["zz-undeclared"]
    rel_ids = [rt.id for rt in model.clam.rel_types]
    objects: dict[str, str] = {}
    relations: set[tuple[str, str, str]] = set()
    counter = 0
    events = []
    for seq in range(1, rng.randint(0, max_events) + 1):
        new_objects = []
        for _ in range(rng.randint(0, 2)):
            if len(objects) + len(new_objects) >= 12:
                break
            counter += 1
            new_objects.append((f"o{counter}", rng.choice(classes)))
        staged = dict(objects)
        staged.update(dict(new_objects))
        new_relations = []
        if rel_ids and staged and rng.random() < 0.7:
            for _ in range(rng.randint(1, 2)):
                rt = model.clam.rel_type(rng.choice(rel_ids))
                if rng.random() < 0.8:
                    sources = [o for o, c in staged.items() if c == rt.source]
                    targets = [o for o, c in staged.items() if c == rt.target]
                else:
                    sources = targets = list(staged)
                if sources and targets:
                    rt_id = rt.id if rng.random() < 0.9 else "r-undeclared"
                    new_relations.append((rt_id, rng.choice(sources), rng.choice(targets)))
        removed = []
        if relations and rng.random() < 0.25:
            removed.append(rng.choice(sorted(relations)))
        refs = set()
        if staged and rng.random() < 0.9:
            refs.update(rng.sample(sorted(staged), rng.randint(1, min(3, len(staged)))))
        if rng.random() < 0.08:
            refs.add("ghost")
        if rng.random() < 0.1:
            # May or may not be created by a later event.
            refs.add(f"o{counter + rng.randint(1, 3)}")
        assert_snapshot = None
        objects.update(dict(new_objects))
        relations.update(new_relations)
        relations.difference_update(removed)
        if objects and rng.random() < 0.08:
            victim = rng.choice(sorted(objects))
            if rng.random() < 0.5:
                del objects[victim]
                relations = {r for r in relations if victim not in (r[1], r[2])}
            else:
                objects[victim] = rng.choice(classes)
                if rel_ids:
                    relations = {r for r in relations if victim not in (r[1], r[2])}
            assert_snapshot = ObjectModel(class_of=dict(objects), relations=frozenset(relations))
        events.append(
            event(
                f"e{seq}", seq, rng.choice(activities), refs,
                new_objects, new_relations, removed, assert_snapshot,
            )
        )
    return EventLog(events=tuple(events))


def random_case_scenario(rng: random.Random) -> tuple[OcbcModel, EventLog, dict[str, list[str]]]:
    """A single-class model where every constraint is scoped through `case`
    and every event references exactly one case object: the setting in which
    object-centric checking collapses to per-case trace checking."""
    activities = [f"a{i}" for i in range(rng.randint(2, 4))]
    constraints = []
    scope = {}
    for i in range(rng.randint(1, 4)):
        cid = f"c{i}"
        constraints.append(
            constraint(cid, rng.choice(_TEMPLATES), rng.choice(activities), rng.choice(activities))
        )
        scope[cid] = "case"
    model = OcbcModel(
        bcm=BcModel(activities=frozenset(activities), constraints=tuple(constraints)),
        clam=ClassModel(classes=frozenset({"case"}), rel_types=()),
        links=tuple(link(a, "case") for a in activities),
        scope=scope,
    )
    n_cases = rng.randint(1, 4)
    cases = [f"case{i}" for i in range(n_cases)]
    init = ObjectModel(class_of={c: "case" for c in cases}, relations=frozenset())
    events = []
    by_case: dict[str, list[str]] = {c: [] for c in cases}
    for seq in range(1, rng.randint(1, 14) + 1):
        case = rng.choice(cases)
        eid = f"e{seq}"
        events.append(event(eid, seq, rng.choice(activities), {case}))
        by_case[case].append(eid)
    return model, EventLog(init=init, events=tuple(events)), by_case


def named_and_random_pairs() -> list[tuple[OcbcModel, EventLog]]:
    """The worked scenarios, the empty log and 60 seeded random pairs."""
    pairs = [
        (ticket_model(), ticket_log()),
        (order_process_model(), order_process_log()),
        (precedence_model(), precedence_log()),
        (order_class_snapshot_model(), order_object_model(drop_relation=("r1", "o1", "ol1"))[1]),
        (order_process_model(), EventLog()),
    ]
    pairs += [(hiring_model(), hiring_log(order)) for order in ("conforming", "apply-before-open")]
    for seed in range(60):
        rng = random.Random(seed)
        model = random_model(rng)
        pairs.append((model, random_log(rng, model)))
    return pairs
