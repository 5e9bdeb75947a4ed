"""Seeded input generators for the check workloads.

Each generator writes an ``.oclog.jsonl`` document directly, without
``ocbcheck.generator``, so a change to the program's own generator cannot
change what the check workloads measure.  Each also returns the expectation
it planted: the verdict, the exit code of ``ocbcheck check`` and the per-kind
counts of the report's ``summary``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

KINDS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")

# Model document of each check workload, relative to the repository root.
MODELS = {
    "tickets": "bench/models/tickets.ocbc.json",
    "orders": "demo/order-process.ocbc.json",
    "hub-noisy": "bench/models/hub.ocbc.json",
}


@dataclass(frozen=True)
class Input:
    log: bytes
    events: int
    conforms: bool
    summary: dict[str, int]

    @property
    def exit_code(self) -> int:
        return 0 if self.conforms else 1


class _Writer:
    """Appends canonical-looking event lines with consecutive ids and seqs."""

    def __init__(self, init_objects: list[tuple[str, str]] = ()):
        self.lines: list[str] = []
        self.count = 0
        if init_objects:
            objects = [{"class": cls, "id": oid} for oid, cls in init_objects]
            self.lines.append(json.dumps({"init": {"objects": objects, "relations": []}}, sort_keys=True))

    def event(self, activity: str, objects=(), new_objects=(), new_relations=()) -> None:
        self.count += 1
        entry: dict = {"id": f"e{self.count}", "seq": self.count, "activity": activity}
        if objects:
            entry["objects"] = sorted(objects)
        if new_objects:
            entry["new_objects"] = [{"class": cls, "id": oid} for oid, cls in new_objects]
        if new_relations:
            entry["new_relations"] = [list(rel) for rel in new_relations]
        self.lines.append(json.dumps(entry, sort_keys=True))

    def data(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode("utf-8")


def _take(rng: random.Random, items: list):
    """Remove and return a random element in O(1)."""
    i = rng.randrange(len(items))
    items[i], items[-1] = items[-1], items[i]
    return items.pop()


def _summary(**counts: int) -> dict[str, int]:
    return {kind: counts.get(kind, 0) for kind in KINDS}


def tickets_log(events: int, rng: random.Random) -> Input:
    """Conforming log of the criterion-9 ticket model: every ticket is issued
    (created by the issue event) and paid once later; one object per event."""
    tickets = events // 2
    w = _Writer()
    unpaid: list[str] = []
    issued = 0
    while issued < tickets or unpaid:
        if issued < tickets and (not unpaid or rng.random() < 0.5):
            issued += 1
            ticket = f"t{issued}"
            w.event("issue", [ticket], new_objects=[(ticket, "ticket")])
            unpaid.append(ticket)
        else:
            w.event("pay", [_take(rng, unpaid)])
    return Input(w.data(), w.count, True, _summary())


def orders_log(events: int, rng: random.Random) -> Input:
    """Conforming log of the demo order process (about `events` events).

    Each order is created with 1-5 lines; each line is picked, then wrapped;
    each delivery bundles 1-6 wrapped lines drawn from all open orders, so
    deliveries and orders relate many-to-many through their lines.
    """
    customers = [f"cu{i}" for i in range(1, 21)]
    products = [f"pr{i}" for i in range(1, 51)]
    w = _Writer([(c, "customer") for c in customers] + [(p, "product") for p in products])
    new: list[str] = []
    picked: list[str] = []
    wrapped: list[str] = []
    orders = lines = deliveries = 0
    while True:
        # Events still owed to open lines: a pick and a wrap per new line, a
        # wrap per picked line, and a delivery per three lines or so.
        owed = 2 * len(new) + len(picked) + (len(new) + len(picked) + len(wrapped) + 2) // 3
        creating = w.count + owed < events
        actions, weights = [], []
        for action, weight, ready in (
            ("create", 1, creating),
            ("pick", 3, new),
            ("wrap", 3, picked),
            ("deliver", 1, len(wrapped) >= (3 if creating else 1)),
        ):
            if ready:
                actions.append(action)
                weights.append(weight)
        if not actions:
            break
        action = rng.choices(actions, weights)[0]
        if action == "create":
            orders += 1
            order = f"o{orders}"
            new_objects = [(order, "order")]
            relations = [("r4", order, rng.choice(customers))]
            for _ in range(rng.randint(1, 5)):
                lines += 1
                line = f"ol{lines}"
                new_objects.append((line, "order line"))
                relations += [("r1", order, line), ("r3", line, rng.choice(products))]
                new.append(line)
            w.event("create order", [order], new_objects, relations)
        elif action == "pick":
            line = _take(rng, new)
            w.event("pick item", [line])
            picked.append(line)
        elif action == "wrap":
            line = _take(rng, picked)
            w.event("wrap item", [line])
            wrapped.append(line)
        else:
            deliveries += 1
            delivery = f"d{deliveries}"
            bundle = [_take(rng, wrapped) for _ in range(rng.randint(1, min(6, len(wrapped))))]
            relations = [("r2", line, delivery) for line in bundle]
            relations.append(("r5", delivery, rng.choice(customers)))
            w.event("deliver items", [delivery], [(delivery, "delivery")], relations)
    return Input(w.data(), w.count, True, _summary())


# Planted deviations of hub-noisy, per 1000 events (rounded up).
HUB_RATES = {"audit": 2, "unpaid": 3, "double": 2}
HUB_TICKETS_WITHOUT_DESK = 5
HUB_DESKS = 10


def hub_log(events: int, rng: random.Random) -> Input:
    """Ticket log in which desk d0 appears in about 90% of events.

    Planted deviations, each with its exact contribution to the summary:
    - an ``audit`` event, an activity the model lacks: one IV;
    - a ticket never paid: one eventual VII and one IX (response c2);
    - a ticket paid twice: one always VII at the second payment;
    - the first tickets are opened without their ``at`` relation: one I at
      every event from their opening to the end of the log, and one II.
    """
    audits, unpaid, double = (math.ceil(events * HUB_RATES[k] / 1000) for k in ("audit", "unpaid", "double"))
    if (events - audits - double + unpaid) % 2:
        audits += 1
    tickets = (events - audits - double + unpaid) // 2
    deviant = rng.sample(range(HUB_TICKETS_WITHOUT_DESK + 1, tickets + 1), unpaid + double)
    dues = dict.fromkeys(range(1, tickets + 1), 1)
    dues.update(dict.fromkeys(deviant[:unpaid], 0))
    dues.update(dict.fromkeys(deviant[unpaid:], 2))
    audit_at = set(rng.sample(range(events), audits))

    w = _Writer([(f"d{i}", "desk") for i in range(HUB_DESKS)])
    desk_of: dict[int, str] = {}
    payable: list[int] = []
    opened = 0
    type_i = 0
    while w.count < events:
        if w.count in audit_at:
            w.event("audit")
        elif opened < tickets and (not payable or rng.random() < 0.5):
            opened += 1
            ticket = f"t{opened}"
            desk = "d0" if rng.random() < 0.9 else f"d{rng.randint(1, HUB_DESKS - 1)}"
            desk_of[opened] = desk
            relations = [("at", ticket, desk)]
            if opened <= HUB_TICKETS_WITHOUT_DESK:
                relations = []
                type_i += events - w.count
            w.event("open", [ticket, desk], [(ticket, "ticket")], relations)
            if dues[opened]:
                payable.append(opened)
        else:
            i = rng.randrange(len(payable))
            number = payable[i]
            w.event("pay", [f"t{number}", desk_of[number]])
            dues[number] -= 1
            if not dues[number]:
                payable[i] = payable[-1]
                payable.pop()
    summary = _summary(
        I=type_i,
        II=HUB_TICKETS_WITHOUT_DESK,
        IV=audits,
        VII=unpaid + double,
        IX=unpaid,
    )
    return Input(w.data(), w.count, False, summary)


GENERATORS = {"tickets": tickets_log, "orders": orders_log, "hub-noisy": hub_log}
