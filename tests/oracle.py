"""Definitional conformance evaluator, used as the independent test oracle.

Every quantified condition is recomputed directly from per-event snapshots
(folded here from the log's initial model and deltas), with the eventual
requirements evaluated by literally searching for a suffix on which the
condition holds everywhere.  No fold, index structure or incremental state
is shared with the optimized engine; only the record and model types are."""

from __future__ import annotations

from ocbcheck import EventLog, ObjectModel, OcbcModel, Violation


def fold_snapshots(log: EventLog) -> list[ObjectModel]:
    """The object model after each event, each delta applied as written: its
    new objects join the class map, its relations are added and then removed,
    and an asserted snapshot replaces both.  The build has already rejected a
    log whose deltas do not replay, so nothing is checked here."""
    class_of, relations = dict(log.init.class_of), set(log.init.relations)
    out = []
    for event in log.events:
        delta = event.delta
        class_of.update(delta.new_objects)
        relations.update(delta.new_relations)
        relations.difference_update(delta.removed_relations)
        if delta.assert_snapshot is not None:
            class_of, relations = dict(delta.assert_snapshot.class_of), set(delta.assert_snapshot.relations)
        out.append(ObjectModel(class_of, relations))
    return out


def naive_check(model: OcbcModel, log: EventLog) -> list[Violation]:
    out: list[Violation] = []
    events = list(log.events)
    n = len(events)
    snapshots = fold_snapshots(log)

    def count_relations(j: int, rt_id: str, fixed: str, obj: str) -> int:
        if fixed == "src":
            return sum(1 for r, s, t in snapshots[j].relations if r == rt_id and s == obj)
        return sum(1 for r, s, t in snapshots[j].relations if r == rt_id and t == obj)

    # Type I: every snapshot is valid for the class model.
    for i, event in enumerate(events):
        om = snapshots[i]
        for rt_id, src, tar in om.relations:
            if not model.clam.has_rel_type(rt_id):
                out.append(
                    Violation(
                        kind="I", event=event.id, seq=event.seq, rel_type=rt_id,
                        detail=f"relation ({rt_id},{src},{tar}): relationship type "
                        f"not declared in the class model",
                    )
                )
                continue
            rt = model.clam.rel_type(rt_id)
            for side, obj, want in (("src", src, rt.source), ("tar", tar, rt.target)):
                got = om.class_of[obj]
                if got != want:
                    out.append(
                        Violation(
                            kind="I", event=event.id, seq=event.seq, rel_type=rt_id,
                            side=side, obj=obj, cls=got, expected=want,
                            detail=f"relation ({rt_id},{src},{tar}): {side} endpoint has "
                            f"class {got!r}, expected {want!r}",
                        )
                    )
        for rt in model.clam.rel_types:
            for obj in sorted(om.objects_of_class(rt.source)):
                observed = count_relations(i, rt.id, "src", obj)
                if observed not in rt.card_tar_always:
                    out.append(
                        Violation(
                            kind="I", event=event.id, seq=event.seq, rel_type=rt.id,
                            side="tar", obj=obj, temporal="always", observed=observed,
                            expected=rt.card_tar_always.render(),
                        )
                    )
            for obj in sorted(om.objects_of_class(rt.target)):
                observed = count_relations(i, rt.id, "tar", obj)
                if observed not in rt.card_src_always:
                    out.append(
                        Violation(
                            kind="I", event=event.id, seq=event.seq, rel_type=rt.id,
                            side="src", obj=obj, temporal="always", observed=observed,
                            expected=rt.card_src_always.render(),
                        )
                    )

    # Type II: from some event on, every later snapshot is also fulfilled.
    if events:
        last = events[-1]
        for rt in model.clam.rel_types:
            for side, keeper_cls, fixed, card in (
                ("src", rt.target, "tar", rt.card_src_eventually),
                ("tar", rt.source, "src", rt.card_tar_eventually),
            ):
                candidates = set()
                for om in snapshots:
                    candidates |= om.objects_of_class(keeper_cls)
                for obj in sorted(candidates):
                    fine = [
                        om_class(snapshots[j], obj) != keeper_cls
                        or count_relations(j, rt.id, fixed, obj) in card
                        for j in range(n)
                    ]
                    if not any(all(fine[j] for j in range(f, n)) for f in range(n)):
                        out.append(
                            Violation(
                                kind="II", event=last.id, seq=last.seq, rel_type=rt.id,
                                side=side, obj=obj, temporal="eventually",
                                observed=count_relations(n - 1, rt.id, fixed, obj),
                                expected=card.render(),
                            )
                        )

    # Type III: between consecutive snapshots no object disappears or
    # changes class (an object's class is also compared across gaps in its
    # presence, matching the pairwise definition).
    seen_class: dict[str, str] = {}
    for i, event in enumerate(events):
        om = snapshots[i]
        if i > 0:
            for obj in sorted(snapshots[i - 1].objects - om.objects):
                out.append(
                    Violation(
                        kind="III", event=event.id, seq=event.seq, obj=obj,
                        detail="object disappeared from the object model",
                    )
                )
        for obj in sorted(om.objects):
            cls = om.class_of[obj]
            previous = seen_class.get(obj)
            if previous is not None and previous != cls:
                out.append(
                    Violation(
                        kind="III", event=event.id, seq=event.seq, obj=obj,
                        detail=f"object changed class from {previous!r} to {cls!r}",
                    )
                )
            seen_class[obj] = cls

    # Types IV, V, VI: per-event bookkeeping checks.
    for i, event in enumerate(events):
        om = snapshots[i]
        if event.activity not in model.bcm.activities:
            out.append(Violation(kind="IV", event=event.id, seq=event.seq, activity=event.activity))
        for obj in sorted(event.objects):
            if obj not in om.class_of:
                out.append(Violation(kind="V", event=event.id, seq=event.seq, obj=obj))
            elif not model.has_link(event.activity, om.class_of[obj]):
                out.append(
                    Violation(
                        kind="VI", event=event.id, seq=event.seq, obj=obj,
                        activity=event.activity, cls=om.class_of[obj],
                    )
                )

    # Type VII: per (activity, class) link and object, the running number of
    # linked events stays admissible from the object's first appearance, and
    # eventually reaches an admissible value for good.
    for link in model.links:
        candidates = set()
        for om in snapshots:
            candidates |= om.objects_of_class(link.cls)
        for obj in sorted(candidates):
            appears = [
                i for i in range(n) if om_class(snapshots[i], obj) == link.cls
            ]
            if not appears:
                continue
            first = appears[0]
            running = [
                sum(
                    1
                    for k in range(j + 1)
                    if events[k].activity == link.activity and obj in events[k].objects
                )
                for j in range(n)
            ]
            bad = [j for j in range(first, n) if running[j] not in link.card_events_always]
            for start in bad:
                if start - 1 in bad:
                    continue
                out.append(
                    Violation(
                        kind="VII", event=events[start].id, seq=events[start].seq,
                        activity=link.activity, cls=link.cls, obj=obj,
                        temporal="always", observed=running[start],
                        expected=link.card_events_always.render(),
                    )
                )
            settled = any(
                all(running[j] in link.card_events_eventually for j in range(f, n))
                for f in range(first, n)
            )
            # A broken running count subsumes the eventual-count breach.
            if not settled and not bad:
                out.append(
                    Violation(
                        kind="VII", event=events[-1].id, seq=events[-1].seq,
                        activity=link.activity, cls=link.cls, obj=obj,
                        temporal="eventually", observed=running[n - 1],
                        expected=link.card_events_eventually.render(),
                    )
                )

    # Type VIII: each event references an admissible number of objects per link.
    for i, event in enumerate(events):
        om = snapshots[i]
        for link in model.links:
            if link.activity != event.activity:
                continue
            observed = sum(1 for o in event.objects if om_class(om, o) == link.cls)
            if observed not in link.card_objects:
                out.append(
                    Violation(
                        kind="VIII", event=event.id, seq=event.seq,
                        activity=link.activity, cls=link.cls,
                        observed=observed, expected=link.card_objects.render(),
                    )
                )

    # Type IX: for each reference event there is a suffix of the log on which
    # the correlated target-event counts satisfy the constraint type.
    for c in model.bcm.constraints:
        via = model.scope[c.id]
        for i, ref in enumerate(events):
            if ref.activity != c.ref_activity:
                continue

            def counts(j: int) -> tuple[int, int]:
                om = snapshots[j]
                targets = set()
                for k, cand in enumerate(events):
                    if cand.activity != c.target_activity:
                        continue
                    if via in model.clam.classes:
                        shared = any(
                            om_class(om, o) == via and o in cand.objects for o in ref.objects
                        )
                    else:
                        shared = any(
                            r == via
                            and (
                                (s in ref.objects and t in cand.objects)
                                or (t in ref.objects and s in cand.objects)
                            )
                            for r, s, t in om.relations
                        )
                    if shared:
                        targets.add(k)
                before = sum(1 for k in targets if k < i)
                after = sum(1 for k in targets if k > i)
                return before, after

            per_position = [counts(j) for j in range(n)]
            satisfied = any(
                all(c.ctype.accepts(*per_position[j]) for j in range(f, n)) for f in range(n)
            )
            if not satisfied:
                before, after = per_position[n - 1]
                out.append(
                    Violation(
                        kind="IX", event=ref.id, seq=ref.seq, constraint=c.id,
                        before=before, after=after, expected=c.ctype.render(),
                    )
                )
    return out


def om_class(om, obj: str) -> str | None:
    return om.class_of.get(obj)
