"""Aggregation of violations into a diagnostics report, and its text rendering."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import itemgetter, sub
from typing import NamedTuple

from .violations import KINDS, SEVERITY_ERROR, Violation, sort_violations


class ConformanceReport(NamedTuple):
    """Deterministic summary of one conformance check.

    `per_constraint` counts failing reference events per behavioral
    constraint; `per_aoc_edge` counts always/eventually event-count breaches
    per (activity, class) link; `per_rel_type` counts validity/fulfilment
    breaches per relationship type, side, and temporal flavor (plus endpoint
    typing breaches).
    """

    conforms: bool
    violations: tuple[Violation, ...]
    summary: dict[str, int]
    per_constraint: dict[str, int]
    per_aoc_edge: dict[tuple[str, str], tuple[int, int]]
    per_rel_type: dict[str, dict[str, int]]
    unknown_activities: tuple[str, ...]
    prefix_mode: bool = False

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity != SEVERITY_ERROR]


_REL_TYPE_BUCKETS = ("src_always", "src_eventually", "tar_always", "tar_eventually", "typing")
# The fields the tables count, read by position.
_EDGE, _SIDE, _CONSTRAINT, _ACTIVITY, _SEVERITY = (
    itemgetter(*map(Violation._fields.index, names))
    for names in (("temporal", "activity", "cls"), ("rel_type", "side", "temporal"),
                  ("constraint",), ("activity",), ("severity",))
)


def aggregate(violations: list[Violation], prefix: bool = False) -> ConformanceReport:
    """Build the full report from a violation list in any order; conforms
    iff no errors."""
    return _report(tuple(sort_violations(violations)), prefix)


def _report(ordered: tuple[Violation, ...], prefix: bool) -> ConformanceReport:
    """The report of violations already in report order (`Violation.sort_key`).
    Each table is counted at C speed from the slice of its kinds."""
    # `ordered` is sorted by kind first, so each kind is one slice, found by bisection.
    starts = [bisect_left(ordered, i, key=lambda v: KINDS.index(v[0])) for i in range(len(KINDS))]
    start = dict(zip(KINDS, starts))
    summary = dict(zip(KINDS, map(sub, [*starts[1:], len(ordered)], starts)))

    always, eventually = Counter(), Counter()
    for (temporal, activity, cls), count in Counter(map(_EDGE, ordered[start["VII"] : start["VIII"]])).items():
        (always if temporal == "always" else eventually)[activity, cls] += count
    per_rel_bucket = Counter()
    for (rel_type, side, temporal), count in Counter(map(_SIDE, ordered[: start["III"]])).items():
        per_rel_bucket[rel_type, f"{side}_{temporal}" if temporal else "typing"] += count
    per_rel_type: dict[str, dict[str, int]] = {}
    for (rel_type, bucket), count in sorted(per_rel_bucket.items()):
        per_rel_type.setdefault(rel_type, dict.fromkeys(_REL_TYPE_BUCKETS, 0))[bucket] += count
    return ConformanceReport(
        conforms=SEVERITY_ERROR not in map(_SEVERITY, ordered),
        violations=ordered,
        summary=summary,
        per_constraint=dict(sorted(Counter(map(_CONSTRAINT, ordered[start["IX"] :])).items())),
        per_aoc_edge={e: (always[e], eventually[e]) for e in sorted(always.keys() | eventually.keys())},
        per_rel_type=per_rel_type,
        unknown_activities=tuple(sorted({*map(_ACTIVITY, ordered[start["IV"] : start["V"]])})),
        prefix_mode=prefix,
    )


def _breach(v: Violation, where: str) -> str:
    """Types I and II: the detail if there is one, else the partner count."""
    flavor = f"{v.temporal} " if v.temporal else ""
    found = v.detail or f"object {v.obj} has {v.observed} partner(s), expected {flavor}{v.expected}"
    return f"relationship {v.rel_type} {v.side or '-'} side: {found} at {where}"


# Each kind's title and its line from a violation and where it was found, in `KINDS` order.
_KIND_TEXT = {
    "I": ("object-model validity", _breach),
    "II": ("fulfilment", _breach),
    "III": ("monotonicity", lambda v, where: f"object {v.obj}: {v.detail} at {where}"),
    "IV": ("activity existence", lambda v, where: f"{where}: activity {v.activity!r} is not in the model"),
    "V": ("object existence", lambda v, where: f"{where}: referenced object {v.obj} does not exist"),
    "VI": ("proper classes", lambda v, where: (
        f"{where}: activity {v.activity!r} may not reference class {v.cls!r} (object {v.obj})")),
    "VII": ("events per object", lambda v, where: (
        f"({v.activity}, {v.cls}) object {v.obj}: {'always' if v.temporal == 'always' else 'eventual'} "
        f"event count {v.observed}, expected {v.expected}, at {where}")),
    "VIII": ("objects per event", lambda v, where: (
        f"({v.activity}, {v.cls}) {where}: references {v.observed} object(s), expected {v.expected}")),
    "IX": ("behavioral constraints", lambda v, where: (
        f"constraint {v.constraint} at {where}: before={v.before} after={v.after}, expected {v.expected}")),
}


def _violation_line(v: Violation) -> str:
    where = f"event {v.event} (seq {v.seq})" if v.event else "final state"
    tag = f"[{v.kind}]" if v.severity == SEVERITY_ERROR else f"[{v.kind}] (warning)"
    return f"{tag} {_KIND_TEXT[v.kind][1](v, where)}"


def render_text(report: ConformanceReport) -> str:
    """Stable, line-oriented rendering: verdict, per-kind summary, one line per
    violation grouped by problem type, then the aggregate tables."""
    lines: list[str] = []
    lines.append(f"CONFORMS: {'yes' if report.conforms else 'no'}")
    total = len(report.violations)
    if report.prefix_mode:
        n_warnings = len(report.warnings)
        lines.append(
            f"{total} finding(s): {total - n_warnings} error(s), "
            f"{n_warnings} warning(s) [prefix mode]"
        )
    else:
        lines.append(f"{total} violation(s)")
    lines.append("")
    for kind, (title, _) in _KIND_TEXT.items():
        lines.append(f"  {kind:>4}  {title:<26} {report.summary[kind]}")
    # One scan lays out every violation line, grouped by kind.
    groups: dict[str, list[str]] = {}
    for v in report.violations:
        groups.setdefault(v.kind, []).append("  " + _violation_line(v))
    for kind, (title, _) in _KIND_TEXT.items():
        if kind in groups:
            lines += ["", f"Type {kind} ({title}):", *groups[kind]]
    if report.per_constraint:
        lines.append("")
        lines.append("violated reference events per constraint:")
        for cid, count in report.per_constraint.items():
            lines.append(f"  {cid}: {count}")
    if report.per_aoc_edge:
        lines.append("")
        lines.append("event-count breaches per activity/class link (always, eventually):")
        for (activity, cls), (n_always, n_eventually) in report.per_aoc_edge.items():
            lines.append(f"  ({activity}, {cls}): {n_always}, {n_eventually}")
    if report.per_rel_type:
        lines.append("")
        lines.append("breaches per relationship type:")
        for rt, buckets in report.per_rel_type.items():
            rendered = ", ".join(f"{name}={buckets[name]}" for name in _REL_TYPE_BUCKETS)
            lines.append(f"  {rt}: {rendered}")
    if report.unknown_activities:
        lines.append("")
        lines.append("activities not in the model: " + ", ".join(report.unknown_activities))
    return "\n".join(lines) + "\n"
