"""Aggregation of violations into a diagnostics report, and its text rendering."""

from __future__ import annotations

from dataclasses import dataclass

from .violations import KIND_TITLES, KINDS, SEVERITY_ERROR, Violation, sort_violations


@dataclass(frozen=True)
class ConformanceReport:
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


def aggregate(violations: list[Violation], prefix: bool = False) -> ConformanceReport:
    """Build the full report from a violation list; conforms iff no errors."""
    ordered = tuple(sort_violations(violations))
    summary = {kind: 0 for kind in KINDS}
    per_constraint: dict[str, int] = {}
    aoc_always: dict[tuple[str, str], int] = {}
    aoc_eventually: dict[tuple[str, str], int] = {}
    per_rel_bucket: dict[tuple[str, str], int] = {}
    unknown: set[str] = set()

    # One unpack reads every field of a violation; a named read per field costs more.
    for kind, _, _, constraint, _, activity, cls, rel_type, side, temporal, _, _, _, _, _, _ in ordered:
        summary[kind] += 1
        if kind == "IX":
            per_constraint[constraint] = per_constraint.get(constraint, 0) + 1
        elif kind == "VII":
            bucket = aoc_always if temporal == "always" else aoc_eventually
            bucket[(activity, cls)] = bucket.get((activity, cls), 0) + 1
        elif kind == "IV":
            unknown.add(activity)
        elif kind in ("I", "II"):
            key = (rel_type, f"{side}_{temporal}" if temporal else "typing")
            per_rel_bucket[key] = per_rel_bucket.get(key, 0) + 1

    edges = sorted(set(aoc_always) | set(aoc_eventually))
    per_aoc_edge = {e: (aoc_always.get(e, 0), aoc_eventually.get(e, 0)) for e in edges}
    per_rel_type: dict[str, dict[str, int]] = {}
    for (rel_type, bucket), count in sorted(per_rel_bucket.items()):
        per_rel_type.setdefault(rel_type, dict.fromkeys(_REL_TYPE_BUCKETS, 0))[bucket] += count
    conforms = not any(v.severity == SEVERITY_ERROR for v in ordered)
    return ConformanceReport(
        conforms=conforms,
        violations=ordered,
        summary=summary,
        per_constraint=dict(sorted(per_constraint.items())),
        per_aoc_edge=per_aoc_edge,
        per_rel_type=per_rel_type,
        unknown_activities=tuple(sorted(unknown)),
        prefix_mode=prefix,
    )


def _violation_line(v: Violation) -> str:
    where = f"event {v.event} (seq {v.seq})" if v.event else "final state"
    parts = [f"[{v.kind}]"]
    if v.severity != SEVERITY_ERROR:
        parts.append("(warning)")
    if v.kind == "I" or v.kind == "II":
        flavor = f"{v.temporal} " if v.temporal else ""
        parts.append(f"relationship {v.rel_type} {v.side or '-'} side:")
        if v.detail:
            parts.append(v.detail)
        else:
            parts.append(f"object {v.obj} has {v.observed} partner(s), expected {flavor}{v.expected}")
        parts.append(f"at {where}")
    elif v.kind == "III":
        parts.append(f"object {v.obj}: {v.detail} at {where}")
    elif v.kind == "IV":
        parts.append(f"{where}: activity {v.activity!r} is not in the model")
    elif v.kind == "V":
        parts.append(f"{where}: referenced object {v.obj} does not exist")
    elif v.kind == "VI":
        parts.append(
            f"{where}: activity {v.activity!r} may not reference class {v.cls!r} (object {v.obj})"
        )
    elif v.kind == "VII":
        flavor = "always" if v.temporal == "always" else "eventual"
        parts.append(
            f"({v.activity}, {v.cls}) object {v.obj}: {flavor} event count {v.observed}, "
            f"expected {v.expected}, at {where}"
        )
    elif v.kind == "VIII":
        parts.append(
            f"({v.activity}, {v.cls}) {where}: references {v.observed} object(s), "
            f"expected {v.expected}"
        )
    else:  # IX
        parts.append(
            f"constraint {v.constraint} at {where}: before={v.before} after={v.after}, "
            f"expected {v.expected}"
        )
    return " ".join(parts)


def render_text(report: ConformanceReport) -> str:
    """Stable, line-oriented rendering: verdict, per-kind summary, one line per
    violation grouped by problem type, then the aggregate tables."""
    lines: list[str] = []
    lines.append(f"CONFORMS: {'yes' if report.conforms else 'no'}")
    total = len(report.violations)
    n_warnings = len(report.warnings)
    if report.prefix_mode:
        lines.append(
            f"{total} finding(s): {total - n_warnings} error(s), "
            f"{n_warnings} warning(s) [prefix mode]"
        )
    else:
        lines.append(f"{total} violation(s)")
    lines.append("")
    for kind in KINDS:
        lines.append(f"  {kind:>4}  {KIND_TITLES[kind]:<26} {report.summary[kind]}")
    for kind in KINDS:
        group = [v for v in report.violations if v.kind == kind]
        if not group:
            continue
        lines.append("")
        lines.append(f"Type {kind} ({KIND_TITLES[kind]}):")
        for v in group:
            lines.append("  " + _violation_line(v))
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
