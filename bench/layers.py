"""Traced in-process run: times each layer's public functions from outside.

The check path mirrors ``cli._cmd_check`` call by call (load_model, load_log,
check_violations, aggregate, save_report), and the generate path mirrors
``cli._cmd_generate`` (load_model, generate_conforming, save_log), with one
span per call.  After them come the layer-only calls: an ``EventLog``
rebuild from the parsed events, ``final_snapshot``, the nine
``check_type_*`` entry points (2N only, plus ``check_type_ix`` on N for its
scaling), ``resolve_targets`` on a seeded sample of reference events and
``render_text``.  A separate ``tracemalloc`` pass takes the ``*.peak_mib``
values, so the timed spans are not slowed by it.

Every workload reports every per-layer metric.  The check workloads run the
generator layer as a fixed probe on the ticket model (PROBE_EVENTS events and
twice that); the generate workload runs the check layers on the logs it
generated.  Spans and counts are written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from ocbcheck import (
    EventLog,
    aggregate,
    check_type_i,
    check_type_ii,
    check_type_iii,
    check_type_iv,
    check_type_v,
    check_type_vi,
    check_type_vii,
    check_type_viii,
    check_type_ix,
    check_violations,
    generate_conforming,
    load_log,
    load_model,
    render_text,
    resolve_targets,
    save_log,
    save_report,
)

KIND_CHECKS = {
    "i": check_type_i,
    "ii": check_type_ii,
    "iii": check_type_iii,
    "iv": check_type_iv,
    "v": check_type_v,
    "vi": check_type_vi,
    "vii": check_type_vii,
    "viii": check_type_viii,
    "ix": check_type_ix,
}
PROBE_EVENTS = 1_000
RESOLVE_SAMPLE = 10
MIB = 1024 * 1024


class Tracer:
    """Spans kept in memory: name, start, end, parent span and operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str, op: str) -> float:
        """Total duration of the spans with this name in this operation."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name and s["op"] == op)

    def self_times(self) -> list[dict]:
        """Each span with its self time: duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [dict(s, self=s["end"] - s["start"] - child_time[s["id"]]) for s in self.spans]


def check_path(tracer: Tracer, op: str, model_path: Path, log_path: Path, out: Path):
    """What ``ocbcheck check MODEL LOG --format json --out OUT`` runs."""
    gc.collect()
    with tracer.span("cli.check", op):
        with tracer.span("formats.load_model", op):
            model = load_model(model_path.read_bytes())
        with tracer.span("formats.load_log", op):
            log = load_log(log_path.read_bytes())
        with tracer.span("conformance.check_violations", op):
            violations = check_violations(model, log)
        with tracer.span("report.aggregate", op):
            report = aggregate(violations)
        with tracer.span("formats.save_report", op):
            out.write_bytes(save_report(report))
    return model, log, report


def generate_path(tracer: Tracer, op: str, model_path: Path, events: int, seed: int, out: Path):
    """What ``ocbcheck generate MODEL --events K --seed S > OUT`` runs."""
    gc.collect()
    with tracer.span("cli.generate", op):
        with tracer.span("formats.load_model", op):
            model = load_model(model_path.read_bytes())
        with tracer.span("generator.generate_conforming", op):
            log = generate_conforming(model, events=events, seed=seed)
        with tracer.span("formats.save_log", op):
            out.write_bytes(save_log(log))
    return model, log


def _peak_mib(fn) -> float:
    """Run fn while tracemalloc traces; return the MiB it added at its peak."""
    gc.collect()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn()
    return (tracemalloc.get_traced_memory()[1] - base) / MIB


def run(workload: str, seed: int, targets, work: Path, runner, gen_model: Path, out_dir: Path):
    """Traced pass over both sizes after the child operations in `targets`
    ran; returns (units, metrics) and writes the spans to `out_dir`."""
    tracer = Tracer()
    large = targets[1]
    logs, reports, gen_logs = {}, {}, {}
    generating = workload == "generate"
    gen_op = "generate" if generating else "probe"
    gen_sizes = {t.label: t.events if generating else PROBE_EVENTS * (1 + i) for i, t in enumerate(targets)}
    check_inputs = {}
    for target in targets:
        label = target.label
        path = work / f"{gen_op}-{label}.oclog.jsonl"
        _, gen_logs[label] = generate_path(tracer, f"{gen_op}-{label}", gen_model, gen_sizes[label], seed, path)
        if generating:
            # The generated logs are the inputs of the check path.
            runner.tally(path.read_bytes() == target.reference, f"{label}: in-process log differs from the child's")
            check_inputs[label] = (gen_model, path)
        else:
            at = target.argv.index("check")
            check_inputs[label] = (Path(target.argv[at + 1]), Path(target.argv[at + 2]))

    for target in targets:
        label = target.label
        out = work / f"check-{label}.report.json"
        model, logs[label], reports[label] = check_path(tracer, f"check-{label}", *check_inputs[label], out)
        if generating:
            runner.tally(reports[label].conforms, f"{label}: generated log does not check as conforming")
        else:
            runner.tally(out.read_bytes() == target.reference, f"{label}: in-process report differs from the child's")

    # Layer-only calls.
    for label, log in logs.items():
        gc.collect()
        with tracer.span("eventlog.EventLog", f"layers-{label}"):
            EventLog(init=log.init, events=log.events)
    log = logs["2N"]
    with tracer.span("eventlog.final_snapshot", "layers-2N"):
        log.final_snapshot()
    for kind, check in KIND_CHECKS.items():
        gc.collect()
        with tracer.span(f"conformance.check_type_{kind}", "layers-2N"):
            check(model, log)
    gc.collect()
    with tracer.span("conformance.check_type_ix", "layers-N"):
        check_type_ix(model, logs["N"])
    refs = [
        (c.id, e.id) for c in model.bcm.constraints for e in log.events if e.activity == c.ref_activity
    ]
    sample = random.Random(f"resolve:{seed}").sample(refs, min(RESOLVE_SAMPLE, len(refs)))
    targets_found = []
    for cid, event_id in sample:
        with tracer.span("conformance.resolve_targets", "layers-2N"):
            targets_found.append(len(resolve_targets(model, log, cid, event_id)))
    resolve_us = [
        (s["end"] - s["start"]) * 1e6 for s in tracer.spans if s["name"] == "conformance.resolve_targets"
    ]
    with tracer.span("report.render_text", "layers-2N"):
        render_text(reports["2N"])

    # Peak memory, in a pass of its own.
    gen_model_doc = load_model(gen_model.read_bytes())
    log_bytes = check_inputs["2N"][1].read_bytes()
    tracemalloc.start()
    try:
        load_peak = _peak_mib(lambda: load_log(log_bytes))
        check_peak = _peak_mib(lambda: check_violations(model, log))
        gen_peak = _peak_mib(lambda: generate_conforming(gen_model_doc, events=gen_sizes["2N"], seed=seed))
    finally:
        tracemalloc.stop()

    t = tracer.seconds
    load_log_s = t("formats.load_log", "check-2N")
    eventlog_s = t("eventlog.EventLog", "layers-2N")
    # The spans under the root span of the path a user's operation takes.
    user_op = f"{gen_op if generating else 'check'}-2N"
    path_s = sum(
        s["end"] - s["start"] for s in tracer.spans if s["op"] == user_op and s["parent"] is not None
    )
    wall_s = statistics.median(s.wall_s for s in large.samples)
    metrics = {
        "formats.load_model.s": (t("formats.load_model", user_op), "s"),
        "formats.load_log.s": (load_log_s, "s"),
        "formats.load_log.scale_2x": (load_log_s / t("formats.load_log", "check-N"), "x"),
        "formats.parse.s": (load_log_s - eventlog_s, "s"),
        "formats.load_log.peak_mib": (load_peak, "MiB"),
        "eventlog.EventLog.s": (eventlog_s, "s"),
        "eventlog.EventLog.scale_2x": (eventlog_s / t("eventlog.EventLog", "layers-N"), "x"),
        "eventlog.final_snapshot.s": (t("eventlog.final_snapshot", "layers-2N"), "s"),
        "conformance.check_violations.s": (t("conformance.check_violations", "check-2N"), "s"),
        "conformance.check_violations.scale_2x": (
            t("conformance.check_violations", "check-2N") / t("conformance.check_violations", "check-N"), "x"
        ),
        "conformance.check_violations.peak_mib": (check_peak, "MiB"),
        **{
            f"conformance.check_type_{kind}.s": (t(f"conformance.check_type_{kind}", "layers-2N"), "s")
            for kind in KIND_CHECKS
        },
        "conformance.check_type_ix.scale_2x": (
            t("conformance.check_type_ix", "layers-2N") / t("conformance.check_type_ix", "layers-N"), "x"
        ),
        "conformance.resolve_targets.us": (statistics.median(resolve_us), "us"),
        "conformance.targets_per_ref": (statistics.fmean(targets_found), "count"),
        "conformance.ref_events": (len(refs), "count"),
        "report.aggregate.s": (t("report.aggregate", "check-2N"), "s"),
        "report.render_text.s": (t("report.render_text", "layers-2N"), "s"),
        "formats.save_report.s": (t("formats.save_report", "check-2N"), "s"),
        "violations.count": (len(reports["2N"].violations), "count"),
        "generator.generate_conforming.s": (t("generator.generate_conforming", f"{gen_op}-2N"), "s"),
        "generator.generate_conforming.scale_2x": (
            t("generator.generate_conforming", f"{gen_op}-2N")
            / t("generator.generate_conforming", f"{gen_op}-N"),
            "x",
        ),
        "generator.generate_conforming.peak_mib": (gen_peak, "MiB"),
        "generator.events": (len(gen_logs["2N"].events), "count"),
        "formats.save_log.s": (t("formats.save_log", f"{gen_op}-2N"), "s"),
        "trace.unaccounted.s": (wall_s - path_s, "s"),
    }

    out_dir.mkdir(exist_ok=True)
    counts = {
        "events": {label: len(log.events) for label, log in logs.items()},
        "violations": {label: len(report.violations) for label, report in reports.items()},
        "ref_events": len(refs),
        "resolve_sample": len(sample),
        "generated_events": {label: len(g.events) for label, g in gen_logs.items()},
    }
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "counts": counts, "spans": tracer.self_times()}, indent=1)
    )
    units = {name: unit for name, (_, unit) in metrics.items()}
    return units, {name: value for name, (value, _) in metrics.items()}
