#!/usr/bin/env python3
"""Benchmark of the ocbcheck command line: time to verdict, 2x scaling, layers.

Run from the repository root:

    python3 bench/run.py --workload orders --seed 1 --seconds 20 --trace 0

One operation is one ``ocbcheck check --format json --out F`` (or, for the
``generate`` workload, one ``ocbcheck generate``) run as a fresh child
process.  The loop is closed with a single client: one child at a time, no
threads.  Each workload has a base input of N events and a doubled one of
2N, both generated at set-up from --seed; the program only sees the files.

Workloads, and why each is here:

  tickets    criterion-9 ticket model, N=10k, conforming.  Largest byte
             volume: parsing and EventLog construction dominate; correlation
             (<=2 targets per reference) and the report (0 violations) do
             little, so IX and report optimisations should not move it.
  orders     demo order-process model, N=1k, conforming.  Relationship-scoped
             IX through r1/r2 with multi-object deltas (many-to-many).
  hub-noisy  ticket+desk model, N=3k, with planted deviations.  One desk in
             ~90% of events gives O(n) targets per reference event, and tens
             of thousands of violations load the report layer.
  generate   ``ocbcheck generate`` on the ticket model, K=2.5k: the only
             workload where ocbcheck.generator runs.

--trace 0 prints the end-to-end metrics:

  wall_s        median wall time of one operation on the 2N input, from
                spawning the child to its exit, at the reference speed of
                the machine: each operation's time is multiplied by
                CAL_NOMINAL_S over the time the fixed work of calibrate.py
                took just before it.  The speed of a shared host drifts by
                up to 1.6x for minutes at a time, which raw medians of
                separate runs cannot absorb; the raw medians and quartiles
                are printed on the detail lines.
  scale_2x      raw median wall time on 2N divided by the one on N
  peak_rss_mib  median peak RSS of the child on 2N, from os.wait4
  setup_s       median of three set-ups, each: input generation for both
                sizes, the oracle cross-check and one untimed warm-up
                operation; scaled to the reference speed like wall_s

Each round's wall and reference times go to .bench_out/rounds-WORKLOAD-seedSEED.json.
--trace 1 runs the layers in-process instead (see layers.py) and prints the
per-layer metrics.

Every operation is checked: its exit code and its report's verdict and
per-kind summary must equal the expectation the input generator planted, and
all outputs on one input must be byte-identical although each child gets its
own PYTHONHASHSEED.  A miss counts as failed and is never retried.  The
failure rate is the result line's ``failed`` / ``attempted``; it is not a
metric of its own because a metric must never read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from inputs import GENERATORS, MODELS, Input

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"  # span and sample records of each run

# N per workload; the doubled input has 2N events.
SIZES = {"tickets": 10_000, "orders": 1_000, "hub-noisy": 3_000, "generate": 2_500}
GENERATE_MODEL = "bench/models/tickets.ocbc.json"
CROSSCHECK_EVENTS = 40
SETUP_REPEATS = 3
CAL_NOMINAL_S = 0.1  # calibrate.work() on an idle core of a 2-vCPU Xeon VM
UNITS = {"wall_s": "s", "scale_2x": "x", "peak_rss_mib": "MiB", "setup_s": "s"}


class SetupError(RuntimeError):
    """Set-up could not produce trustworthy inputs; no result is printed."""


def _require_checkout() -> None:
    for needed in ("src/ocbcheck/cli.py", "tests/oracle.py", "demo/order-process.ocbc.json"):
        if not (ROOT / needed).is_file():
            raise SetupError(f"{needed} not found: run from a full checkout of the repository")
    for path in (SRC, ROOT / "tests", BENCH):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def child_env(hash_seed: int) -> dict[str, str]:
    """Inherited environment with src prepended to PYTHONPATH, never replacing
    it.  Children may write bytecode caches, as a user's runs do, so the
    warm-up builds them and no timed operation compiles."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


@dataclass
class Sample:
    wall_s: float
    exit_code: int
    peak_rss_mib: float
    cal_s: float = CAL_NOMINAL_S  # reference work timed just before the operation

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference speed of the machine."""
        return self.wall_s * CAL_NOMINAL_S / self.cal_s


def spawn(argv: list[str], stdout: Path, stderr: Path, hash_seed: int) -> Sample:
    """Run one child with stdout and stderr in files; reap it with os.wait4."""
    with open(os.devnull, "rb") as stdin, open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, stdin.fileno(), 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        started = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, child_env(hash_seed), file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
    return Sample(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)


@dataclass
class Target:
    """One input size of a workload: the command, its output and what it must show."""

    label: str  # "N" or "2N"
    events: int
    argv: list[str]
    output: Path  # report (check) or log (generate) the child writes
    stdout: Path
    stderr: Path
    expect: Input | None = None  # planted expectation of a check workload
    reference: bytes | None = None  # first output; later ones must be identical
    samples: list[Sample] = field(default_factory=list)

    def verify(self, sample: Sample) -> str | None:
        """Return why the operation failed, or None when its output is right."""
        try:
            data = self.output.read_bytes()
        except OSError as exc:
            return f"no output: {exc}"
        if self.expect is not None:
            problem = _check_report(data, sample.exit_code, self.expect)
        else:
            problem = _check_generated(data, sample.exit_code, self.events)
        if problem is None and self.reference is not None and data != self.reference:
            problem = "output bytes differ from the first operation on this input"
        if self.reference is None:
            self.reference = data
        return problem


def _check_report(data: bytes, exit_code: int, expect: Input) -> str | None:
    if exit_code != expect.exit_code:
        return f"exit code {exit_code}, expected {expect.exit_code}"
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if doc.get("conforms") != expect.conforms:
        return f"conforms={doc.get('conforms')}, expected {expect.conforms}"
    if doc.get("summary") != expect.summary:
        return f"summary {doc.get('summary')}, expected {expect.summary}"
    return None


def _check_generated(data: bytes, exit_code: int, events: int) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    count = sum(1 for line in data.splitlines() if line.strip() and not line.startswith(b'{"init"'))
    if not events <= count <= events * 11 // 10:
        return f"{count} events generated, expected {events}..{events * 11 // 10}"
    return None


class Runner:
    """Runs, verifies and tallies operations; hands out distinct hash seeds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._hash_seed = 0

    def run(self, target: Target, keep: bool = True, cal_s: float = CAL_NOMINAL_S) -> Sample:
        self._hash_seed += 1
        sample = spawn(target.argv, target.stdout, target.stderr, self._hash_seed)
        sample.cal_s = cal_s
        self.attempted += 1
        problem = target.verify(sample)
        if problem is not None:
            self.failures.append(f"{target.label}: {problem}")
        if keep:
            target.samples.append(sample)
        return sample

    def tally(self, ok: bool, what: str) -> None:
        """Count one in-process operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def crosscheck(workload: str, seed: int, events: int = CROSSCHECK_EVENTS) -> None:
    """Planted expectation = tests/oracle.naive_check = check_violations on a
    small instance from the same generator and seed; raise SetupError if not."""
    from ocbcheck import check_violations, load_log, load_model
    from ocbcheck.violations import sort_violations
    from oracle import naive_check

    planted = GENERATORS[workload](events, input_rng(workload, seed, events))
    model = load_model((ROOT / MODELS[workload]).read_bytes())
    log = load_log(planted.log)
    engine = check_violations(model, log)
    oracle = sort_violations(naive_check(model, log))
    if engine != oracle:
        raise SetupError(f"{workload} seed {seed}: check_violations disagrees with the oracle")
    counts = dict.fromkeys(planted.summary, 0)
    counts.update(Counter(v.kind for v in engine))
    if counts != planted.summary:
        raise SetupError(
            f"{workload} seed {seed}: planted {planted.summary}, engine and oracle found {counts}"
        )


def input_rng(workload: str, seed: int, events: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{events}")


def make_targets(workload: str, seed: int, work: Path) -> list[Target]:
    """Write the N and 2N inputs and return the command for each size."""
    base = [sys.executable, "-m", "ocbcheck.cli"]
    targets = []
    for label, events in (("N", SIZES[workload]), ("2N", 2 * SIZES[workload])):
        stdout, stderr = work / f"{label}.stdout", work / f"{label}.stderr"
        if workload == "generate":
            argv = base + ["generate", str(ROOT / GENERATE_MODEL), "--events", str(events), "--seed", str(seed)]
            targets.append(Target(label, events, argv, stdout, stdout, stderr))
            continue
        planted = GENERATORS[workload](events, input_rng(workload, seed, events))
        log = work / f"{label}.oclog.jsonl"
        log.write_bytes(planted.log)
        report = work / f"{label}.report.json"
        argv = base + ["check", str(ROOT / MODELS[workload]), str(log), "--format", "json", "--out", str(report)]
        targets.append(Target(label, planted.events, argv, report, stdout, stderr, planted))
    return targets


def setup(workload: str, seed: int, work: Path, runner: Runner) -> list[Target]:
    """Inputs for both sizes, the oracle cross-check and one discarded warm-up."""
    work.mkdir(parents=True, exist_ok=True)
    targets = make_targets(workload, seed, work)
    if workload != "generate":
        crosscheck(workload, seed)
    runner.run(targets[0], keep=False)
    return targets


def timed_loop(targets: list[Target], runner: Runner, seconds: float) -> list[dict]:
    """Alternate N and 2N operations, flipping the order each round, until
    the time is up (at least one round).  The reference work is timed just
    before each operation; return each round's wall and reference times."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        row = {}
        for target in targets if len(rounds) % 2 == 0 else targets[::-1]:
            sample = runner.run(target, cal_s=calibrate.timed())
            row[target.label], row[f"cal_{target.label}"] = sample.wall_s, sample.cal_s
        rounds.append(row)
        if time.perf_counter() >= deadline:
            return rounds


def describe(values: list[float]) -> str:
    """Sample count, median and quartiles, and the highest percentile with at
    least ten samples beyond it when there are enough samples."""
    n = len(values)
    text = f"n={n} median={statistics.median(values):.6f}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.6f} q3={q3:.6f}"
    if n > 10:
        pct = (n - 10) * 100 // n
        cut = statistics.quantiles(values, n=100)[pct - 1] if pct >= 1 else min(values)
        text += f" p{pct}={cut:.6f}"
    return text


def verify_generated_log(target: Target, runner: Runner) -> None:
    """Outside timing: the generated 2N log must load and check as conforming."""
    from ocbcheck import check_all, load_log, load_model

    model = load_model((ROOT / GENERATE_MODEL).read_bytes())
    ok = target.reference is not None and check_all(model, load_log(target.reference)).conforms
    runner.tally(ok, f"{target.label}: generated log does not check as conforming")


def end_to_end(workload: str, seed: int, seconds: float, work: Path, runner: Runner) -> dict[str, float]:
    setups = []
    for repeat in range(SETUP_REPEATS):
        cal_s = calibrate.timed()
        started = time.perf_counter()
        targets = setup(workload, seed, work / f"setup{repeat}", runner)
        setups.append((time.perf_counter() - started) * CAL_NOMINAL_S / cal_s)
    rounds = timed_loop(targets, runner, seconds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"rounds-{workload}-seed{seed}.json").write_text(json.dumps(rounds))
    if workload == "generate":
        verify_generated_log(targets[1], runner)
    small, large = (statistics.median(s.wall_s for s in t.samples) for t in targets)
    for target in targets:
        where = f"{workload} {target.label} ({target.events} events)"
        print(f"# {where} raw wall_s {describe([s.wall_s for s in target.samples])}")
        print(f"# {where} scaled wall_s {describe([s.scaled_s for s in target.samples])}")
    print(f"# {workload} scaled setup_s {describe(setups)}")
    return {
        "wall_s": statistics.median(s.scaled_s for s in targets[1].samples),
        "scale_2x": large / small,
        "peak_rss_mib": statistics.median(s.peak_rss_mib for s in targets[1].samples),
        "setup_s": statistics.median(setups),
    }


def traced(workload: str, seed: int, work: Path, runner: Runner) -> tuple[dict, dict[str, float]]:
    import layers

    started = time.perf_counter()
    targets = setup(workload, seed, work, runner)
    for target in targets:
        runner.run(target)
    print(f"# {workload} traced-run setup {time.perf_counter() - started:.3f}s")
    return layers.run(workload, seed, targets, work, runner, ROOT / GENERATE_MODEL, OUT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _require_checkout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_work"))
    runner = Runner()
    try:
        if args.trace:
            units, metrics = traced(args.workload, args.seed, work, runner)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, work, runner)
            units = UNITS
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in runner.failures:
        print(f"# FAILED {args.workload}: {failure}")
    print(f"# {args.workload} fail_rate {len(runner.failures)}/{runner.attempted}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
