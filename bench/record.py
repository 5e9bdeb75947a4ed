#!/usr/bin/env python3
"""Record a baseline: every workload, end to end and traced, into one file.

Run from the repository root:

    python3 bench/record.py --seed 1 --seconds 20 --out bench/baseline.json

For each workload it runs ``bench/run.py`` with ``--trace 0`` and with
``--trace 1`` and keeps the result lines, the detail lines (sample counts
and quartiles) and, from the traced run, the self time per span name of the
operations on the 2N input.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tickets", "orders", "hub-noisy", "generate")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), [line[2:] for line in lines if line.startswith("# ")]


def _self_times(workload: str, seed: int) -> dict[str, float]:
    trace = json.loads((ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json").read_text())
    totals: dict[str, float] = {}
    for span in trace["spans"]:
        if span["op"].endswith("-2N"):
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["self"]
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "baseline.json")
    args = parser.parse_args()

    record = {
        "machine": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        end_to_end, detail = _run(workload, args.seed, args.seconds, 0)
        per_layer, trace_detail = _run(workload, args.seed, args.seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "detail": detail + trace_detail,
            "per_layer": per_layer,
            "self_s_2N": _self_times(workload, args.seed),
        }
        print(f"{workload}: done", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
