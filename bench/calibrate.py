"""Fixed reference work that tracks how fast the machine runs right now.

On a shared host the same operation can take 1.6x longer for minutes at a
time.  The benchmark times this work just before each operation and scales
the operation's wall time by it (see run.py).  It imports nothing from
ocbcheck, so no change to the program can move it, and it mixes the
program's two kinds of work: JSON lines parsed into dicts and sets, and
large sets materialised from dict keys.  Run directly, it prints twenty
timings of the work, which is how CAL_NOMINAL_S in run.py was chosen.
"""

from __future__ import annotations

import json
import random
import time


def work() -> None:
    rng = random.Random(0)
    lines = [
        json.dumps({"id": f"e{i}", "objects": [f"o{rng.randrange(2000)}" for _ in range(2)], "seq": i})
        for i in range(8000)
    ]
    index: dict[str, set[int]] = {}
    for line in lines:
        event = json.loads(line)
        for obj in event["objects"]:
            index.setdefault(obj, set()).add(event["seq"])
    keys = dict.fromkeys(f"k{i}" for i in range(20_000))
    for i in range(60):
        frozenset(("k1", f"x{i}")) - keys.keys()


def timed() -> float:
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


if __name__ == "__main__":
    print(sorted(timed() for _ in range(20)))
