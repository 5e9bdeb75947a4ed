"""The scenario builders give the same data in every process: none of them
depends on the hash seed, so a failure seen once comes back on the next run."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from ocbcheck import save_log, save_model
from scenarios import (
    class_flip_log,
    class_flip_model,
    crowd_log,
    crowd_model,
    customer_pairs_log,
    desk_hubs_log,
    desk_model,
    desk_pairs_log,
    desk_trios_log,
    fan_in_family,
    fan_in_model,
    hiring_log,
    hiring_model,
    hub_order_log,
    named_and_random_pairs,
    open_after_work_model,
    order_class_snapshot_model,
    order_object_model,
    order_process_log,
    order_process_model,
    persistent_breach_log,
    precedence_log,
    precedence_model,
    random_case_scenario,
    random_log,
    random_model,
    relationship_hub_log,
    relink_log,
    relink_model,
    throughput_model,
    ticket_log,
    ticket_model,
)

TESTS = Path(__file__).resolve().parent

# `save_log(relink_log(300))`.
RELINK_300_SHA256 = "576ee38ffaaf36fa0a8a90d352bb87b68430478d0b896549d55d11271a14f90e"


def scenario_digest() -> str:
    """One digest of the `save_model` and `save_log` bytes of every builder."""
    models = [
        order_process_model(), order_class_snapshot_model(), hiring_model(), ticket_model(),
        precedence_model(), open_after_work_model(), throughput_model(), desk_model(),
        fan_in_model("r"), fan_in_model("desk"), crowd_model(4), class_flip_model(), relink_model(),
    ]
    logs = [
        order_process_log(), order_object_model()[1], hiring_log("conforming"), hiring_log("apply-before-open"),
        ticket_log(), precedence_log(), persistent_breach_log(300), relationship_hub_log(50),
        desk_hubs_log(50), desk_pairs_log(50), customer_pairs_log(50), desk_trios_log(50), hub_order_log(50),
        crowd_log(200, 4, 5), class_flip_log(200), relink_log(300),
    ]
    pairs = named_and_random_pairs() + [fan_in_family(seed, via) for seed in range(12) for via in ("desk", "r")]
    for seed in range(200):
        rng = random.Random(seed)
        model = random_model(rng)
        pairs += [(model, random_log(rng, model)), random_case_scenario(rng)[:2]]
    digest = hashlib.sha256()
    for model in models + [model for model, _ in pairs]:
        digest.update(save_model(model))
    for log in logs + [log for _, log in pairs]:
        digest.update(save_log(log))
    return digest.hexdigest()


def test_scenario_data_does_not_depend_on_the_hash_seed():
    """Two fresh processes under different hash seeds, and this one, build
    the same bytes."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    digests = {scenario_digest()}
    for hash_seed in ("0", "5"):
        result = subprocess.run(
            [sys.executable, "-c", "import test_scenarios; print(test_scenarios.scenario_digest())"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout.strip())
    assert len(digests) == 1, digests


def test_the_relink_log_is_pinned():
    """Its snapshots keep relations drawn in sorted order, not set order."""
    assert hashlib.sha256(save_log(relink_log(300))).hexdigest() == RELINK_300_SHA256
