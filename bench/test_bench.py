"""Tests of the benchmark's own input generators and operation checks.

Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import run  # noqa: E402
from inputs import GENERATORS, KINDS, hub_log  # noqa: E402


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_planted_expectation_equals_oracle_and_engine(workload, seed):
    run.crosscheck(workload, seed)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_inputs_depend_only_on_the_seed(workload):
    def log(seed):
        return GENERATORS[workload](500, run.input_rng(workload, seed, 500)).log

    assert log(3) == log(3)
    assert log(3) != log(4)


def test_hub_noise_grows_linearly():
    small = hub_log(2000, run.input_rng("hub-noisy", 1, 2000)).summary
    large = hub_log(4000, run.input_rng("hub-noisy", 1, 4000)).summary
    for kind in ("IV", "VII", "IX"):
        assert large[kind] == 2 * small[kind] > 0
    assert 1.9 < large["I"] / small["I"] < 2.1
    assert large["II"] == small["II"]


def _target(tmp_path: Path, expect) -> run.Target:
    out = tmp_path / "out.json"
    return run.Target("N", 10, ["true"], out, tmp_path / "stdout", tmp_path / "stderr", expect)


def _report(summary: dict, conforms: bool) -> bytes:
    return json.dumps({"conforms": conforms, "summary": summary}).encode()


def test_verify_rejects_wrong_exit_code_summary_and_changed_bytes(tmp_path):
    planted = hub_log(40, run.input_rng("hub-noisy", 1, 40))
    target = _target(tmp_path, planted)
    target.output.write_bytes(_report(planted.summary, False))
    assert target.verify(run.Sample(1.0, 1, 10.0)) is None
    assert "exit code" in target.verify(run.Sample(1.0, 0, 10.0))
    wrong = dict(planted.summary, IV=planted.summary["IV"] + 1)
    target.output.write_bytes(_report(wrong, False))
    assert "summary" in target.verify(run.Sample(1.0, 1, 10.0))
    target.output.write_bytes(_report(planted.summary, False) + b" ")
    assert "differ" in target.verify(run.Sample(1.0, 1, 10.0))


def test_verify_checks_generated_event_count(tmp_path):
    target = _target(tmp_path, None)
    target.output.write_bytes(b'{"init": {}}\n' + b"{}\n" * 10)
    assert target.verify(run.Sample(1.0, 0, 10.0)) is None
    target.output.write_bytes(b"{}\n" * 9)
    assert "events generated" in target.verify(run.Sample(1.0, 0, 10.0))


def test_child_env_prepends_src_to_inherited_pythonpath(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run.child_env(7)
    assert env["PYTHONPATH"].split(":") == [str(run.SRC), "/elsewhere"]
    assert env["PYTHONHASHSEED"] == "7"
    assert "PYTHONDONTWRITEBYTECODE" not in env


def test_spawn_reports_exit_code_and_peak_rss(tmp_path):
    argv = [sys.executable, "-c", "import sys; print('x'); sys.exit(3)"]
    sample = run.spawn(argv, tmp_path / "out", tmp_path / "err", 1)
    assert sample.exit_code == 3
    assert sample.peak_rss_mib > 1
    assert (tmp_path / "out").read_text() == "x\n"


def test_summary_names_every_kind():
    assert tuple(hub_log(40, run.input_rng("hub-noisy", 2, 40)).summary) == KINDS
