from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from ocbcheck import (
    GenerationError,
    InjectionError,
    check_all,
    generate_conforming,
    inject_violation,
    load_log,
    load_model,
    load_report,
    render_text,
    save_log,
    save_model,
    save_report,
)
from ocbcheck import cli
from ocbcheck.cli import main
from ocbcheck.eventlog import MAX_SEQ
from ocbcheck.violations import KINDS
from scenarios import (
    desk_model,
    named_and_random_pairs,
    open_after_work_model,
    order_process_log,
    order_process_model,
    persistent_breach_log,
    precedence_log,
    precedence_model,
    ticket_log,
    ticket_model,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"


@pytest.fixture
def workspace(tmp_path):
    paths = {}
    for name, model, log in (
        ("order", order_process_model(), order_process_log()),
        ("tickets", ticket_model(), ticket_log()),
        ("precedence", precedence_model(), precedence_log()),
    ):
        model_path = tmp_path / f"{name}.ocbc.json"
        log_path = tmp_path / f"{name}.oclog.jsonl"
        model_path.write_bytes(save_model(model))
        log_path.write_bytes(save_log(log))
        paths[name] = (str(model_path), str(log_path))
    return tmp_path, paths


def test_check_conforming_exits_zero(workspace, capsys):
    _, paths = workspace
    model, log = paths["order"]
    assert main(["check", model, log]) == 0
    out = capsys.readouterr().out
    assert out.startswith("CONFORMS: yes")


def test_check_violations_exit_one(workspace, capsys):
    _, paths = workspace
    model, log = paths["precedence"]
    assert main(["check", model, log]) == 1
    out = capsys.readouterr().out
    assert "CONFORMS: no" in out
    assert out.count("[IX]") == 2


def test_check_json_format_validates_against_report_schema(workspace, capsys):
    _, paths = workspace
    model, log = paths["tickets"]
    assert main(["check", model, log, "--format", "json"]) == 1
    report = load_report(capsys.readouterr().out)
    assert [v.kind for v in report.violations] == ["VII", "VII", "VIII"]


def test_check_type_filter(workspace):
    _, paths = workspace
    model, log = paths["tickets"]
    assert main(["check", model, log, "--types", "IX"]) == 0
    assert main(["check", model, log, "--types", "VII,VIII"]) == 1


def test_check_prefix_mode_downgrades(workspace, tmp_path):
    _, paths = workspace
    model, _ = paths["order"]
    truncated = load_log(save_log(order_process_log())).events[:7]
    from ocbcheck import EventLog

    prefix_log = EventLog(init=order_process_log().init, events=truncated)
    path = tmp_path / "prefix.oclog.jsonl"
    path.write_bytes(save_log(prefix_log))
    assert main(["check", model, str(path)]) == 1
    assert main(["check", model, str(path), "--prefix"]) == 0


def test_check_reads_log_from_stdin(workspace, capsys, monkeypatch):
    import io
    import sys

    _, paths = workspace
    model, _ = paths["precedence"]
    data = save_log(precedence_log())
    monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": io.BytesIO(data)})())
    assert main(["check", model, "-"]) == 1


def test_check_output_file(workspace, tmp_path):
    _, paths = workspace
    model, log = paths["tickets"]
    out = tmp_path / "result.report.json"
    assert main(["check", model, log, "--format", "json", "--out", str(out)]) == 1
    assert json.loads(out.read_bytes())["conforms"] is False


def test_check_unreadable_input_exits_two(workspace, capsys):
    _, paths = workspace
    model, _ = paths["order"]
    assert main(["check", model, "/nonexistent.oclog.jsonl"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_unwritable_output_exits_two(workspace, tmp_path, capsys):
    _, paths = workspace
    model, log = paths["order"]
    out = tmp_path / "missing-dir" / "result.report.json"
    assert main(["check", model, log, "--format", "json", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_check_reports_log_warnings_on_stderr(workspace, tmp_path, capsys):
    _, paths = workspace
    model, _ = paths["tickets"]
    path = tmp_path / "dangling.oclog.jsonl"
    path.write_text('{"id": "p1", "seq": 1, "activity": "pay", "objects": ["nobody"]}\n')
    main(["check", model, str(path)])
    assert "does not exist in its snapshot" in capsys.readouterr().err


def test_validate_model_ok(workspace, capsys):
    _, paths = workspace
    model, _ = paths["order"]
    assert main(["validate-model", model]) == 0
    out = capsys.readouterr().out
    assert "model OK" in out and "9 constraints" in out


def test_validate_model_defects(tmp_path, capsys):
    doc = {
        "activities": ["a"],
        "classes": ["k"],
        "aoc": [{"activity": "a", "class": "k", "card_act_always": "0",
                 "card_act_eventually": "1"}],
        "constraints": [],
    }
    path = tmp_path / "bad.ocbc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate-model", str(path)]) == 1
    assert "eventually-not-subset" in capsys.readouterr().out


def test_validate_model_unreadable(capsys):
    assert main(["validate-model", "/nonexistent.ocbc.json"]) == 2


def test_generate_round_trips_through_check(workspace, tmp_path, capsys):
    _, paths = workspace
    model, _ = paths["order"]
    assert main(["generate", model, "--events", "18", "--seed", "5"]) == 0
    generated = capsys.readouterr().out
    path = tmp_path / "generated.oclog.jsonl"
    path.write_text(generated)
    assert main(["check", model, str(path)]) == 0


def test_generate_with_injection(workspace, tmp_path, capsys):
    _, paths = workspace
    model, _ = paths["order"]
    assert main(["generate", model, "--events", "16", "--seed", "5", "--inject", "IX"]) == 0
    captured = capsys.readouterr()
    assert "injected IX" in captured.err
    path = tmp_path / "mutated.oclog.jsonl"
    path.write_text(captured.out)
    assert main(["check", model, str(path)]) == 1


def test_generate_with_repeated_injection(workspace, capsys):
    _, paths = workspace
    model, _ = paths["order"]
    assert main(["generate", model, "--events", "16", "--inject", "IVx2"]) == 0
    assert capsys.readouterr().err.count("injected IV") == 2


@pytest.mark.parametrize("count", ["abc", "0", "-2", "2.5", ""])
def test_injection_count_must_be_a_positive_integer(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", str(DEMO / "order-process.ocbc.json"), "--inject", f"IXx{count}"])
    assert exc.value.code == 2
    assert f"argument --inject: injection count {count!r} is not a positive integer" in capsys.readouterr().err


def test_generate_refuses_a_negative_event_count(capsys):
    model = str(DEMO / "order-process.ocbc.json")
    assert main(["generate", model, "--events", "-5"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: target event count -5 is negative\n")
    assert main(["generate", model, "--events", "0"]) == 0
    assert capsys.readouterr() == ("", "")


def test_generate_refuses_a_model_ordering_an_act_before_the_creating_event(tmp_path, capsys):
    model = tmp_path / "open-after-work.ocbc.json"
    model.write_bytes(save_model(open_after_work_model()))
    assert main(["generate", str(model), "--events", "4", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: class 'case': cyclic ordering between activities ['open', 'work']\n"
    )


def test_generate_refuses_an_event_count_past_the_largest_seq():
    """Events past `MAX_SEQ` could never get a 64-bit seq, so the command
    stops before it starts.  It runs in a child with a timeout, because a
    generator that starts such a run does not come back."""
    import subprocess
    import sys

    events = 10**20
    result = subprocess.run(
        [sys.executable, "-m", "ocbcheck.cli", "generate", str(DEMO / "order-process.ocbc.json"),
         "--events", str(events)],
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == f"error: target event count {events} exceeds the largest seq {MAX_SEQ}\n".encode()
    with pytest.raises(GenerationError, match="exceeds the largest seq"):
        generate_conforming(order_process_model(), events=MAX_SEQ + 1)


def test_bad_types_flag_rejected(workspace, capsys):
    _, paths = workspace
    model, log = paths["order"]
    with pytest.raises(SystemExit):
        main(["check", model, log, "--types", "X"])


@pytest.mark.parametrize("flag, value, kind", [
    ("--types", "I,X", "X"), ("--types", " ix ", "ix"), ("--inject", "Xx2", "X"),
])
def test_an_unknown_kind_is_refused_in_the_library_s_words(flag, value, kind, capsys):
    model, log = (str(DEMO / f"order-process.{ext}") for ext in ("ocbc.json", "oclog.jsonl"))
    command = ["check", model, log] if flag == "--types" else ["generate", model]
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, value])
    with pytest.raises(ValueError) as library:
        check_all(load_model(Path(model).read_bytes()), load_log(Path(log).read_bytes()), (kind,))
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"ocbcheck {command[0]}: error: argument {flag}: unknown problem type {kind!r} "
        "(choose from I, II, III, IV, V, VI, VII, VIII, IX)"
    ) == f"ocbcheck {command[0]}: error: argument {flag}: {library.value}"


def test_repeated_types_are_checked_once(capsys):
    model, log = (str(DEMO / f"unmatched-precedence.{ext}") for ext in ("ocbc.json", "oclog.jsonl"))
    assert main(["check", model, log, "--types", "IX,IX", "--format", "json"]) == 1
    assert [v.event for v in load_report(capsys.readouterr().out).violations] == ["e3", "e6"]


@pytest.mark.parametrize("selection", [",", " , ,", ""])
def test_empty_types_selection_rejected(selection, capsys):
    model, log = (str(DEMO / f"unmatched-precedence.{ext}") for ext in ("ocbc.json", "oclog.jsonl"))
    with pytest.raises(SystemExit) as exc:
        main(["check", model, log, "--types", selection])
    assert exc.value.code == 2
    assert "no problem type selected" in capsys.readouterr().err


def test_prefix_mode_relationship_scoped_ix_is_a_warning(tmp_path, capsys):
    init = {"init": {"objects": [{"id": "x1", "class": "oca"}, {"id": "y1", "class": "ocb"}]}}
    events = [
        {"id": "e1", "seq": 1, "activity": "a1", "objects": ["x1"]},
        {"id": "e2", "seq": 2, "activity": "a2", "objects": ["y1"]},
        {"id": "e3", "seq": 3, "activity": "a1", "objects": ["x1"], "new_relations": [["r", "x1", "y1"]]},
    ]
    model = str(DEMO / "unmatched-precedence.ocbc.json")
    prefix, full = tmp_path / "prefix.oclog.jsonl", tmp_path / "full.oclog.jsonl"
    prefix.write_text("\n".join(json.dumps(line) for line in [init] + events[:2]) + "\n")
    full.write_text("\n".join(json.dumps(line) for line in [init] + events) + "\n")
    assert main(["check", model, str(prefix), "--prefix", "--format", "json"]) == 0
    report = load_report(capsys.readouterr().out)
    assert [(v.kind, v.event) for v in report.warnings] == [("IX", "e2")] and not report.errors
    assert main(["check", model, str(prefix)]) == 1
    assert main(["check", model, str(full), "--prefix"]) == 0
    assert main(["check", model, str(full)]) == 0


def test_generate_is_deterministic_per_seed(workspace, capsys):
    _, paths = workspace
    model, _ = paths["order"]
    main(["generate", model, "--events", "12", "--seed", "8"])
    first = capsys.readouterr().out
    main(["generate", model, "--events", "12", "--seed", "8"])
    assert capsys.readouterr().out == first


def test_check_text_escapes_lone_surrogate(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    # JSON accepts the escape "\ud800", which UTF-8 cannot encode.
    log_path = tmp_path / "surrogate.oclog.jsonl"
    log_path.write_bytes(b'{"id": "e1", "seq": 1, "activity": "\\ud800"}\n')
    model_path = Path(__file__).resolve().parent.parent / "demo" / "order-process.ocbc.json"
    result = subprocess.run(
        [sys.executable, "-m", "ocbcheck.cli", "check", str(model_path), str(log_path), "--format", "text"],
        capture_output=True,
    )
    assert b"Traceback" not in result.stderr, result.stderr.decode(errors="replace")
    assert result.returncode == 1
    assert b"\\ud800" in result.stdout


def test_output_is_utf8_bytes_whatever_the_stdout_encoding(tmp_path):
    """With an ASCII stdout, each command still writes its UTF-8 bytes: the
    check report equals its --out file, and nothing ends in a traceback."""
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONIOENCODING": "ascii"}

    def run(*args):
        result = subprocess.run([sys.executable, "-m", "ocbcheck.cli", *args], capture_output=True, env=env)
        assert b"Traceback" not in result.stderr, result.stderr.decode(errors="replace")
        return result

    log_path = tmp_path / "umlaut.oclog.jsonl"
    log_path.write_bytes('{"id": "e1", "seq": 1, "activity": "zahlung-\u00fc"}\n'.encode())
    model_path = str(DEMO / "order-process.ocbc.json")
    for fmt in ("json", "text"):
        out = tmp_path / f"report.{fmt}"
        assert run("check", model_path, str(log_path), "--format", fmt, "--out", str(out)).returncode == 1
        result = run("check", model_path, str(log_path), "--format", fmt)
        assert result.returncode == 1
        assert result.stdout == out.read_bytes()
    assert "zahlung-\u00fc".encode() in result.stdout  # the text report; JSON escapes it
    # A scope class not linked to its activities is a defect; the lone
    # surrogate escape of the second id cannot be encoded as UTF-8.
    for cid, shown in (("c", "'\u00f6'".encode()), ("\\ud800", b"\\ud800:")):
        bad = tmp_path / "defects.ocbc.json"
        bad.write_text(
            '{"activities": ["\u00f6"], "classes": ["k"], "relationships": [], "aoc": [], "constraints": '
            f'[{{"id": "{cid}", "type": "response", "ref": "\u00f6", "target": "\u00f6", "via": "k"}}]}}',
            encoding="utf-8",
        )
        result = run("validate-model", str(bad))
        assert result.returncode == 1 and result.stdout.startswith(b"defect ") and shown in result.stdout
    good = tmp_path / "umlaut.ocbc.json"
    good.write_bytes((DEMO / "order-process.ocbc.json").read_bytes().replace(b"wrap item", "wrap \u00f6".encode()))
    result = run("validate-model", str(good))
    assert result.returncode == 0 and result.stdout.startswith(b"model OK: 4 activities")
    result = run("generate", str(good), "--events", "20")
    assert result.returncode == 0
    assert result.stdout == save_log(generate_conforming(load_model(good.read_bytes()), events=20, seed=0))


@contextmanager
def _failing_stdout(sink):
    """A file descriptor whose every write fails: /dev/full, or the write
    end of a pipe whose read end is closed."""
    import os

    if sink == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        if os.name != "posix":
            pytest.skip("a closed pipe raises EPIPE only on POSIX")
        read_end, fd = os.pipe()
        os.close(read_end)
    try:
        yield fd
    finally:
        os.close(fd)


def _report_cases(tmp_path):
    """(model file, log file, report) for three check inputs: a persistent
    breach (6,000 type I violations), written in several batches; the demo
    order model's log with one injection of each kind; the conforming demo log."""
    demo = load_model((DEMO / "order-process.ocbc.json").read_bytes())
    mixed = generate_conforming(demo, events=40, seed=7)
    for seed, kind in enumerate(KINDS):
        mixed = inject_violation(demo, mixed, kind, seed=seed)[0]
    conforming = load_log((DEMO / "order-process.oclog.jsonl").read_bytes())
    cases = []
    for name, model, log in (
        ("breach", desk_model(), persistent_breach_log(2000)),
        ("mixed", demo, mixed),
        ("conforming", demo, conforming),
    ):
        model_path, log_path = tmp_path / f"{name}.ocbc.json", tmp_path / f"{name}.oclog.jsonl"
        model_path.write_bytes(save_model(model))
        log_path.write_bytes(save_log(log))
        cases.append((str(model_path), str(log_path), check_all(model, log)))
    return cases


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_check_json_streams_the_bytes_of_save_report(tmp_path, hash_seed):
    """The report written batch by batch, to a file or to stdout, is the one
    `save_report` makes whole."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    (_, _, breach), (_, _, mixed), (_, _, conforming) = cases = _report_cases(tmp_path)
    assert breach.summary["I"] == 6000 and all(mixed.summary.values()) and conforming.conforms
    out = tmp_path / "report.json"
    for model, log, report in cases:
        command = [sys.executable, "-m", "ocbcheck.cli", "check", model, log, "--format", "json"]
        to_stdout = subprocess.run(command, env=env, capture_output=True)
        to_file = subprocess.run([*command, "--out", str(out)], env=env, capture_output=True)
        assert to_stdout.returncode == to_file.returncode == (0 if report.conforms else 1), to_file.stderr
        assert to_stdout.stdout == out.read_bytes() == save_report(report)
        assert to_file.stdout == b""


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_check_text_writes_the_bytes_of_render_text(tmp_path, hash_seed):
    """The text report, to a file or to stdout, is `render_text`'s, whatever
    the order in which sets iterate."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cases = _report_cases(tmp_path)
    out = tmp_path / "report.txt"
    for model, log, report in cases:
        command = [sys.executable, "-m", "ocbcheck.cli", "check", model, log, "--format", "text"]
        to_stdout = subprocess.run(command, env=env, capture_output=True)
        to_file = subprocess.run([*command, "--out", str(out)], env=env, capture_output=True)
        assert to_stdout.returncode == to_file.returncode == (0 if report.conforms else 1), to_file.stderr
        assert to_stdout.stdout == out.read_bytes() == render_text(report).encode(errors="backslashreplace")
        assert to_file.stdout == b""


def test_a_report_file_that_fails_mid_stream_exits_two(tmp_path):
    """The --out file is open before the batches are laid out, so a write
    fails between two batches: one error line, exit 2."""
    import os
    import subprocess
    import sys

    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    model, log, _ = _report_cases(tmp_path)[0]
    result = subprocess.run(
        [sys.executable, "-m", "ocbcheck.cli", "check", model, log, "--format", "json", "--out", "/dev/full"],
        capture_output=True,
    )
    assert result.returncode == 2, result.stderr.decode(errors="replace")
    lines = result.stderr.splitlines()
    assert [line for line in lines if line.startswith(b"error:")] == lines[-1:], result.stderr
    assert lines[-1].startswith(b"error: [Errno "), result.stderr
    assert b"Traceback" not in result.stderr and b"Exception ignored" not in result.stderr
    assert result.stdout == b""


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize(
    "args",
    [
        ("check", "--format", "json"),
        ("check", "--format", "text"),
        ("validate-model",),
        ("generate",),
    ],
    ids=["check-json", "check-text", "validate-model", "generate"],
)
def test_a_failed_stdout_write_exits_two(args, sink, buffered):
    # A buffered stdout keeps a small report (validate-model's one line) until
    # the flush at exit, which must not fail a second time.
    import os
    import subprocess
    import sys

    command, *options = args
    files = [str(DEMO / "order-process.ocbc.json")]
    if command == "check":
        files.append(str(DEMO / "order-process.oclog.jsonl"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with _failing_stdout(sink) as fd:
        result = subprocess.run(
            [sys.executable, "-m", "ocbcheck.cli", command, *files, *options],
            stdout=fd, stderr=subprocess.PIPE, env=env,
        )
    assert result.returncode == 2, result.stderr.decode(errors="replace")
    assert result.stderr.splitlines()[-1].startswith(b"error: [Errno "), result.stderr
    assert b"Traceback" not in result.stderr and b"Exception ignored" not in result.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_command_ends_without_losing_output(tmp_path, buffered):
    """`run` flushes and then leaves by `os._exit`: a generated log smaller
    than stdout's buffer, or larger than a pipe's, reaches the reader whole,
    and a check on a log with missing references prints every warning and
    the whole report."""
    import os
    import subprocess
    import sys

    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ocbcheck.cli", *args], capture_output=True, env=env)

    model_path = DEMO / "order-process.ocbc.json"
    for events, size in ((3, 8 * 1024), (3000, 64 * 1024)):
        expected = save_log(generate_conforming(load_model(model_path.read_bytes()), events=events, seed=0))
        assert (len(expected) < size) == (events == 3)
        result = run("generate", str(model_path), "--events", str(events))
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == expected

    model, log_path = ticket_model(), tmp_path / "dangling.oclog.jsonl"
    log_path.write_text("".join(
        f'{{"id": "p{i}", "seq": {i}, "activity": "pay", "objects": ["nobody{i}"]}}\n' for i in range(1, 1501)
    ))
    model_path = tmp_path / "tickets.ocbc.json"
    model_path.write_bytes(save_model(model))
    log = load_log(log_path.read_bytes())
    assert len(log.warnings) == 1500
    result = run("check", str(model_path), str(log_path))
    assert result.returncode == 1
    assert result.stderr == "".join(f"warning: {w}\n" for w in log.warnings).encode()
    assert result.stdout == render_text(check_all(model, log)).encode()


def test_both_entry_points_call_run():
    """The console script and `python -m ocbcheck.cli` both end through
    `cli.run`; `main` returns its code to an in-process caller."""
    import ast

    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert 'ocbcheck = "ocbcheck.cli:run"' in pyproject.splitlines()
    tree = ast.parse(Path(cli.__file__).read_text())
    [block] = [node.body for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(statement) for statement in block] == ["run()"]


def test_run_reports_a_failed_final_flush(monkeypatch, capsys):
    """When the flush after the command fails, `run` prints `error: ...`
    and exits 2 instead of the command's code."""
    import sys

    class Exited(Exception):
        pass

    class FullStdout:
        def flush(self):
            raise OSError(28, "No space left on device")

    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(cli.os, "_exit", exit_)
    monkeypatch.setattr(sys, "stdout", FullStdout())
    with pytest.raises(Exited) as caught:
        cli.run()
    assert caught.value.args == (2,)
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("args", [("check",), ("check", "m", "l", "--types", "X"), ("nonsense",)])
def test_a_usage_error_exits_two_through_run(args):
    import subprocess
    import sys

    result = subprocess.run([sys.executable, "-m", "ocbcheck.cli", *args], capture_output=True)
    assert result.returncode == 2
    assert result.stderr.startswith(b"usage: ocbcheck") and b"Traceback" not in result.stderr
    assert result.stdout == b""


@pytest.mark.parametrize("args", [
    ("check", str(DEMO / "order-process.ocbc.json"), str(DEMO / "order-process.oclog.jsonl")),
    ("generate", str(DEMO / "order-process.ocbc.json"), "--events", "5"),
    ("validate-model", str(DEMO / "order-process.ocbc.json")),
])
def test_a_command_run_with_stderr_closed_keeps_its_exit_code(args):
    """With fd 2 closed at start-up `sys.stderr` is None; `run` flushes only
    the streams there are, and the command still succeeds."""
    import os
    import subprocess
    import sys

    result = subprocess.run([sys.executable, "-m", "ocbcheck.cli", *args], stdout=subprocess.PIPE,
                            preexec_fn=lambda: os.close(2))
    assert result.returncode == 0
    assert result.stdout and result.stdout.endswith(b"\n")


@pytest.mark.parametrize("args", [
    ("check", str(DEMO / "order-process.ocbc.json"), str(DEMO / "order-process.oclog.jsonl")),
    ("generate", str(DEMO / "order-process.ocbc.json"), "--events", "5"),
    ("validate-model", str(DEMO / "order-process.ocbc.json")),
])
def test_a_command_run_with_stdout_closed_fails_with_an_error_line(args):
    """With fd 1 closed at start-up `sys.stdout` is None: a command that
    writes there reports the failed write and exits 2, without a traceback."""
    import os
    import subprocess
    import sys

    result = subprocess.run([sys.executable, "-m", "ocbcheck.cli", *args], stderr=subprocess.PIPE,
                            preexec_fn=lambda: os.close(1))
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1].startswith(b"error:")
    assert b"Traceback" not in result.stderr


@pytest.mark.parametrize("name, code", [("order-process", 0), ("unmatched-precedence", 1)])
def test_a_check_run_with_stdout_closed_keeps_its_exit_code_with_out(tmp_path, name, code):
    import os
    import subprocess
    import sys

    argv = ["check", str(DEMO / f"{name}.ocbc.json"), str(DEMO / f"{name}.oclog.jsonl"), "--out"]
    result = subprocess.run([sys.executable, "-m", "ocbcheck.cli", *argv, str(tmp_path / "closed.txt")],
                            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert result.returncode == code, result.stderr.decode(errors="replace")
    assert b"Traceback" not in result.stderr
    assert main([*argv, str(tmp_path / "open.txt")]) == code
    assert (tmp_path / "closed.txt").read_bytes() == (tmp_path / "open.txt").read_bytes()


def test_check_does_not_import_the_generator():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ocbcheck.cli", "check",
         str(DEMO / "order-process.ocbc.json"), str(DEMO / "order-process.oclog.jsonl")],
        capture_output=True,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.decode().splitlines()]
    assert "ocbcheck.formats" in imported
    assert "ocbcheck.generator" not in imported


def test_start_up_imports_no_dataclass_machinery():
    """The records are named tuples and plain classes, so neither command
    pulls in `dataclasses` or the `inspect` module it imports.  `-S` keeps
    site-packages' start-up hooks from importing modules of their own."""
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import ocbcheck.cli, ocbcheck.generator; "
        "print(' '.join(sorted(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert {"ocbcheck.cli", "ocbcheck.generator"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_generator_names_load_on_first_use():
    import ocbcheck
    from ocbcheck import generator

    assert ocbcheck.generate_conforming is generator.generate_conforming
    assert ocbcheck.InjectionOutcome is generator.InjectionOutcome
    namespace: dict = {}
    exec("from ocbcheck import *", namespace)
    assert set(ocbcheck.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ocbcheck.nope  # noqa: B018


@contextmanager
def _collections():
    """Record the generation of each cyclic collection that starts inside the block."""
    runs = []

    def record(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield runs
    finally:
        gc.callbacks.remove(record)


def test_commands_run_no_cyclic_collection(tmp_path, capsys):
    assert gc.isenabled()
    model = str(DEMO / "order-process.ocbc.json")
    log = tmp_path / "generated.oclog.jsonl"
    out = str(tmp_path / "result.report.json")
    check = ["check", model, str(log), "--format", "json", "--out", out]
    # A warm-up run makes the first-use imports. Their module objects would
    # otherwise fill the young generation, which the collector then scans
    # once as soon as `main` turns it back on.
    assert main(["generate", model, "--events", "20"]) == 0
    log.write_text(capsys.readouterr().out)
    assert main(check) == 0
    gc.collect()
    with _collections() as generate_runs:
        assert main(["generate", model, "--events", "2000", "--seed", "3"]) == 0
    generated = capsys.readouterr().out
    assert generated.count("\n") > 2000
    log.write_text(generated)
    gc.collect()
    with _collections() as check_runs:
        assert main(check) == 0
    assert (generate_runs, check_runs) == ([], [])
    assert gc.isenabled()


@pytest.mark.parametrize("enabled_before", [True, False])
def test_collector_state_is_restored_after_a_command(
    workspace, tmp_path, monkeypatch, capsys, enabled_before
):
    _, paths = workspace
    model, log = paths["order"]
    bad = tmp_path / "bad.oclog.jsonl"
    bad.write_text("{\n")
    runs = [
        (["check", model, log], 0),
        (["check", *paths["tickets"]], 1),
        (["check", model, str(bad)], 2),
        (["check", model, log, "--out", str(tmp_path / "missing-dir" / "r.json")], 2),
        (["generate", model, "--events", "20"], 0),
    ]
    seen = []

    def fail(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    if not enabled_before:
        gc.disable()
    try:
        for argv, code in runs:
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled_before, argv
        monkeypatch.setattr(cli, "check_all", fail)
        with pytest.raises(RuntimeError, match="handler failed"):
            main(["check", model, log])
        assert seen == [False]
        assert gc.isenabled() is enabled_before
    finally:
        gc.enable()


def _cyclic_garbage(work) -> int:
    """Run `work` once to warm up (first-use imports), then again with the
    collector paused, and count the unreachable objects it left."""
    work()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


def test_check_and_generate_leave_no_cyclic_garbage():
    """`main` pauses the cyclic collector on the premise that a command's
    objects form no reference cycles, so reference counting frees them.
    `save_report` and `save_model` lay out their indented JSON themselves,
    because the json module's pure-Python encoder, which ``indent``
    selects, leaves cycles."""
    pairs = named_and_random_pairs()
    documents = [(save_model(model), save_log(log)) for model, log in pairs]
    reports = []

    def check():
        reports.clear()
        for model_data, log_data in documents:
            model = load_model(model_data)
            for prefix in (False, True):
                report = check_all(model, load_log(log_data), prefix=prefix)
                render_text(report)
                reports.append(report)

    assert _cyclic_garbage(check) == 0
    per_call = _cyclic_garbage(lambda: save_report(check_all(*pairs[0])))
    assert per_call == 0
    assert _cyclic_garbage(lambda: [save_report(r) for r in reports]) == 0

    models = [load_model((DEMO / f"{name}.ocbc.json").read_bytes())
              for name in ("order-process", "unmatched-precedence")]
    assert _cyclic_garbage(lambda: [save_model(model) for model in models]) == 0

    def generate():
        for model in models:
            try:
                log = generate_conforming(model, events=60, seed=1)
            except GenerationError:
                continue
            save_log(log)
            for kind in KINDS:
                try:
                    save_log(inject_violation(model, log, kind, seed=1)[0])
                except InjectionError:
                    pass

    assert _cyclic_garbage(generate) == 0
