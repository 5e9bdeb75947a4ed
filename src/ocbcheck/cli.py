"""Command line front end: validate models, check conformance, generate fixtures.

Exit codes: 0 success/conforming (warnings allowed in --prefix mode),
1 violations or model defects, 2 unusable input or a failed read or write.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .conformance import check_all
from .formats import FormatError, ModelDefectsError, load_log, load_model, report_chunks, save_log
from .report import render_text
from .violations import KINDS


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _write(chunks: Iterable[bytes]) -> None:
    """Write the chunks to stdout as they are, whatever its text encoding,
    each as it is taken.  The flush makes a failed write fail here, where
    `main` reports it; stdout is then pointed at the null device, so the
    flush at exit has nothing to fail on."""
    if sys.stdout is None:  # fd 1 was closed at start-up
        raise OSError("stdout is closed")
    try:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _kind(text: str) -> str:
    kind = text.strip()
    if kind not in KINDS:
        raise argparse.ArgumentTypeError(f"unknown problem type {kind!r} (choose from {', '.join(KINDS)})")
    return kind


def _parse_kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(dict.fromkeys(_kind(part) for part in text.split(",") if part.strip()))
    if not kinds:
        raise argparse.ArgumentTypeError("no problem type selected")
    return kinds


def _parse_injection(text: str) -> tuple[str, int]:
    kind, x, times = text.partition("x")
    kind = _kind(kind)
    count = times.strip() if x else "1"
    if not count.isdecimal() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"injection count {times!r} is not a positive integer")
    return kind, int(count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocbcheck",
        description="Conformance checking of object-centric event logs against OCBC models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check a log against a model")
    check.add_argument("model", help="model document (.ocbc.json)")
    check.add_argument("log", help="event log (.oclog.jsonl), or - for stdin")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--prefix",
        action="store_true",
        help="treat the log as a running prefix: eventual violations become warnings",
    )
    check.add_argument(
        "--types",
        type=_parse_kinds,
        default=None,
        metavar="KINDS",
        help="comma-separated subset of problem types to check (e.g. VII,IX)",
    )
    check.add_argument("--out", default=None, help="write the report here instead of stdout")

    validate = sub.add_parser("validate-model", help="report model well-formedness defects")
    validate.add_argument("model", help="model document (.ocbc.json)")

    generate = sub.add_parser("generate", help="generate a conforming log for a model")
    generate.add_argument("model", help="model document (.ocbc.json)")
    generate.add_argument("--events", type=int, default=20, help="target event count")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--inject",
        type=_parse_injection,
        default=None,
        metavar="KIND[xN]",
        help="afterwards inject N violations of the given problem type (e.g. IX or VIIx2)",
    )
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    model = load_model(_read(args.model))
    log = load_log(_read(args.log))
    for warning in log.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = check_all(model, log, kinds=args.types, prefix=args.prefix)
    del log  # the report holds all that is rendered; the text format, rendered whole, needs the room
    if args.format == "json":
        chunks = report_chunks(report)  # each batch is laid out as the destination takes it
    else:
        # A log may hold a lone surrogate escape, which UTF-8 cannot encode.
        chunks = [render_text(report).encode(errors="backslashreplace")]
    if args.out:
        with open(args.out, "wb") as out:
            out.writelines(chunks)
    else:
        _write(chunks)
    return 0 if report.conforms else 1


def _cmd_validate_model(args: argparse.Namespace) -> int:
    try:
        model = load_model(_read(args.model))
    except ModelDefectsError as exc:
        _write([f"defect {defect}\n".encode(errors="backslashreplace") for defect in exc.defects])
        return 1
    _write([
        f"model OK: {len(model.bcm.activities)} activities, "
        f"{len(model.clam.classes)} classes, {len(model.clam.rel_types)} relationships, "
        f"{len(model.bcm.constraints)} constraints\n".encode()
    ])
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .generator import GenerationError, InjectionError, generate_conforming, inject_violation

    model = load_model(_read(args.model))
    try:
        log = generate_conforming(model, events=args.events, seed=args.seed)
        if args.inject:
            kind, times = args.inject
            for i in range(times):
                log, outcome = inject_violation(model, log, kind, seed=args.seed + i)
                print(f"injected {kind}: {outcome.description}", file=sys.stderr)
    except (GenerationError, InjectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write([save_log(log)])
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "validate-model": _cmd_validate_model,
        "generate": _cmd_generate,
    }
    # A command's objects form no reference cycles: reference counting frees
    # them when the handler returns, so the cyclic collector would only rescan them.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


def run() -> None:
    """The command's entry point: `main`, a flush, and an exit without
    interpreter teardown (an exception, `SystemExit` too, leaves normally)."""
    code = main()
    try:
        if sys.stdout is not None:  # None when the fd was closed at start-up
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
