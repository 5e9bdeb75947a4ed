"""ROADMAP's line gate: the package source stays at most 3420 lines, counted
as ``wc -l src/ocbcheck/*.py`` counts them (newline characters)."""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ocbcheck"
MAX_LINES = 3420


def test_package_source_stays_under_the_line_gate():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    lines = sum(counts.values())
    assert lines > 1000  # the files were found
    each = ", ".join(f"{name} {count}" for name, count in counts.items())
    assert lines <= MAX_LINES, f"src/ocbcheck/*.py is {lines} lines, over the gate of {MAX_LINES}: {each}"
