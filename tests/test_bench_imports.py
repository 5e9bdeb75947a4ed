"""The benchmark harness under `bench/` imports names from the package.  A
name that the package drops would fail only a traced benchmark run, so this
test reads every `from ocbcheck... import ...` there and resolves it."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "ocbcheck":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_name_the_benchmark_imports_from_the_package_resolves():
    imports = list(_package_imports())
    unresolved = [
        (file, module, name) for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert unresolved == []
    names = {name for _, _, name in imports}
    # The harness's imports at the time of writing, so a parse that finds none fails.
    assert {"check_type_i", "check_type_ix", "aggregate", "sort_violations", "check_all"} <= names
