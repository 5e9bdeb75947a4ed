"""Every module-level private name of the package is read somewhere in it.
A helper, class or constant (`_x`) that no code reads any more still loads
and passes every other test, so this test reads each `src/ocbcheck/*.py`
and looks for a read of each such name outside its own definition: a
function that only calls itself is as dead as one that nothing calls."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ocbcheck"


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [name.id for target in targets if target for name in ast.walk(target) if isinstance(name, ast.Name)]


def test_every_private_module_level_name_is_read():
    private, reads = [], []  # (where, name, statement), and the names each top-level statement reads
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            private += [
                (f"{path.name}:{node.lineno}", name, len(reads))
                for name in _defined(node)
                if name.startswith("_") and not name.startswith("__")
            ]
            reads.append({
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            })
    unread = [
        f"{where}: {name}" for where, name, own in private
        if not any(name in read for index, read in enumerate(reads) if index != own)
    ]
    assert len(private) > 50  # the modules were found and parsed
    assert unread == []
