"""Every name a package module imports is used in that module.  A name left
behind by a change still loads and passes every other test, so this test
reads each `src/ocbcheck/*.py` but `__init__.py`, whose imports are the
package's re-exports, and compares what it imports with what it reads."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ocbcheck"


def _imported_and_read(path: Path) -> tuple[dict[str, int], set[str]]:
    imported, read = {}, set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported, read


def test_no_package_module_imports_a_name_it_never_uses():
    unused, counted = [], 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, read = _imported_and_read(path)
        counted += len(imported)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]
    assert counted > 50  # the modules were found and parsed
    assert unused == []
