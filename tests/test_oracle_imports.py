"""`tests/oracle.py` is the yardstick the engine is measured against, so it
must not lean on the engine.  This test reads its source: it may import only
record and model types from the package, read only a log's `events` and
`init`, and read no private attribute of anything."""

from __future__ import annotations

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parent / "oracle.py"
RECORD_AND_MODEL_TYPES = {"EventLog", "ObjectModel", "OcbcModel", "Violation"}


def _tree():
    return ast.parse(ORACLE.read_text(), filename=str(ORACLE))


def test_the_oracle_imports_only_record_and_model_types_from_the_package():
    imported = set()
    for node in ast.walk(_tree()):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "ocbcheck" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ocbcheck":
            assert node.module == "ocbcheck", node.module
            imported |= {alias.name for alias in node.names}
    assert imported and imported <= RECORD_AND_MODEL_TYPES, imported


def test_the_oracle_reads_only_the_events_and_initial_model_of_a_log():
    attributes = [node for node in ast.walk(_tree()) if isinstance(node, ast.Attribute)]
    read_from_log = {node.attr for node in attributes if isinstance(node.value, ast.Name) and node.value.id == "log"}
    assert read_from_log == {"events", "init"}
    assert [node.attr for node in attributes if node.attr.startswith("_")] == []
