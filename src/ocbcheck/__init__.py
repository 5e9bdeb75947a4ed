"""Conformance checking of object-centric event logs against object-centric
behavioral constraint (OCBC) models."""

from .bc import BcVerdict, evaluate_bc
from .cardinality import (
    Cardinality,
    CardinalityError,
    ConstraintType,
    builtin_constraint_type,
    parse_cardinality,
)
from .conformance import (
    check_all,
    check_type_i,
    check_type_ii,
    check_type_iii,
    check_type_iv,
    check_type_v,
    check_type_vi,
    check_type_vii,
    check_type_viii,
    check_type_ix,
    check_violations,
    resolve_targets,
)
from .eventlog import Event, EventLog, LogError, ObjectDelta, ObjectModel
from .formats import (
    FormatError,
    ModelDefectsError,
    load_log,
    load_model,
    load_report,
    save_log,
    save_model,
    save_report,
)
from .model import (
    ActivityClassLink,
    BcModel,
    BehavioralConstraint,
    ClassModel,
    ModelDefect,
    OcbcModel,
    RelationshipType,
    validate_model,
)
from .report import ConformanceReport, aggregate, render_text
from .violations import KINDS, Violation

__version__ = "0.1.0"

# The generator loads on first use, so `ocbcheck check` never imports it.
_GENERATOR_NAMES = frozenset(
    ("GenerationError", "InjectionError", "InjectionOutcome", "generate_conforming", "inject_violation")
)


def __getattr__(name: str):
    if name in _GENERATOR_NAMES:
        from . import generator

        return getattr(generator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ActivityClassLink",
    "BcModel",
    "BcVerdict",
    "BehavioralConstraint",
    "Cardinality",
    "CardinalityError",
    "ClassModel",
    "ConformanceReport",
    "ConstraintType",
    "Event",
    "EventLog",
    "FormatError",
    "GenerationError",
    "InjectionError",
    "InjectionOutcome",
    "KINDS",
    "LogError",
    "ModelDefect",
    "ModelDefectsError",
    "ObjectDelta",
    "ObjectModel",
    "OcbcModel",
    "RelationshipType",
    "Violation",
    "aggregate",
    "builtin_constraint_type",
    "check_all",
    "check_type_i",
    "check_type_ii",
    "check_type_iii",
    "check_type_iv",
    "check_type_v",
    "check_type_vi",
    "check_type_vii",
    "check_type_viii",
    "check_type_ix",
    "check_violations",
    "evaluate_bc",
    "generate_conforming",
    "inject_violation",
    "load_log",
    "load_model",
    "load_report",
    "parse_cardinality",
    "resolve_targets",
    "save_log",
    "save_model",
    "save_report",
    "validate_model",
]
