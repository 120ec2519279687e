"""Structured report documents: versioned, JSON-round-trippable, deterministic.

Every CLI invocation emits a single document that embeds the schema version,
the full input matrix, the defaults and the parameter values the run used,
so a report is auditable and reproducible on its own.

The result types own the schema: `to_doc` turns a result dataclass into the
dict of its fields, recursively, so a new report field is a new field of the
result type.  Outcome types carry a tag from TAGS; the only other departures
from the fields are in `_fields`.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum

import numpy as np

from .copositivity import ConstantSolutionCertificate
from .forms import ConeVector
from .mu_search import MuCertificate, MuSearchFailure, MuSearchInconclusive, MuViolation
from .neumann import NeumannSolution, SolveInconclusive, TrivialOnly
from .solvability import SolvabilityVerdict, SufficientConditionCertificate

SCHEMA_VERSION = "coposolve-report/2"

# (key, tag) that names each outcome type in its document.
TAGS = {
    MuCertificate: ("type", "certificate"),
    MuViolation: ("type", "violation"),
    MuSearchFailure: ("type", "failure"),
    MuSearchInconclusive: ("type", "inconclusive"),
    ConstantSolutionCertificate: ("type", "constant_solution"),
    SufficientConditionCertificate: ("type", "row_dominance"),
    NeumannSolution: ("outcome", "solution"),
    TrivialOnly: ("outcome", "trivial_only"),
    SolveInconclusive: ("outcome", "inconclusive"),
}


def _fields(value) -> dict:
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, SolvabilityVerdict):
        if value.audit is None:
            del fields["audit"]
        if isinstance(value.certificate, ConeVector):
            fields["certificate"] = {"type": "cone_witness", "point": value.certificate}
    elif isinstance(value, NeumannSolution):
        # The field goes to the CSV dump, not into the report.
        del fields["field"]
        fields["energy_report"] = fields.pop("report")
    return fields


def to_doc(value):
    """JSON document of a result: dataclasses by field, cone vectors as lists,
    enums by value, tuples as lists, numpy scalars as Python scalars."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, ConeVector):
        return value.components.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        key, tag = TAGS.get(type(value), (None, None))
        doc = {key: tag} if key else {}
        return doc | {k: to_doc(v) for k, v in _fields(value).items()}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, tuple):
        return [to_doc(v) for v in value]
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"no report document for {type(value).__name__}")


def build_report(command: str, matrix_doc: dict | None, defaults: dict, effective: dict,
                 result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": matrix_doc,
        "defaults": defaults,
        "effective": effective,
        "result": result,
    }


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"

