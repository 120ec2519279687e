"""Structured report documents: versioned, JSON-round-trippable, deterministic.

Every CLI invocation emits a single document that embeds the schema version,
the full input matrix, the defaults and the parameter values the run used,
so a report is auditable and reproducible on its own.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .copositivity import ClosedFormResult, ConstantSolutionCertificate, CopositivityVerdict, Definiteness
from .forms import ConeVector
from .mu_search import (
    MuCertificate,
    MuSearchFailure,
    MuSearchInconclusive,
    MuViolation,
)
from .neumann import EnergyReport, NeumannSolution, SolveInconclusive, TrivialOnly
from .solvability import SolvabilityVerdict, SufficientConditionCertificate

SCHEMA_VERSION = "coposolve-report/2"


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def cone_vector_doc(v: ConeVector) -> list[float]:
    return _floats(v.components)


def copositivity_doc(verdict: CopositivityVerdict) -> dict:
    return {
        "kind": verdict.kind.value,
        "min_value": float(verdict.min_value),
        "witness": cone_vector_doc(verdict.witness),
        "method": verdict.method,
        "boundary_case": bool(verdict.boundary_case),
    }


def closed_form_doc(result: ClosedFormResult) -> dict:
    return {
        "strict": bool(result.strict),
        "final_expression": None
        if result.final_expression is None
        else float(result.final_expression),
    }


def mu_outcome_doc(outcome) -> dict:
    if isinstance(outcome, MuCertificate):
        return {
            "type": "certificate",
            "mu": cone_vector_doc(outcome.mu),
            "kappa": float(outcome.kappa),
            "min_on_simplex": float(outcome.min_on_simplex),
            "worst_point": cone_vector_doc(outcome.worst_point),
            "verification": asdict(outcome.verification),
        }
    if isinstance(outcome, MuViolation):
        return {
            "type": "violation",
            "point": cone_vector_doc(outcome.point),
            "value": float(outcome.value),
            "verification": asdict(outcome.verification),
        }
    if isinstance(outcome, MuSearchFailure):
        return {
            "type": "failure",
            "adversarial_set": [cone_vector_doc(c) for c in outcome.adversarial_set],
            "best_margin": float(outcome.best_margin),
            "iterations": int(outcome.iterations),
            "final_mu": cone_vector_doc(outcome.final_mu),
        }
    if isinstance(outcome, MuSearchInconclusive):
        return {
            "type": "inconclusive",
            "final_mu": cone_vector_doc(outcome.final_mu),
            "lp_margin": float(outcome.lp_margin),
            "iterations": int(outcome.iterations),
            "last_violation": None
            if outcome.last_violation is None
            else mu_outcome_doc(outcome.last_violation),
        }
    raise TypeError(f"unknown mu outcome {type(outcome)}")


def certificate_doc(cert) -> dict | None:
    if cert is None:
        return None
    if isinstance(cert, ConstantSolutionCertificate):
        return {
            "type": "constant_solution",
            "u": cone_vector_doc(cert.u),
            "support": [int(i) for i in cert.support],
            "residual_inf": float(cert.residual_inf),
        }
    if isinstance(cert, SufficientConditionCertificate):
        return {"type": "row_dominance", "kappa0": float(cert.kappa0)}
    if isinstance(cert, (MuCertificate, MuViolation, MuSearchFailure, MuSearchInconclusive)):
        return mu_outcome_doc(cert)
    if isinstance(cert, ConeVector):
        return {"type": "cone_witness", "point": cone_vector_doc(cert)}
    raise TypeError(f"unknown certificate {type(cert)}")


def solvability_doc(verdict: SolvabilityVerdict) -> dict:
    doc = {
        "kind": verdict.kind.value,
        "reason": verdict.reason,
        "certificate": certificate_doc(verdict.certificate),
        "boundary_case": bool(verdict.boundary_case),
        "note": verdict.note,
    }
    if verdict.audit is not None:
        doc["audit"] = mu_outcome_doc(verdict.audit)
    return doc


def energy_report_doc(report: EnergyReport) -> dict:
    return {
        "energy": float(report.energy),
        "dirichlet": float(report.dirichlet),
        "phi": float(report.phi),
        "residual_inf": float(report.residual_inf),
        "identity_defects": _floats(report.identity_defects),
    }


def solve_outcome_doc(outcome, csv_path: str | None = None) -> dict:
    if isinstance(outcome, NeumannSolution):
        doc = {
            "outcome": "solution",
            "classification": outcome.classification,
            "seed_provenance": outcome.seed_provenance,
            "energy_report": energy_report_doc(outcome.report),
        }
        if csv_path is not None:
            doc["csv_path"] = csv_path
        return doc
    if isinstance(outcome, TrivialOnly):
        return {
            "outcome": "trivial_only",
            "seed_outcomes": list(outcome.seed_outcomes),
        }
    if isinstance(outcome, SolveInconclusive):
        return {
            "outcome": "inconclusive",
            "best_residual": float(outcome.best_residual),
            "seed_outcomes": list(outcome.seed_outcomes),
        }
    raise TypeError(f"unknown solve outcome {type(outcome)}")


def psd_doc(kind: Definiteness) -> str:
    return kind.value


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


def parse_report(text: str) -> dict:
    return json.loads(text)
