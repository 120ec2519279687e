"""Report schema: the exact keys of every document the result types produce.

Documents come from the result dataclasses' fields, so renaming a field
renames a key of coposolve-report/2; these key sets catch that.
"""

import json

import numpy as np
import pytest

from coposolve.cli import _classify_one
from coposolve.copositivity import ConstantSolutionCertificate
from coposolve.forms import ConeVector, SymMatrix
from coposolve.mu_search import (
    MuCertificate,
    MuSearchFailure,
    MuSearchInconclusive,
    MuViolation,
    VerificationInfo,
)
from coposolve.neumann import (
    EnergyReport,
    FieldTuple,
    Grid,
    NeumannSolution,
    SolveInconclusive,
    TrivialOnly,
    write_solution_csv,
)
from coposolve.reports import to_doc
from coposolve.solvability import SolvabilityKind, SolvabilityVerdict, SufficientConditionCertificate

POINT = ConeVector([0.5, 0.5])
VERIFICATION = VerificationInfo(cells=3, max_depth=1)
VIOLATION = MuViolation(point=POINT, value=-0.25, verification=VERIFICATION)
CERTIFICATE = MuCertificate(mu=ConeVector([1.0, 0.5]), kappa=0.1, min_on_simplex=0.2,
                            worst_point=POINT, verification=VERIFICATION)
ENERGY = EnergyReport(energy=1.5, dirichlet=2.0, phi=0.5, residual_inf=1e-12,
                      identity_defects=(1e-13, -2e-13))
SOLUTION = NeumannSolution(field=FieldTuple(np.zeros((2, 17))), report=ENERGY,
                           classification="Constant", seed_provenance="constant shortcut")

VIOLATION_KEYS = {"type", "point", "value", "verification"}
VERDICT_KEYS = {"kind", "reason", "certificate", "boundary_case", "note"}
ENERGY_KEYS = {"energy", "dirichlet", "phi", "residual_inf", "identity_defects"}


def verdict(certificate, audit=None):
    return SolvabilityVerdict(SolvabilityKind.UNKNOWN, "OpenGap", certificate, note="n", audit=audit)


CASES = {
    "certificate": (CERTIFICATE, {"type", "mu", "kappa", "min_on_simplex", "worst_point", "verification"}),
    "violation": (VIOLATION, VIOLATION_KEYS),
    "failure": (
        MuSearchFailure(adversarial_set=(POINT, POINT), best_margin=-1e-9, iterations=2, final_mu=POINT),
        {"type", "adversarial_set", "best_margin", "iterations", "final_mu"},
    ),
    "inconclusive": (
        MuSearchInconclusive(final_mu=POINT, lp_margin=0.1, iterations=1, last_violation=VIOLATION),
        {"type", "final_mu", "lp_margin", "iterations", "last_violation"},
    ),
    "constant_solution": (
        ConstantSolutionCertificate(u=POINT, support=(0, 1), residual_inf=0.0),
        {"type", "u", "support", "residual_inf"},
    ),
    "row_dominance": (SufficientConditionCertificate(kappa0=0.5), {"type", "kappa0"}),
    "verdict_cone_witness": (verdict(POINT), VERDICT_KEYS),
    "verdict_with_audit": (verdict(None, audit=VIOLATION), VERDICT_KEYS | {"audit"}),
    "solution": (SOLUTION, {"outcome", "classification", "seed_provenance", "energy_report"}),
    "trivial_only": (TrivialOnly(seed_outcomes=("a", "b")), {"outcome", "seed_outcomes"}),
    "solve_inconclusive": (
        SolveInconclusive(best_residual=0.5, seed_outcomes=("a",)),
        {"outcome", "best_residual", "seed_outcomes"},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_document_keys(case):
    value, keys = CASES[case]
    doc = to_doc(value)
    assert set(doc) == keys
    assert json.loads(json.dumps(doc)) == doc
    if case == "certificate":
        assert doc["type"] == "certificate"
        assert set(doc["verification"]) == {"cells", "max_depth"}
        assert doc["mu"] == [1.0, 0.5]
    elif case == "inconclusive":
        assert doc["type"] == "inconclusive"
        assert set(doc["last_violation"]) == VIOLATION_KEYS
        assert doc["last_violation"]["type"] == "violation"
    elif case == "verdict_cone_witness":
        assert doc["kind"] == "Unknown"
        assert doc["certificate"] == {"type": "cone_witness", "point": [0.5, 0.5]}
    elif case == "verdict_with_audit":
        assert doc["certificate"] is None
        assert doc["audit"]["type"] == "violation"
    elif case == "solution":
        assert doc["outcome"] == "solution"
        assert set(doc["energy_report"]) == ENERGY_KEYS
        assert doc["energy_report"]["identity_defects"] == [1e-13, -2e-13]
    elif case == "solve_inconclusive":
        assert doc["outcome"] == "inconclusive"


def test_classify_document_keys():
    doc = _classify_one(SymMatrix([[1.0, -0.5], [-0.5, 1.0]]))
    assert set(doc) == {"kind", "min_value", "witness", "method", "boundary_case", "psd", "closed_form"}
    assert doc["psd"] == "PositiveDefinite"
    assert set(doc["closed_form"]) == {"strict", "final_expression"}
    assert type(doc["boundary_case"]) is bool and type(doc["min_value"]) is float


def test_numpy_scalars_become_python():
    doc = to_doc(ConstantSolutionCertificate(u=POINT, support=(np.int64(1),), residual_inf=np.float64(0.5)))
    assert type(doc["support"][0]) is int and type(doc["residual_inf"]) is float
    assert to_doc(np.bool_(True)) is True


def test_sidecar_keys(tmp_path):
    sidecar = write_solution_csv(SOLUTION, Grid(1, 1.0, 17), tmp_path / "s.csv")
    doc = json.loads(sidecar.read_text())
    assert set(doc) == ENERGY_KEYS | {"classification", "seed_provenance"}
    assert doc["identity_defects"] == [1e-13, -2e-13]


def test_unmappable_value_raises():
    with pytest.raises(TypeError, match="ndarray"):
        to_doc(MuCertificate(mu=np.ones(2), kappa=0.1, min_on_simplex=0.2,
                             worst_point=POINT, verification=VERIFICATION))
