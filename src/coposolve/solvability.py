"""Existence/nonexistence verdicts for the entire-space coupled system.

The decision tree maps a coupling matrix and problem parameters (space
dimension, nonlinearity degree p) to a verdict with a certificate: an exact
constant solution, a cone witness of failed strict copositivity, or a
verifying weight for the degree-(p-1) form.  The first two tests read one
face pass of `copositivity`: the constant solutions are its stationary points
with multiplier zero, and its simplex minimum gives the copositivity verdict.
Inputs strictly copositive but without a weight certificate in the applicable
p-range land in the open gap."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .copositivity import ConstantSolutionCertificate, copositivity_verdict, scan_faces
from .copositivity import classify_copositivity  # noqa: F401  (bench/spans.py wraps this attribute)
from .errors import ParameterError
from .forms import SymMatrix, require_int, require_nonnegative_diagonal, require_p
from .mu_search import (
    MAX_ITERATIONS,
    MuCertificate,
    constructive_mu_n2,
    find_mu,
    require_budget,
    sufficient_condition,
    verify_mu,
)


def __getattr__(name: str):
    # Served only for bench/spans.py, whose TARGETS still name both attributes
    # and whose SpanRecorder.install looks each one up; retire with ROADMAP item 4.
    if name == "null_space":
        from scipy.linalg import null_space

        return null_space
    if name == "linprog":
        from . import mu_search

        return mu_search.linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


OPEN_GAP_NOTE = (
    "undecided: the matrix is strictly copositive but no verifying weight for "
    "the degree-(p-1) form was found; for dimension >= 3 with 3 or more "
    "components, nonexistence under strict copositivity alone is an open case"
)


class SolvabilityKind(Enum):
    EXISTS = "ExistsNontrivial"
    NO_NONTRIVIAL = "NoNontrivial"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ProblemParams:
    """Space dimension and nonlinearity degree of the system.

    p must be finite, exceed 2 and, for dim >= 3, stay below the critical
    exponent 2*dim/(dim-2); the comparison is exact (floats are compared as
    rationals).
    """

    dim: int
    p: float = 4.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", require_int(self.dim, 1, "dimension must be a positive integer"))
        require_p(self.p)
        if self.dim >= 3 and not Fraction(self.p) < Fraction(2 * self.dim, self.dim - 2):
            raise ParameterError(
                f"p={self.p} is not subcritical for dimension {self.dim}"
            )


@dataclass(frozen=True)
class SufficientConditionCertificate:
    """Row-dominance constant kappa_0 certifying mu = (1, ..., 1)."""

    kappa0: float


@dataclass(frozen=True)
class SolvabilityVerdict:
    kind: SolvabilityKind
    reason: str
    certificate: object | None = None
    boundary_case: bool = False
    note: str = ""
    audit: object | None = None


def constant_solution(B: SymMatrix, p: float) -> ConstantSolutionCertificate | None:
    """Exact constant solution from a positive support-restricted kernel vector.

    The first certificate, by support size and then lexicographically, of
    one face pass (copositivity.scan_faces, where the argument is given).
    """
    return scan_faces(B, p).constant


def _within_weighted_range(params: ProblemParams) -> bool:
    """p-range in which a weight certificate implies nonexistence."""
    if params.dim <= 2:
        return True
    return Fraction(params.p) <= Fraction(2 * params.dim - 2, params.dim - 2)


def classify_solvability(
    B: SymMatrix,
    params: ProblemParams,
    max_iterations: int = MAX_ITERATIONS,
) -> SolvabilityVerdict:
    """Decision tree for existence of nontrivial nonnegative entire solutions.

    Order: exact constant solutions and failed strict copositivity (existence,
    both from one face pass), the low-dimension strict-copositivity route, the
    two-component constructive weight, the row-dominance bound, and finally
    the cutting plane weight search; anything left is the open gap.

    On entry it raises ParameterError for a budget below 1, even when the
    tree stops before the weight search, and PreconditionError for a negative
    diagonal entry (outside the paper's scope).
    """
    require_budget(max_iterations)
    require_nonnegative_diagonal(B)
    cubic = params.p == 4.0

    cs, minimum = scan_faces(B, params.p)
    if cs is not None:
        reason = "ConstantSolution"
        if len(cs.support) == 1 and B.entries[cs.support[0], cs.support[0]] == 0.0:
            reason = "ZeroDiagonal"
        return SolvabilityVerdict(SolvabilityKind.EXISTS, reason, cs)

    verdict = copositivity_verdict(B, minimum)
    strictly_copositive = verdict.min_value > 0
    if not strictly_copositive:
        return SolvabilityVerdict(
            SolvabilityKind.EXISTS,
            "Thm1.1" if cubic else "Thm4.1",
            certificate=verdict.witness,
            boundary_case=verdict.boundary_case,
        )
    boundary = verdict.boundary_case

    if params.dim <= 2 and Fraction(params.p) <= 4:
        return SolvabilityVerdict(
            SolvabilityKind.NO_NONTRIVIAL,
            "Thm1.6" if cubic else "Thm4.6",
            boundary_case=boundary,
        )

    weighted_ok = _within_weighted_range(params)

    if B.n == 2 and weighted_ok:
        mu = constructive_mu_n2(B, params.p)
        cert = verify_mu(B, mu, params.p)
        if isinstance(cert, MuCertificate):
            return SolvabilityVerdict(
                SolvabilityKind.NO_NONTRIVIAL,
                "Cor1.3" if cubic else "Cor4.5",
                certificate=cert,
                boundary_case=boundary,
            )

    if weighted_ok:
        kappa0 = sufficient_condition(B)
        if kappa0 is not None:
            return SolvabilityVerdict(
                SolvabilityKind.NO_NONTRIVIAL,
                "Prop1.7" if cubic else "Prop4.7",
                certificate=SufficientConditionCertificate(kappa0),
                boundary_case=boundary,
            )
        outcome = find_mu(B, params.p, max_iterations)
        if isinstance(outcome, MuCertificate):
            return SolvabilityVerdict(
                SolvabilityKind.NO_NONTRIVIAL,
                "Prop1.2" if cubic else "Prop4.3",
                certificate=outcome,
                boundary_case=boundary,
            )
        return SolvabilityVerdict(
            SolvabilityKind.UNKNOWN,
            "OpenGap",
            boundary_case=boundary,
            note=OPEN_GAP_NOTE,
            audit=outcome,
        )

    return SolvabilityVerdict(
        SolvabilityKind.UNKNOWN,
        "OpenGap",
        boundary_case=boundary,
        note=OPEN_GAP_NOTE,
    )
