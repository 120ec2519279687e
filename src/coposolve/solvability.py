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
    diagonal_weight,
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

# Each route's cubic reason (Section 1) and its general-p counterpart (Section 4).
GENERAL_P_REASONS = {"Thm1.1": "Thm4.1", "Thm1.6": "Thm4.6", "Cor1.3": "Cor4.5",
                     "Prop1.7": "Prop4.7", "Prop1.2": "Prop4.3"}


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

    Order: exact constant solutions and failed strict copositivity (existence),
    the low-dimension strict-copositivity route, the two-component diagonal
    weight, the row-dominance bound, and finally the cutting plane weight
    search; anything left is the open gap.  Strict copositivity is read once,
    from the simplex minimum of the face pass that looked for the constant
    solutions; the later routes do not decide it again.  A route's reason is
    the cubic one of the paper's Section 1 at p = 4 and its Section 4
    counterpart from GENERAL_P_REASONS at any other p.

    On entry it raises ParameterError for a budget below 1, even when the
    tree stops before the weight search, and PreconditionError for a negative
    diagonal entry (outside the paper's scope).
    """
    require_budget(max_iterations)
    require_nonnegative_diagonal(B)

    cs, minimum = scan_faces(B, params.p)
    if cs is not None:
        reason = "ConstantSolution"
        if len(cs.support) == 1 and B.entries[cs.support[0], cs.support[0]] == 0.0:
            reason = "ZeroDiagonal"
        return SolvabilityVerdict(SolvabilityKind.EXISTS, reason, cs)

    verdict = copositivity_verdict(B, minimum)
    kind, reason, certificate, audit = SolvabilityKind.NO_NONTRIVIAL, None, None, None
    if verdict.min_value <= 0:
        kind, reason, certificate = SolvabilityKind.EXISTS, "Thm1.1", verdict.witness
    elif params.dim <= 2 and Fraction(params.p) <= 4:
        reason = "Thm1.6"
    elif _within_weighted_range(params):
        reason, certificate, audit = _weight_route(B, params.p, max_iterations)
    if reason is None:
        kind, reason = SolvabilityKind.UNKNOWN, "OpenGap"
    elif params.p != 4.0:
        reason = GENERAL_P_REASONS[reason]
    note = OPEN_GAP_NOTE if kind is SolvabilityKind.UNKNOWN else ""
    return SolvabilityVerdict(kind, reason, certificate, verdict.boundary_case, note, audit)


def _weight_route(B: SymMatrix, p: float, max_iterations: int) -> tuple[str | None, object, object]:
    """(reason, certificate, audit) of the first weight route that holds; reason None if none.

    The n = 2 weight is constructive_mu_n2's without its closed-form check,
    and verify_mu proves or refutes it.  The audit is find_mu's failure."""
    if B.n == 2:
        cert = verify_mu(B, diagonal_weight(B, p), p)
        if isinstance(cert, MuCertificate):
            return "Cor1.3", cert, None
    kappa0 = sufficient_condition(B)
    if kappa0 is not None:
        return "Prop1.7", SufficientConditionCertificate(kappa0), None
    outcome = find_mu(B, p, max_iterations)
    if isinstance(outcome, MuCertificate):
        return "Prop1.2", outcome, None
    return None, None, outcome
