#!/usr/bin/env python3
"""Compute the nonconstant Neumann witness for a non-copositive coupling.

Runs the mountain-pass solve for [[1, -2], [-2, 1]] on the unit interval,
polishes it through two mesh refinements to exhibit second-order energy
convergence, extends it by reflection to a 4-box, and dumps the field as CSV.
"""

import argparse
from pathlib import Path

import numpy as np

from coposolve import (
    Grid,
    NeumannSolution,
    ParameterError,
    SymMatrix,
    energy,
    mountain_pass_solve,
    refine_solution,
    reflect_tile,
    write_solution_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=129)
    parser.add_argument("--out", type=Path, default=Path("wall_solution.csv"))
    args = parser.parse_args()

    B = SymMatrix([[1.0, -2.0], [-2.0, 1.0]])
    grid = Grid(1, 1.0, args.nodes)
    solution = mountain_pass_solve(B, 4.0, grid)
    if not isinstance(solution, NeumannSolution):
        print(f"no solution accepted: {solution}")
        return 1

    report = solution.report
    print(f"seed: {solution.seed_provenance}")
    print(f"classification: {solution.classification}")
    print(f"residual_inf:   {report.residual_inf:.3e}")
    print(f"energy:         {report.energy:.10f}")
    print(f"energy - D/4:   {report.energy - report.dirichlet / 4.0:+.3e}")
    print(f"defects:        {[f'{d:+.2e}' for d in report.identity_defects]}")

    fine_nodes = 2 * (args.nodes - 1) + 1
    finest_nodes = 4 * (args.nodes - 1) + 1
    try:
        fine = refine_solution(B, solution, 4.0, grid, Grid(1, 1.0, fine_nodes))
        finest = refine_solution(
            B, fine, 4.0, Grid(1, 1.0, fine_nodes), Grid(1, 1.0, finest_nodes)
        )
    except ParameterError as exc:
        print(exc)
        return 1
    e1, e2, e3 = report.energy, fine.report.energy, finest.report.energy
    print(f"refinement energies: {e1:.8f} -> {e2:.8f} -> {e3:.8f}")
    print(f"successive-difference ratio: {(e1 - e2) / (e2 - e3):.3f} (exact h^2 gives 4)")

    extended, extended_grid = reflect_tile(solution.field, grid, 2)
    extended_report = energy(B, extended, 4.0, extended_grid)
    print(
        f"reflected to [0, {extended_grid.extent:.0f}]: residual "
        f"{extended_report.residual_inf:.3e}, period-2 mirror field of "
        f"{extended_grid.points_per_side} nodes"
    )

    sidecar = write_solution_csv(solution, grid, args.out)
    print(f"field written to {args.out} (report sidecar {sidecar})")
    print(f"amplitudes: {[float(np.max(c)) for c in solution.field.components]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
