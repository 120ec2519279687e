#!/usr/bin/env python3
"""Locate the weight-existence threshold of the b_epsilon family.

For each eps the script reports the best-weight margin from a dense-lattice
linear program (all grid points as constraints), the outcome of the
cutting-plane search, and the plain minimum at the uniform weight.  The
threshold lies in the bracket (0.007, 0.008), proven in exact arithmetic by
tests/oracles.py: at eps >= 0.008 a verifying weight exists, at eps <= 0.007
finitely many cone points block every weight.  The lattice margin here is a
float estimate of the same crossing, not a proof.
"""

import argparse

import numpy as np
from scipy.optimize import linprog

from coposolve import MuCertificate, MuViolation, b_epsilon, find_mu, verify_mu
from coposolve.forms import cone_power
from coposolve.simplex import barycentric_grid


def dense_lp_margin(B, p, resolution):
    grid = barycentric_grid(B.n, resolution)
    x = cone_power(grid, p / 2.0)
    y = cone_power(grid, p / 2.0 - 1.0)
    coef = y * (x @ B.entries)
    obj = np.zeros(B.n + 1)
    obj[-1] = -1.0
    res = linprog(
        obj,
        A_ub=np.hstack([-coef, np.ones((coef.shape[0], 1))]),
        b_ub=np.zeros(coef.shape[0]),
        bounds=[(1e-6, 1.0)] * B.n + [(None, None)],
        method="highs",
    )
    return res.x[: B.n], res.x[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=128)
    parser.add_argument(
        "--eps",
        type=float,
        nargs="*",
        default=[0.25, 0.1, 0.05, 0.02, 0.01, 0.008, 0.007, 0.006, 0.005, 0.004],
    )
    args = parser.parse_args()

    print(f"{'eps':>7} | {'LP margin':>12} | {'LP mu (mu1=1)':>22} | "
          f"{'search':>14} | {'min at mu=1':>12}")
    print("-" * 84)
    for eps in args.eps:
        B = b_epsilon(eps)
        mu, margin = dense_lp_margin(B, 4.0, args.resolution)
        mu_n = mu / mu[0]
        outcome = find_mu(B, 4.0)
        label = type(outcome).__name__.replace("MuSearch", "").replace("Mu", "")
        uniform = verify_mu(B, np.ones(3), 4.0)
        if isinstance(uniform, MuCertificate):
            uniform_min = f"{uniform.min_on_simplex:>+12.4e}"
        elif isinstance(uniform, MuViolation):
            uniform_min = f"{uniform.value:>+12.4e}"
        else:
            uniform_min = f"{'undecided':>12}"
        print(
            f"{eps:>7} | {margin:>+12.4e} | ({mu_n[0]:.3f}, {mu_n[1]:.3f}, {mu_n[2]:.3f})"
            f" | {label:>14} | {uniform_min}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
