"""Compare the two quadratic-certificate solvers across dimension and contraction.

For each (n, rho) cell: draw Gaussian matrices rescaled to spectral radius
rho, solve A' P A - P + Q = 0 by the direct solve (on a complex Schur form,
or on the symmetric subspace when the gate refuses that form) and by the
power series summed with Smith's doubling, and report the worst cross-route
gap, the worst relative residual, the mean per-solve time of each route,
the largest number of series terms summed (2^k after k doublings), and how
many direct solves took the Schur route and the fallback.

Usage: python3 scripts/stein_route_comparison.py [--draws 20] [--seed 7]
"""

import argparse
import time

import numpy as np

from lyapcert.rng import Rng
from lyapcert.stein import solve_stein_kron, solve_stein_series


def draw(rng, n, rho):
    while True:
        A = rng.matrix(n, n)
        r = float(np.max(np.abs(np.linalg.eigvals(A))))
        if r > 1e-9:
            break
    B = rng.matrix(n, n)
    return A * (rho / r), B @ B.T + np.eye(n)


def sweep_cell(rng, n, rho, draws):
    gap = residual = 0.0
    t_kron = t_series = 0.0
    terms = 0
    routes = {"schur": 0, "kronecker": 0}
    for _ in range(draws):
        A, Q = draw(rng, n, rho)
        t0 = time.perf_counter()
        kron = solve_stein_kron(A, Q)
        t1 = time.perf_counter()
        series = solve_stein_series(A, Q)
        t2 = time.perf_counter()
        t_kron += t1 - t0
        t_series += t2 - t1
        terms = max(terms, series.terms)
        routes[kron.method] += 1
        gap = max(gap, float(np.abs(kron.P - series.P).max()))
        qn = float(np.linalg.norm(Q, "fro"))
        for sol in (kron, series):
            res = float(np.linalg.norm(A.T @ sol.P @ A - sol.P + Q, "fro"))
            residual = max(residual, res / qn)
    return gap, residual, t_kron / draws, t_series / draws, terms, routes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--draws", type=int, default=20, help="matrices per cell")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = Rng(args.seed)
    print(f"{'n':>3} {'rho':>5} {'max gap':>10} {'max resid':>10} "
          f"{'t_solve':>9} {'t_series':>9} {'terms 2^k':>9} {'schur/kron':>10}")
    for n in (2, 4, 8, 16):
        for rho in (0.3, 0.6, 0.9, 0.99):
            gap, res, tk, ts, terms, routes = sweep_cell(rng, n, rho, args.draws)
            split = f"{routes['schur']}/{routes['kronecker']}"
            print(f"{n:>3} {rho:>5.2f} {gap:>10.2e} {res:>10.2e} "
                  f"{tk * 1e3:>8.2f}ms {ts * 1e3:>8.2f}ms {terms:>9} {split:>10}")


if __name__ == "__main__":
    main()
