"""Window sweep for the averaged-drive error budget on an oscillatory field.

The driving field is phi(k, x) = -x + (-1)^k x: the oscillation cancels in
the time average, leaving phibar(x) = -x.  The script tabulates the window
deviation sigma(T), then for a grid of drift targets delta prints the
selected window T_delta, the admissible amplitude eps_delta, and the drift
coefficients nu/mu realized at the budget.

Usage: python3 scripts/averaging_window_sweep.py [--deltas 2.0 1.0 0.5 0.25]
"""

import argparse

import numpy as np

from lyapcert.averaging import budget_for_delta, estimate_average, estimate_sigma, mu, nu
from lyapcert.errors import BudgetInfeasibleError


def oscillating(k, x):
    x = np.asarray(x, dtype=float)
    return -x + ((-1.0) ** k) * x


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--deltas", type=float, nargs="+", default=[2.0, 1.0, 0.5, 0.25])
    ap.add_argument("--windows", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32, 64])
    args = ap.parse_args()

    probes = np.array([[1.0], [-0.5], [0.25], [0.8]])
    avg = estimate_average(oscillating, probes)
    table = estimate_sigma(oscillating, avg, args.windows)
    print(f"phibar(1) = {avg.phibar(np.array([1.0]))[0]:+.6f}   L = {table.L:.3f}   "
          f"window mean over T = {avg.T_used}")
    print(f"\n{'T':>4} {'sigma(T)':>10}")
    for T in args.windows:
        print(f"{T:>4} {table.sigma(T):>10.3e}")

    print(f"\n{'delta':>6} {'T_d':>4} {'eps_delta':>10} {'nu':>8} {'mu':>8}")
    for delta in args.deltas:
        try:
            b = budget_for_delta(delta, table)
        except BudgetInfeasibleError as exc:
            print(f"{delta:>6.2f} infeasible: {exc}")
            continue
        n = nu(b.T_delta, b.eps_delta, table.L, table.sigma(b.T_delta))
        m = mu(b.T_delta, b.eps_delta, table.L, table.sigma(b.T_delta))
        print(f"{delta:>6.2f} {b.T_delta:>4} {b.eps_delta:>10.3e} {n:>8.4f} {m:>8.4f}")


if __name__ == "__main__":
    main()
