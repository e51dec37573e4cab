#!/usr/bin/env python3
"""Regenerate the package's headline numbers in one run.

Emits the exact count table for sizes 1..10, the variance constant C
with its error budget, selected exact variance points, and the
generalized Buchstab table for K = 1 and K = 1/2 on the reference grid.

    python scripts/reproduce_tables.py [--variance-n 200]

The full n = 1000 variance point takes a few seconds; pass
``--variance-n 1000`` to include it.
"""

import argparse
import sys
import time

from buchstab.cli import format_real
from buchstab.counts import PERMUTATIONS, build_table, variance
from buchstab.omega import QuadratureConfig, build_omega_ledger, moment_constant
from buchstab.omega_k import PAPER_TABLE_GRID, OmegaKLedger, table_values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variance-n", type=int, default=200,
                    help="largest size for the exact variance points (default 200)")
    args = ap.parse_args()

    print("== exact counts, sizes 1..10 ==")
    t10 = build_table(PERMUTATIONS, 10)
    for n in range(1, 11):
        print(f"n={n:2d}: {t10.row(n)}")

    print("\n== variance constant C = 2 * integral omega(x)/x^2 ==")
    t0 = time.time()
    ledger = build_omega_ledger(QuadratureConfig())
    const = moment_constant(ledger, 2)
    print(f"C = {format_real(const.value, 10)}  "
          f"(error budget {const.error_budget:.1E}, "
          f"first interval exactly {const.first_interval}, "
          f"{time.time() - t0:.1f}s)")

    print(f"\n== exact Var(X_n)/n up to n = {args.variance_n} ==")
    t0 = time.time()
    table = build_table(PERMUTATIONS, args.variance_n)
    for n in sorted({10, 50, 100, args.variance_n}):
        if n <= args.variance_n:
            rep = variance(table, n)
            print(f"n={n:5d}: Var/n = {format_real(rep.variance_over_n, 8)}")
    print(f"(table build + variance: {time.time() - t0:.1f}s)")

    print("\n== generalized Buchstab function on the reference grid ==")
    for K in ("1", "0.5"):
        led = OmegaKLedger(K)
        print(f"K = {K}:")
        for x, v in table_values(led, PAPER_TABLE_GRID):
            print(f"  x={x:>6f}: {format_real(v, 8)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
