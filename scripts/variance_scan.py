#!/usr/bin/env python3
"""Scan Var(X_n)/n against the limiting constant C.

Builds the exact count table once and prints the normalized variance on
a geometric-ish grid of n, together with the quadrature value of C for
reference.  n = 1000 takes a few seconds and ~200 MB.

    python scripts/variance_scan.py --max-n 500
"""

import argparse
import sys
import time

from buchstab.cli import format_real
from buchstab.counts import PERMUTATIONS, build_table, variance
from buchstab.omega import QuadratureConfig, build_omega_ledger, moment_constant


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=500)
    ap.add_argument("--points", type=int, default=12,
                    help="number of scan points (default 12)")
    args = ap.parse_args()

    const = moment_constant(build_omega_ledger(QuadratureConfig()), 2)
    print(f"limit C = {format_real(const.value, 10)}")

    t0 = time.time()
    table = build_table(PERMUTATIONS, args.max_n)
    print(f"table to n = {args.max_n} built in {time.time() - t0:.1f}s")

    ns = sorted({max(2, round(args.max_n * (i + 1) / args.points))
                 for i in range(args.points)})
    print(f"{'n':>6}  {'Var(X_n)/n':>14}  {'C - Var/n':>12}")
    for n in ns:
        von = variance(table, n).variance_over_n
        print(f"{n:>6}  {format_real(von, 10):>14}  "
              f"{format_real(const.value - von, 4):>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
