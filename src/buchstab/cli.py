"""Command-line interface.

Subcommands:

    counts           exact triangular table of smallest-component counts
    dist             exact distribution of the smallest-component size
    tail             one exact tail probability P{X_n >= k}
    variance-series  (n, Var(X_n), Var(X_n)/n) for n = 1..N
    omega            Buchstab function value
    constant         moment constant ell * integral omega(x)/x^ell dx
    omega-k          generalized Buchstab function value
    omega-k-table    table of Omega_K over the reference grid
    cache            list or clear the artifact cache

Each subcommand accepts only the options it reads, except that every
command but ``cache`` accepts ``--cache-dir`` and ignores it: each one
builds the table or ledger it reads.  A command that prints reals works
at ``max(DEFAULT_PRECISION, digits + GUARD_DIGITS)`` decimal digits, so
each of its ``--digits`` printed digits is right; ``--digits`` is at most
``MAX_DIGITS``.

Every command is a pure function of its arguments: repeated runs emit
byte-identical output.  Exit codes: 0 success, 2 usage error, 3 resource
cap (a count table past the memory cap, ``--digits`` past ``MAX_DIGITS``),
4 persistence error (an ``--out`` file or a cache entry that cannot
be written or removed).
"""

from __future__ import annotations

import argparse
import sys
from decimal import Context, Decimal
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import DEFAULT_PRECISION, int_str

# Each command imports the layers it runs when it runs, so a call loads
# only those.  Errors that carry an ``exit_code`` (MemoryCapError: 3;
# StoreError, OutputError: 4) set the exit status without main importing.
EXIT_OK = 0
EXIT_USAGE = 2

DEFAULT_DIGITS = 6
# The digits a value loses to rounding, with two spare.  Every ledger
# switches to the large-x expansion at a block n0 (at most 80 for
# p <= 60, 278 at p = 306), and its values lie within Switch.bound of
# Omega_K, about (n0 + 2) 10^(1-p) relative: at most 300 10^(1-p), so
# under 3.5 digits.  A literal, so that this module does not import omega_k.
GUARD_DIGITS = 6
# The cost of a command grows steeply with its working precision: at 300
# digits the slowest, ``constant``, takes ~0.8 s on a 2-core Xeon, and
# ~1.8 s at 400.
MAX_DIGITS = 300


def format_real(value: Decimal, digits: int = DEFAULT_DIGITS) -> str:
    """Fixed significant-digit positional rendering (trailing zeros kept),
    with the exponent taken after rounding (0.9999996 -> 1.00000)."""
    if value == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    ctx = Context(prec=digits)  # round half even
    q = ctx.plus(value)
    return f"{ctx.quantize(q, Decimal(1).scaleb(q.adjusted() - digits + 1)):f}"


def format_rational(q: Fraction) -> str:
    num = int_str(q.numerator)
    return f"{num}/{int_str(q.denominator)}" if q.denominator != 1 else num


class OutputTable:
    """Column-labelled rows of decimal strings, rendered as CSV or JSON."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Sequence[str]]):
        self.columns = list(columns)
        self.rows = [list(r) for r in rows]

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            import csv
            import io

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(self.columns)
            writer.writerows(self.rows)
            return buf.getvalue()
        if fmt == "json":
            import json

            doc = {"columns": self.columns, "rows": self.rows}
            return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        raise ValueError(f"unknown format {fmt!r}")


class OutputError(Exception):
    exit_code = 4  # the --out file cannot be written: a persistence error


def _emit(text: str, out_path: Optional[str]) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write output {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_counts(args) -> int:
    from .counts import build_table, component_class_by_name

    table = build_table(component_class_by_name(args.klass), args.n)
    columns = ["n"] + [f"k={k}" for k in range(1, args.n + 1)]
    rows = []
    for n in range(1, args.n + 1):
        row = [str(n)] + [int_str(c) for c in table.row(n)]
        row += [""] * (args.n - n)
        rows.append(row)
    _emit(OutputTable(columns, rows).render(args.format), args.out)
    return EXIT_OK


def cmd_dist(args) -> int:
    from .counts import PERMUTATIONS, build_table, distribution

    table = build_table(PERMUTATIONS, args.n)
    dist = distribution(table, args.n)
    columns = ["k", "probability"]
    rows = [[str(k), format_rational(p)] for k, p in enumerate(dist.probs, start=1)]
    _emit(OutputTable(columns, rows).render(args.format), args.out)
    return EXIT_OK


def cmd_tail(args) -> int:
    from .counts import PERMUTATIONS, build_table, tail_probability

    table = build_table(PERMUTATIONS, args.n)
    prob = tail_probability(table, args.n, args.k)
    columns = ["n", "k", "tail_probability"]
    rows = [[str(args.n), str(args.k), format_rational(prob)]]
    _emit(OutputTable(columns, rows).render(args.format), args.out)
    return EXIT_OK


def cmd_variance_series(args) -> int:
    from .counts import PERMUTATIONS, build_table, variance_series

    table = build_table(PERMUTATIONS, args.n)
    series = variance_series(table, p=args.precision)
    columns = ["n", "variance", "variance_over_n"]
    rows = [
        [str(n), format_rational(var), format_real(von, args.digits)]
        for n, var, von in series
    ]
    _emit(OutputTable(columns, rows).render(args.format), args.out)
    return EXIT_OK


def cmd_omega(args) -> int:
    from .omega import eval_omega
    from .omega_k import OmegaKLedger

    value = eval_omega(OmegaKLedger("1", args.precision), args.x)
    _emit(format_real(value, args.digits) + "\n", args.out)
    return EXIT_OK


def cmd_constant(args) -> int:
    from .omega import moment_constant
    from .omega_k import OmegaKLedger

    const = moment_constant(OmegaKLedger("1", args.precision), args.moment)
    lines = (
        f"constant={format_real(const.value, args.digits)}\n"
        f"error_budget={const.error_budget:.3E}\n"
        f"first_interval_exact={format_rational(const.first_interval)}\n"
    )
    _emit(lines, args.out)
    return EXIT_OK


def cmd_omega_k(args) -> int:
    from .omega_k import OmegaKLedger, eval_omega_k

    value = eval_omega_k(OmegaKLedger(args.k, args.precision), args.x)
    _emit(format_real(value, args.digits) + "\n", args.out)
    return EXIT_OK


def cmd_omega_k_table(args) -> int:
    from .omega_k import PAPER_TABLE_GRID, OmegaKLedger, table_values

    ledger = OmegaKLedger(args.k, args.precision)
    values = table_values(ledger, args.x_list or PAPER_TABLE_GRID)
    columns = ["x", "omega_k"]
    rows = [[f"{x:f}", format_real(v, args.digits)] for x, v in values]
    _emit(OutputTable(columns, rows).render(args.format), args.out)
    return EXIT_OK


def cmd_cache(args) -> int:
    from .store import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.action == "list":
        lines = "".join(f"{name}\n" for name in cache.entries())
        _emit(lines, args.out)
    else:
        removed = cache.clear()
        _emit(f"removed={removed}\n", args.out)
    return EXIT_OK


class UsageError(ValueError):
    pass


class DigitsCapError(Exception):
    exit_code = 3  # the resource-cap status, as for the count-table memory cap


def _add_options(parser: argparse.ArgumentParser, *, table: bool = True,
                 reals: bool = True, cache: bool = False) -> None:
    """The output options a subcommand reads."""
    if table:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="table output format (default csv)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    if reals:
        parser.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                            help=f"significant digits for real values, at most "
                                 f"{MAX_DIGITS}, worked at max({DEFAULT_PRECISION}, "
                                 f"digits + {GUARD_DIGITS}) (default {DEFAULT_DIGITS})")
    parser.add_argument("--cache-dir", metavar="DIR", default=None, required=cache,
                        help="the cache directory" if cache else
                        "accepted and ignored: the command builds what it reads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buchstab",
        description="Smallest-component statistics and Buchstab functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="exact triangular count table")
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help="largest object size")
    p.add_argument("--class", dest="klass", default="permutations",
                   help="component class (permutations, derangements)")
    _add_options(p, reals=False)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("dist", help="exact smallest-component distribution")
    p.add_argument("--n", type=int, required=True)
    _add_options(p, reals=False)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("tail", help="exact tail probability P{X_n >= k}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_options(p, reals=False)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("variance-series", help="variance of X_n for n = 1..N")
    p.add_argument("--n", type=int, required=True, metavar="N")
    _add_options(p)
    p.set_defaults(func=cmd_variance_series)

    p = sub.add_parser("omega", help="Buchstab function value")
    p.add_argument("--x", required=True)
    _add_options(p, table=False)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("constant", help="moment constant from omega quadrature")
    p.add_argument("--moment", type=int, default=2,
                   help="moment order ell >= 2 (default 2, the variance constant)")
    _add_options(p, table=False)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("omega-k", help="generalized Buchstab function value")
    p.add_argument("--k", required=True, help="class parameter K > 0")
    p.add_argument("--x", required=True)
    _add_options(p, table=False)
    p.set_defaults(func=cmd_omega_k)

    p = sub.add_parser("omega-k-table", help="Omega_K over the reference grid")
    p.add_argument("--k", required=True, help="class parameter K > 0")
    p.add_argument("--x-list", nargs="+", default=None,
                   help="evaluation points (default: 1..10 and 16..8192)")
    _add_options(p)
    p.set_defaults(func=cmd_omega_k_table)

    p = sub.add_parser("cache", help="inspect or clear the artifact cache")
    p.add_argument("action", choices=("list", "clear"))
    _add_options(p, table=False, reals=False, cache=True)
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "digits" in args:
            if args.digits < 1:
                raise UsageError(f"--digits {args.digits} is below 1")
            if args.digits > MAX_DIGITS:
                raise DigitsCapError(f"--digits {args.digits} exceeds the cap of "
                                     f"{MAX_DIGITS} digits")
            args.precision = max(DEFAULT_PRECISION, args.digits + GUARD_DIGITS)
        return args.func(args)
    except Exception as exc:
        code = getattr(exc, "exit_code", None)
        if code is None and isinstance(exc, (ValueError, IndexError)):
            code = EXIT_USAGE  # UsageError is a ValueError
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
