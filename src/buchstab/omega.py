"""The Buchstab function and its moment constants, from the Omega_1 ledger.

omega is defined by omega(x) = 1/x on [1, 2] together with the delay
equation d(x*omega(x))/dx = omega(x-1) for x >= 2; it tends to
exp(-gamma) = 0.5614594835... and governs tail probabilities of
smallest components (P{X_n >= k} ~ omega(n/k)/k).

x*omega(x) is 1 on [1, 2) and solves the delay equation of the
generalized Buchstab function at K = 1, so omega(x) = Omega_1(x)/x and
one ledger serves both: ``eval_omega`` divides the value of the K = 1
``OmegaKLedger`` of ``omega_k`` by x, wherever that ledger may grow.

Moment constants ell * integral_1^inf omega(x)/x^ell dx are assembled
from an exact first-interval integral (for ell = 2 the first interval
contributes exactly 3/4 to the variance constant C), Taylor blocks
2..n integrated term by term (m = ell + 1 in ``series_over_binomial``,
the kernel of the Omega_K advance), and the tail past block n, whose
constant is read off block n itself: no value of gamma is used.  n is
the first block whose proven tail bound is below 10^-p, so p alone sets
where the quadrature ends (block 19 at the default p = 30, which gives
C = 1.30720779891056809974468019429, the value of the Laplace transform
route to its last digit).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .numerics import DEFAULT_PRECISION, as_real, context
from .omega_k import (Expansion, LedgerRangeError, OmegaKLedger, eval_omega_k,
                      series_over_binomial)

__all__ = [
    "LedgerRangeError",
    "QuadratureConfig",
    "MomentConstant",
    "build_omega_ledger",
    "eval_omega",
    "integrate_block",
    "moment_constant",
]


class QuadratureConfig(NamedTuple("QuadratureConfig", [("precision", int)])):
    """Precision of omega work: working decimal digits, which also set
    each block's length."""

    __slots__ = ()

    def __new__(cls, precision: int = DEFAULT_PRECISION):
        if precision < 10:
            raise ValueError(f"precision must be >= 10, got {precision}")
        return super().__new__(cls, precision)


def _require_k1(ledger: OmegaKLedger) -> None:
    if ledger.K != 1:
        raise ValueError(f"omega needs the K = 1 ledger (Omega_1 = x*omega), "
                         f"got K = {ledger.K}")


def build_omega_ledger(config: QuadratureConfig = QuadratureConfig()) -> OmegaKLedger:
    """The K = 1 ledger at the configured precision; ``eval_omega`` and
    ``moment_constant`` grow it as far as they read."""
    return OmegaKLedger(1, config.precision)


def eval_omega(ledger: OmegaKLedger, x) -> Decimal:
    """omega(x) = Omega_1(x)/x for x >= 1 (blocks grown on demand)."""
    _require_k1(ledger)
    xd = as_real(x, ledger.p)
    return ledger._ctx.divide(eval_omega_k(ledger, xd), xd)


def integrate_block(ledger: OmegaKLedger, n: int, moment_order: int = 2) -> Decimal:
    """integral_n^{n+1} omega(t)/t^ell dt = integral_n^{n+1} Omega_1(t)/t^m dt,
    m = ell + 1, from block n's series, term by term.

    With r = 1/(2n+1) the integral is (2r)^m sum_{even i} d_i/(i+1),
    d the coefficients of P(z) (1 + r z)^-m.  The series is cut where
    the dropped terms total less than 10^-p: with D the block's degree,
    a coefficient d_i with i > D + K combines the coefficients
    b_k = C(m+k-1, k) (-r)^k of (1 + r z)^-m with k > K only, so the
    dropped d_i total at most
    sum_j |c_j| * sum_{k>K} |b_k|, and |b_{k+1}/b_k| = r (m+k)/(k+1)
    falls as k grows.
    """
    if moment_order < 1:
        raise ValueError(f"moment_order must be >= 1, got {moment_order}")
    _require_k1(ledger)
    m = moment_order + 1
    block = ledger.block(n)
    p = ledger.p
    with localcontext(context(p)):
        r = Decimal(1) / Decimal(2 * n + 1)
        eps = Decimal(1).scaleb(-p)
        weight = sum(abs(c) for c in block.coeffs)
        b, K = Decimal(1), 0  # b = |b_K|
        while True:
            b_next = b * r * (m + K) / (K + 1)
            rho = r * (m + K + 1) / (K + 2)
            if rho < 1 and weight * b_next < eps * (1 - rho):
                break
            b, K = b_next, K + 1
        d = series_over_binomial(block.coeffs, r, m, len(block.coeffs) + K)
        total = sum(d[i] / (i + 1) for i in range(0, len(d), 2))
        return +((2 * r) ** m * total)


class MomentConstant(NamedTuple):
    """ell * integral_1^inf omega(x)/x^ell dx with an explicit error budget.

    ``first_interval`` is the exact rational contribution of [1, 2]
    where omega(x) = 1/x; for ell = 2 it is exactly 3/4.
    """

    moment_order: int
    value: Decimal
    error_budget: Decimal
    first_interval: Fraction


def moment_constant(ledger: OmegaKLedger, moment_order: int = 2) -> MomentConstant:
    """ell * [(1 - 2^-ell)/ell (exact: omega = 1/x on [1, 2]) + the
    integrals of blocks 2..n + the tail a (n+1)^(1-ell)/(ell-1)], with
    a = 2 c1 from block n's series c.

    At K = 1, a*x solves the delay equation for every constant a, so
    R = Omega_1 - a*x obeys R'(x) = R(x-1)/(x-1).  If |R| <= M on block
    n, [n, n+1], then y = M x/n solves the same equation and is >= M
    there, so a Gronwall step gives |R(x)| <= y(x) beyond: |omega(u) - a|
    <= M/n for all u >= n (and |a - exp(-gamma)| <= M/n as u grows).
    This is the ledger's large-x fit at K = 1 (``omega_k.Expansion.fit``,
    S = x): on block n, a*x = a(n + 1/2) + (a/2) z, so M = |c0 - (2n+1) c1|
    + sum_{i>=2} |c_i| + the cut 10^-p |c0|, and the tail is off by at
    most ell/(ell-1) (n+1)^(1-ell) M/n.  Blocks are integrated until that
    bound is below 10^-p.

    The budget sums the cuts (10^-p (|c0| + 1) for block k's and
    integrate_block's, times 1/k^(ell+1)), the tail bound, rounding (half
    an ulp of the sum for each of its n + 2 roundings, times ell, and an
    ulp of the value) and a stated, unproven allowance of k |c0| 10^(1-p)
    for the rounding that block k and its integral carry, weighted like
    the cuts and, for block n, like M.  Against ledgers 20 digits finer
    (blocks 2..79, p from 10 to 100) each block's error was at most 0.89
    of its allowance.
    """
    ell = moment_order
    if ell < 2:
        raise ValueError(f"moment constant defined for orders >= 2, got {ell}")
    p = ledger.p
    first = Fraction(1) - Fraction(1, 2 ** ell)  # ell * (1 - 2^-ell)/ell
    with localcontext(context(p)):
        eps = Decimal(1).scaleb(-p)
        quad = block_err = Decimal(0)
        fit = Expansion(ledger.K, p).fit  # S = x: a = 2 c1
        n = 1
        while True:
            n += 1
            block = ledger.block(n)  # c1 ~ c0/(2n+1) is never cut
            c0 = block.coeffs[0]
            quad += integrate_block(ledger, n, ell)
            slack = n * abs(c0) * 10 * eps  # the stated ledger allowance
            # the cuts and the allowance, weighted by 1/t^(ell+1) <= 1/n^(ell+1)
            block_err += ((abs(c0) + 1) * eps + slack) / Decimal(n) ** (ell + 1)
            a, M = fit(block)
            tail_weight = Decimal(ell) / ((ell - 1) * n * Decimal(n + 1) ** (ell - 1))
            if tail_weight * M < eps:
                break
        total = quad + a / ((ell - 1) * Decimal(n + 1) ** (ell - 1))
        value = Decimal(first.numerator) / Decimal(first.denominator) + ell * total
        rounding = ell * (n + 2) * eps.scaleb(total.adjusted() + 1) / 2 \
            + eps.scaleb(value.adjusted() + 1)
        budget = ell * block_err + tail_weight * (M + slack) + rounding
    return MomentConstant(ell, value, budget, first)
