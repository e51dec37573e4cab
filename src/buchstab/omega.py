"""The Buchstab function and its moment constants, from the Omega_1 ledger.

omega is defined by omega(x) = 1/x on [1, 2] together with the delay
equation d(x*omega(x))/dx = omega(x-1) for x >= 2; it tends to
exp(-gamma) = 0.5614594835... and governs tail probabilities of
smallest components (P{X_n >= k} ~ omega(n/k)/k).

x*omega(x) is 1 on [1, 2) and solves the delay equation of the
generalized Buchstab function at K = 1, so omega(x) = Omega_1(x)/x and
the package keeps one ledger for both: ``eval_omega`` divides the value
of the K = 1 ``OmegaKLedger`` of ``omega_k`` by x, wherever that ledger
may grow.

Moment constants ell * integral_1^inf omega(x)/x^ell dx are assembled
from an exact first-interval integral (for ell = 2 the first interval
contributes exactly 3/4 to the variance constant C), the Taylor blocks
on [2, n*) integrated term by term, and the analytic tail
ell * exp(-gamma) * n*^(1-ell) / (ell-1), whose error is capped by the
classical |omega(x) - exp(-gamma)| < 1e-4 band for x > 4.  n* = 200
(``N_STAR``) is a constant of this quadrature, not of the ledger:
``build_omega_ledger`` grows the K = 1 ledger through it, and
``moment_constant`` grows any K = 1 ledger that holds fewer blocks.

On block n, t = n + (1+z)/2 = (1 + r z)/(2r) with r = 1/(2n+1) <= 1/5,
so with m = ell + 1, omega(t)/t^ell = Omega_1(t)/t^m = (2r)^m P(z) (1 + r z)^-m;
``series_over_binomial`` gives that product series (the Omega_K advance
uses the same kernel with m = 1) and integral_{-1}^{1} z^i dz = 2/(i+1)
for even i.  The default precision p = 30 gives
C = 1.30720779891056809974468019430, 1e-29 from the value of the Laplace
transform route; the printed error budget, 1e-6, is the tail band; its
truncation terms are below 1e-29.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .numerics import DEFAULT_PRECISION, as_real, context, exp_neg_gamma
from .omega_k import (
    LedgerRangeError,
    OmegaKLedger,
    eval_omega_k,
    series_over_binomial,
)

__all__ = [
    "N_STAR",
    "LedgerRangeError",
    "QuadratureConfig",
    "MomentConstant",
    "build_omega_ledger",
    "eval_omega",
    "integrate_block",
    "moment_constant",
]


N_STAR = 200  # n*, the last Taylor block of the moment quadrature


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
    """The K = 1 ledger, grown through block n*."""
    ledger = OmegaKLedger(1, config.precision)
    ledger.ensure(N_STAR)
    return ledger


def eval_omega(ledger: OmegaKLedger, x) -> Decimal:
    """omega(x) = Omega_1(x)/x for x >= 1 (blocks grown on demand)."""
    _require_k1(ledger)
    xd = as_real(x, ledger.p)
    return context(ledger.p).divide(eval_omega_k(ledger, xd), xd)


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
    """Assemble the moment constant from exact head, block integrals and tail.

    value = ell * [ (1 - 2^-ell)/ell  (exact, omega = 1/x on [1,2])
                  + sum_{n=2}^{n*-1} integrate_block(n)
                  + exp(-gamma) * n*^(1-ell) / (ell-1) ]          (tail)

    n* = ``N_STAR`` = 200 is a constant of the quadrature: blocks the
    ledger does not hold yet are grown, so a ledger limited below n*
    raises LedgerRangeError.  The budget is ell * (per-block Taylor
    truncation, which each block's cut keeps below 10^-p |c_0|, + series
    truncation) plus the 1e-4 tail band scaled by the tail weight.
    """
    ell = moment_order
    if ell < 2:
        raise ValueError(f"moment constant defined for orders >= 2, got {ell}")
    _require_k1(ledger)
    p = ledger.p
    first = Fraction(1) - Fraction(1, 2 ** ell)  # ell * (1 - 2^-ell)/ell
    with localcontext(context(p)):
        eps = Decimal(1).scaleb(-p)
        quad = Decimal(0)
        trunc = Decimal(0)
        for n in range(2, N_STAR):
            quad += integrate_block(ledger, n, ell)
            # the block's cut and integrate_block's series cut, both
            # weighted by 1/t^(ell+1) <= 1/n^(ell+1)
            trunc += (abs(ledger.block(n).coeffs[0]) + 1) * eps / Decimal(n) ** (ell + 1)
        egamma = exp_neg_gamma(min(p, 50))
        tail = egamma * Decimal(N_STAR) ** (1 - ell) / Decimal(ell - 1)
        value = Decimal(first.numerator) / Decimal(first.denominator) \
            + Decimal(ell) * (quad + tail)

        tail_band = Decimal("1e-4") * Decimal(N_STAR) ** (1 - ell) \
            * Decimal(ell) / Decimal(ell - 1)
        budget = Decimal(ell) * trunc + tail_band
    return MomentConstant(ell, value, budget, first)
