"""The Buchstab function via chained per-interval Taylor expansions.

omega is defined by omega(x) = 1/x on [1, 2] together with the delay
equation d(x*omega(x))/dx = omega(x-1) for x >= 2; it tends to
exp(-gamma) = 0.5614594835... and governs tail probabilities of
smallest components (P{X_n >= k} ~ omega(n/k)/k).

On each unit interval [n, n+1) write x = n + (1+z)/2 with z in [-1, 1)
and expand

    omega(n + (1+z)/2) = sum_i c[n, i] z^i.

Block 1 is the geometric series of 1/x about x = 1.5:
c[1, i] = (2/3) (-1/3)^i.  Integrating the delay equation across one
interval and matching powers of z gives the advance rules

    c[n+1, 0] = (1/(2n+3)) sum_i c[n, i] (2(n+1) + (-1)^i / (i+1))
    c[n+1, i] = (c[n, i-1]/i - c[n+1, i-1]) / (2n+3),   i >= 1,

the second computed in increasing i.  (Only this form reproduces the
closed form (1 + ln(x-1))/x on [2, 3].)  The centred variable keeps
coefficient decay fast near both interval ends.

Moment constants ell * integral_1^inf omega(x)/x^ell dx are assembled
from an exact first-interval integral (for ell = 2 the first interval
contributes exactly 3/4 to the variance constant C), the Taylor blocks
on [2, n*] integrated term by term, and the analytic tail
ell * exp(-gamma) * n*^(1-ell) / (ell-1), whose error is capped by the
classical |omega(x) - exp(-gamma)| < 1e-4 band for x > 4.  On block n,
t = n + (1+z)/2 = (1 + r z)/(2r) with r = 1/(2n+1) <= 1/5, so
omega(t)/t^ell = (2r)^ell P(z) (1 + r z)^-ell; ``series_over_binomial``
gives that product series (the Omega_K advance uses the same kernel)
and integral_{-1}^{1} z^i dz = 2/(i+1) for even i.  Defaults (p=30,
J=40, n*=200) give C = 1.30720779891056...; the printed error budget,
1e-6, is the tail band; its truncation terms are below 1e-20.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import List, Sequence, Tuple

from .numerics import DEFAULT_PRECISION, as_real, context, exp_neg_gamma

__all__ = [
    "LedgerRangeError",
    "TruncationWarning",
    "QuadratureConfig",
    "OmegaBlock",
    "OmegaLedger",
    "MomentConstant",
    "seed_omega",
    "advance_omega",
    "series_over_binomial",
    "build_omega_ledger",
    "eval_omega",
    "integrate_block",
    "moment_constant",
]

# Coefficients below this size cannot hurt the stated acceptance
# tolerances; used as the default truncation alarm threshold exponent.
DEFAULT_TARGET_DIGITS = 12


class LedgerRangeError(ValueError):
    """Evaluation point outside the ledger's covered interval."""


class TruncationWarning(UserWarning):
    """Taylor degree J too small for the requested target precision."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation and precision parameters for omega work.

    max_interval last Taylor block n* (tail handled analytically)
    taylor_degree J, the per-block truncation degree
    precision    working decimal digits
    """

    max_interval: int = 200
    taylor_degree: int = 40
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.max_interval < 5:
            raise ValueError(f"max_interval must be >= 5, got {self.max_interval}")
        if self.taylor_degree < 8:
            raise ValueError(f"taylor_degree must be >= 8, got {self.taylor_degree}")
        if self.precision < 10:
            raise ValueError(f"precision must be >= 10, got {self.precision}")


@dataclass(frozen=True)
class OmegaBlock:
    """Taylor coefficients on [n, n+1) in z = 2(x-n) - 1.

    Blocks of omega and of Omega_K (``omega_k``) share this class.
    """

    n: int
    coeffs: Tuple[Decimal, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, z: Decimal, ctx: Context) -> Decimal:
        acc = Decimal(0)
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.multiply(acc, z), c)
        return acc

    def boundary_sum(self, ctx: Context) -> Decimal:
        """limit z -> 1, i.e. the value carried to the next knot."""
        s = Decimal(0)
        for c in self.coeffs:
            s = ctx.add(s, c)
        return s


class OmegaLedger:
    """Blocks 1..n* chained by the advance recurrence; immutable."""

    def __init__(self, blocks: List[OmegaBlock], config: QuadratureConfig):
        self.blocks = blocks  # blocks[0] is None; blocks[n] covers [n, n+1)
        self.config = config

    @property
    def max_interval(self) -> int:
        return self.config.max_interval

    def block(self, n: int) -> OmegaBlock:
        if not 1 <= n <= self.max_interval:
            raise LedgerRangeError(f"block {n} outside 1..{self.max_interval}")
        return self.blocks[n]


def _check_truncation(tail_coeff: Decimal, n: int, target_digits: int) -> None:
    if abs(tail_coeff) >= Decimal(1).scaleb(-(target_digits + 2)):
        warnings.warn(
            f"block {n}: |c[J]| = {tail_coeff:.2e} exceeds 1e-{target_digits + 2}; "
            f"increase the Taylor degree for {target_digits}-digit targets",
            TruncationWarning,
            stacklevel=3,
        )


def seed_omega(J: int = 40, p: int = DEFAULT_PRECISION) -> OmegaBlock:
    """Block 1: c[1, i] = (2/3)(-1/3)^i, the expansion of 1/x about 1.5."""
    ctx = context(p)
    coeffs = tuple(
        ctx.divide(Decimal(2 * (-1) ** i), Decimal(3 ** (i + 1))) for i in range(J + 1)
    )
    return OmegaBlock(1, coeffs)


def advance_omega(block: OmegaBlock, p: int = DEFAULT_PRECISION, *,
                  target_digits: int = DEFAULT_TARGET_DIGITS) -> OmegaBlock:
    """Derive block n+1 from block n."""
    n = block.n
    J = block.degree
    with localcontext(context(p)):
        divisor = Decimal(2 * n + 3)
        s = Decimal(0)
        for i, c in enumerate(block.coeffs):
            s += c * (Decimal(2 * (n + 1)) + Decimal((-1) ** i) / Decimal(i + 1))
        out = [s / divisor]
        for i in range(1, J + 1):
            out.append((block.coeffs[i - 1] / Decimal(i) - out[i - 1]) / divisor)
    _check_truncation(out[J], n + 1, target_digits)
    return OmegaBlock(n + 1, tuple(out))


def series_over_binomial(coeffs: Sequence[Decimal], r: Decimal, m: int,
                         length: int, p: int = DEFAULT_PRECISION) -> List[Decimal]:
    """Coefficients 0..length-1 of P(z) (1 + r z)^-m, P = sum_i coeffs[i] z^i.

    Matching powers of z in (1 + r z)^m D(z) = P(z) gives
    d_i = c_i - sum_{k=1..m} C(m, k) r^k d_{i-k}, O(length * m) operations.
    """
    with localcontext(context(p)):
        weights = [math.comb(m, k) * r ** k for k in range(1, m + 1)]
        out: List[Decimal] = []
        for i in range(length):
            d = coeffs[i] if i < len(coeffs) else Decimal(0)
            for k, w in enumerate(weights[:i], start=1):
                d -= w * out[i - k]
            out.append(d)
    return out


def build_omega_ledger(config: QuadratureConfig = QuadratureConfig(), *,
                       target_digits: int = DEFAULT_TARGET_DIGITS) -> OmegaLedger:
    """Chain blocks 1..n*; construction is sequential in n."""
    blocks: List[OmegaBlock] = [None]  # type: ignore[list-item]
    blocks.append(seed_omega(config.taylor_degree, config.precision))
    for n in range(1, config.max_interval):
        blocks.append(advance_omega(blocks[n], config.precision,
                                    target_digits=target_digits))
    return OmegaLedger(blocks, config)


def eval_omega(ledger: OmegaLedger, x) -> Decimal:
    """omega(x) for 1 <= x < n* + 1.

    Serves an integer x from the block starting at x (z = -1), so the
    half-open convention [n, n+1) applies everywhere.
    """
    p = ledger.config.precision
    ctx = context(p)
    xd = as_real(x, p)
    if xd < 1:
        raise LedgerRangeError(f"omega is defined on [1, inf), got {xd}")
    n = int(xd)
    if n > ledger.max_interval:
        raise LedgerRangeError(
            f"x = {xd} beyond ledger range [1, {ledger.max_interval + 1})"
        )
    z = ctx.subtract(ctx.multiply(Decimal(2), ctx.subtract(xd, Decimal(n))), Decimal(1))
    return ledger.block(n).eval(z, ctx)


def integrate_block(ledger: OmegaLedger, n: int, moment_order: int = 2) -> Decimal:
    """integral_n^{n+1} omega(t)/t^ell dt from block n's series, term by term.

    With r = 1/(2n+1) the integral is (2r)^ell sum_{even i} d_i/(i+1),
    d the coefficients of P(z) (1 + r z)^-ell.  The series is cut where
    the dropped terms total less than 10^-p: a coefficient d_i with
    i > J + K combines the coefficients b_k = C(ell+k-1, k) (-r)^k of
    (1 + r z)^-ell with k > K only, so the dropped d_i total at most
    sum_j |c_j| * sum_{k>K} |b_k|, and |b_{k+1}/b_k| = r (ell+k)/(k+1)
    falls as k grows.
    """
    if moment_order < 1:
        raise ValueError(f"moment_order must be >= 1, got {moment_order}")
    ell = moment_order
    block = ledger.block(n)
    p = ledger.config.precision
    with localcontext(context(p)):
        r = Decimal(1) / Decimal(2 * n + 1)
        eps = Decimal(1).scaleb(-p)
        weight = sum(abs(c) for c in block.coeffs)
        b, K = Decimal(1), 0  # b = |b_K|
        while True:
            b_next = b * r * (ell + K) / (K + 1)
            rho = r * (ell + K + 1) / (K + 2)
            if rho < 1 and weight * b_next < eps * (1 - rho):
                break
            b, K = b_next, K + 1
        d = series_over_binomial(block.coeffs, r, ell, block.degree + K + 1, p)
        total = sum(d[i] / (i + 1) for i in range(0, len(d), 2))
        return +((2 * r) ** ell * total)


@dataclass(frozen=True)
class MomentConstant:
    """ell * integral_1^inf omega(x)/x^ell dx with an explicit error budget.

    ``first_interval`` is the exact rational contribution of [1, 2]
    where omega(x) = 1/x; for ell = 2 it is exactly 3/4.
    """

    moment_order: int
    value: Decimal
    error_budget: Decimal
    first_interval: Fraction


def moment_constant(ledger: OmegaLedger, moment_order: int = 2) -> MomentConstant:
    """Assemble the moment constant from exact head, block integrals and tail.

    value = ell * [ (1 - 2^-ell)/ell  (exact, omega = 1/x on [1,2])
                  + sum_{n=2}^{n*-1} integrate_block(n)
                  + exp(-gamma) * n*^(1-ell) / (ell-1) ]          (tail)

    The budget is ell * (per-block Taylor truncation + series
    truncation) plus the 1e-4 tail band scaled by the tail weight.
    """
    ell = moment_order
    if ell < 2:
        raise ValueError(f"moment constant defined for orders >= 2, got {ell}")
    cfg = ledger.config
    n_star = cfg.max_interval
    first = Fraction(1) - Fraction(1, 2 ** ell)  # ell * (1 - 2^-ell)/ell
    with localcontext(context(cfg.precision)):
        eps = Decimal(1).scaleb(-cfg.precision)
        quad = Decimal(0)
        trunc = Decimal(0)
        for n in range(2, n_star):
            quad += integrate_block(ledger, n, ell)
            # evaluation error of a truncated block, with geometric slack,
            # and integrate_block's series cut, below (2/(2n+1))^ell 10^-p
            trunc += (3 * abs(ledger.block(n).coeffs[-1]) + eps) / Decimal(n) ** ell
        egamma = exp_neg_gamma(min(cfg.precision, 50))
        tail = egamma * Decimal(n_star) ** (1 - ell) / Decimal(ell - 1)
        value = Decimal(first.numerator) / Decimal(first.denominator) \
            + Decimal(ell) * (quad + tail)

        tail_band = Decimal("1e-4") * Decimal(n_star) ** (1 - ell) \
            * Decimal(ell) / Decimal(ell - 1)
        budget = +(Decimal(ell) * trunc + tail_band)
    return MomentConstant(ell, +value, budget, first)
