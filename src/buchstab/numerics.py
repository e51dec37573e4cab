"""Exact and fixed-precision arithmetic primitives.

Three kinds of numbers are used throughout the package:

* exact non-negative integers (Python ``int``) for counts and factorials,
* exact rationals (``fractions.Fraction``) for probabilities and moments,
* fixed-precision reals (``decimal.Decimal``) for Taylor coefficients,
  quadrature and constants.

Every Decimal operation is performed under an explicit context with
``p`` significant decimal digits and round-half-even, so a computation
repeated with the same inputs and the same precision produces
bit-identical digits.  Relative rounding error per operation is below
``10**(1 - p)``.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, InvalidOperation, Overflow, localcontext
from fractions import Fraction

__all__ = [
    "DEFAULT_PRECISION",
    "GAMMA_50",
    "PrecisionError",
    "context",
    "factorial",
    "exp_neg_gamma",
    "rational_to_real",
    "as_real",
    "int_str",
]

DEFAULT_PRECISION = 30

# Euler-Mascheroni constant, 50 digits, vetted against standard tables.
GAMMA_50 = "0.57721566490153286060651209008240243104215933593992"


class PrecisionError(ValueError):
    """Raised when a precision request cannot be honoured."""


def context(p: int) -> Context:
    """Deterministic round-half-even context with ``p`` significant digits."""
    if p < 10:
        raise PrecisionError(f"precision must be >= 10 digits, got {p}")
    return Context(prec=p)


def factorial(n: int) -> int:
    """n! as an exact integer; n must be a non-negative integer."""
    if n < 0:
        raise ValueError(f"factorial undefined for negative n ({n})")
    return math.factorial(n)


def as_real(x, p: int = DEFAULT_PRECISION) -> Decimal:
    """Coerce int/str/Decimal/Fraction/float to Decimal at precision p.

    Floats go through repr() so that e.g. 0.1 means the literal "0.1".
    A str, int or float that is not a finite number, or whose exponent
    overflows the context, raises ValueError.
    """
    if isinstance(x, Decimal):
        return x
    if isinstance(x, Fraction):
        return rational_to_real(x, p)
    if isinstance(x, float):
        x = repr(x)
    try:
        d = context(p).create_decimal(x)
    except (InvalidOperation, Overflow):
        d = None
    if d is None or not d.is_finite():
        raise ValueError(f"not a finite number: {x!r}")
    return d


def int_str(n: int) -> str:
    """Digits of an exact integer; Decimal formats those too long for
    str() under CPython's default 4300-digit limit (str is faster)."""
    return str(n) if n.bit_length() < 14000 else f"{Decimal(n):f}"


def exp_neg_gamma(p: int = DEFAULT_PRECISION) -> Decimal:
    """e**(-gamma) to p digits, 1 <= p <= 50, from the stored 50-digit
    gamma literal: more digits are refused rather than returned wrong."""
    if p > 50:
        raise PrecisionError(f"exp_neg_gamma supports at most 50 digits, got {p}")
    if p < 1:
        raise PrecisionError(f"precision must be >= 1 digit, got {p}")
    with localcontext(Context(prec=p + 10)):
        val = (-Decimal(GAMMA_50)).exp()
    return Context(prec=p).plus(val)


def rational_to_real(q: Fraction, p: int = DEFAULT_PRECISION) -> Decimal:
    """Correctly rounded Decimal value of an exact rational."""
    ctx = context(p)
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))
