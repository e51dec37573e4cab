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

import functools
import math
from decimal import Context, Decimal, InvalidOperation, Overflow
from fractions import Fraction

__all__ = [
    "DEFAULT_PRECISION",
    "PrecisionError",
    "context",
    "factorial",
    "rational_to_real",
    "as_real",
    "int_str",
]

DEFAULT_PRECISION = 30


class PrecisionError(ValueError):
    """Raised when a precision request cannot be honoured."""


def context(p: int) -> Context:
    """Deterministic round-half-even context with ``p`` significant digits."""
    if p < 10:
        raise PrecisionError(f"precision must be >= 10 digits, got {p}")
    return Context(prec=p)


@functools.lru_cache(maxsize=None)
def _reader(p: int) -> Context:
    """A p-digit context shared by the conversions below, which only read
    its precision; it is never returned, so no caller can change it."""
    return context(p)


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
        d = _reader(p).create_decimal(x)
    except (InvalidOperation, Overflow):
        d = None
    if d is None or not d.is_finite():
        raise ValueError(f"not a finite number: {x!r}")
    return d


def int_str(n: int) -> str:
    """Digits of an exact integer; Decimal formats those too long for
    str() under CPython's default 4300-digit limit (str is faster)."""
    return str(n) if n.bit_length() < 14000 else f"{Decimal(n):f}"


def rational_to_real(q: Fraction, p: int = DEFAULT_PRECISION) -> Decimal:
    """Correctly rounded Decimal value of an exact rational."""
    return _reader(p).divide(Decimal(q.numerator), Decimal(q.denominator))
