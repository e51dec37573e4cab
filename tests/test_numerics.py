from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from buchstab.numerics import (
    PrecisionError,
    as_real,
    context,
    factorial,
    rational_to_real,
)
from oracles import exp_neg_gamma_100

# 30-digit reference values, cross-checked against an independent
# multiprecision source before being frozen here.
LN2_30 = Decimal("0.693147180559945309417232121458")
LN15_30 = Decimal("0.405465108108164381978013115464")
EXP_NEG_GAMMA_30 = Decimal("0.561459483566885169824143214791")


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(9) == 362880
    assert factorial(12) == 479001600


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def ln(x, p):
    """Natural logarithm under the package's p-digit context."""
    return context(p).ln(as_real(x, p))


def test_ln_reference_values():
    assert abs(ln(2, 30) - LN2_30) <= Decimal("1e-29")
    assert abs(ln("1.5", 30) - LN15_30) <= Decimal("1e-29")


def test_exp_neg_gamma_digits():
    # the package uses no value of gamma; the tests' references take
    # exp(-gamma) from the 100-digit oracle
    assert exp_neg_gamma_100(10) == Decimal("0.5614594836")
    assert abs(exp_neg_gamma_100(30) - EXP_NEG_GAMMA_30) <= Decimal("1e-29")


def test_rational_to_real():
    assert rational_to_real(Fraction(1, 4), 30) == Decimal("0.25")
    assert rational_to_real(Fraction(8, 9), 10) == Decimal("0.8888888889")
    assert rational_to_real(Fraction(3, 4), 30) == Decimal("0.75")


def test_precision_config_floor():
    assert context(30).prec == 30
    with pytest.raises(PrecisionError):
        context(9)


@given(st.fractions(), st.fractions())
def test_rational_round_trip(a, b):
    assert (a + b) - b == a


@given(st.floats(min_value=1.0, max_value=10.0, allow_nan=False))
@settings(max_examples=80)
def test_ln_precision_monotonicity(x):
    r30 = ln(x, 30)
    r60 = ln(x, 60)
    if r60 != 0:
        assert abs(r30 - Decimal(str(r60))) / abs(r60) < Decimal("1e-28")


@given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
@settings(max_examples=40)
def test_ln_deterministic(x):
    assert str(ln(x, 30)) == str(ln(x, 30))


def test_as_real_coercions():
    assert as_real(3, 30) == Decimal(3)
    assert as_real("2.5", 30) == Decimal("2.5")
    assert as_real(0.1, 30) == Decimal("0.1")  # via repr, not the binary float
    assert as_real(Fraction(1, 8), 30) == Decimal("0.125")
