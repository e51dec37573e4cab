import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from buchstab.cli import main
from buchstab.numerics import DEFAULT_PRECISION, context
from buchstab.omega import (
    LedgerRangeError,
    QuadratureConfig,
    build_omega_ledger,
    eval_omega,
    integrate_block,
    moment_constant,
)
from buchstab.omega_k import OmegaBlock, OmegaKLedger, advance_omega_k
from oracles import GAMMA_100, exp_neg_gamma_100, moment_constant_reference

# Reference values frozen from independent high-precision quadrature of
# the closed forms (adaptive quadrature over the exact piecewise
# formulas, not this package's series integration).
OMEGA_2_5 = Decimal("0.562186043243265752791205246186")
OMEGA_3 = Decimal("0.564382393519981769805744040486")
INT_BLOCK2_ELL2 = Decimal("0.0914439706392268354186521629159")
# ell * integral_1^inf omega(u)/u^ell du = ell/(ell-1)! *
# integral_0^inf s^(ell-1) expm1(E1(s)) ds, from the Laplace transform
# 1 + L[Omega_1(u)/u](s) = exp(E1(s)), evaluated at 45 digits.
C_REFERENCE = Decimal("1.30720779891056809974468019429")
M3_REFERENCE = Decimal("1.08244755034333554720992016731")


@pytest.fixture(scope="module")
def ledger():
    return build_omega_ledger(QuadratureConfig())


def seed_omega(J: int, p: int) -> OmegaBlock:
    """Oracle block 1 of omega itself: c[1, i] = (2/3)(-1/3)^i, the
    expansion of 1/x about 1.5."""
    ctx = context(p)
    coeffs = tuple(
        ctx.divide(Decimal(2 * (-1) ** i), Decimal(3 ** (i + 1))) for i in range(J + 1)
    )
    return OmegaBlock(1, coeffs)


def advance_omega(block: OmegaBlock, p: int = DEFAULT_PRECISION) -> OmegaBlock:
    """Oracle block n+1 of omega from block n, by integrating
    d(x omega(x))/dx = omega(x-1) across one interval:

        c[n+1, 0] = (1/(2n+3)) sum_i c[n, i] (2(n+1) + (-1)^i / (i+1))
        c[n+1, i] = (c[n, i-1]/i - c[n+1, i-1]) / (2n+3),   i >= 1.
    """
    n = block.n
    with localcontext(context(p)):
        divisor = Decimal(2 * n + 3)
        s = Decimal(0)
        for i, c in enumerate(block.coeffs):
            s += c * (Decimal(2 * (n + 1)) + Decimal((-1) ** i) / Decimal(i + 1))
        out = [s / divisor]
        for i in range(1, len(block.coeffs)):
            out.append((block.coeffs[i - 1] / Decimal(i) - out[i - 1]) / divisor)
    return OmegaBlock(n + 1, tuple(out))


def trapezoid_block(ledger, n: int, log2_steps: int, ell: int) -> Decimal:
    """Oracle for integrate_block: the trapezoid rule with step 2^-log2_steps
    over block n's Taylor polynomial of Omega_1 = x omega, divided by
    t^(ell+1), evaluated at each grid point."""
    p = ledger.p
    coeffs = ledger.block(n).coeffs
    steps = 2 ** log2_steps
    with localcontext(context(p)):
        delta = Decimal(1) / Decimal(steps)

        def f(t: Decimal) -> Decimal:
            z = 2 * t - 1
            y = Decimal(0)
            for c in reversed(coeffs):
                y = y * z + c
            return y / (n + t) ** (ell + 1)

        values = [f(i * delta) for i in range(steps + 1)]
        return +(delta * (sum(values) - (values[0] + values[-1]) / 2))


def closed_form(x: Decimal, p: int = 30) -> Decimal:
    """omega on [1, 3): 1/x, then (1 + ln(x-1))/x."""
    ctx = context(p)
    if x < 2:
        return ctx.divide(Decimal(1), x)
    return ctx.divide(ctx.add(Decimal(1), ctx.ln(x - 1)), x)


def test_seed_coefficients(ledger):
    # block 1 of Omega_1 = x*omega is exactly the constant 1
    assert ledger.block(1).coeffs == (Decimal(1),)


def test_seed_geometric_sum_is_omega_of_one(ledger):
    assert abs(eval_omega(ledger, 1) - 1) < Decimal("1e-19")


def test_eval_at_midpoint_of_first_block(ledger):
    v = eval_omega(ledger, "1.5")
    assert abs(v - Decimal(2) / Decimal(3)) < Decimal("1e-28")


def test_advance_block2_values(ledger):
    assert abs(eval_omega(ledger, "2.5") - OMEGA_2_5) < Decimal("1e-19")
    right_limit = ledger.block(2).eval(Decimal(1), context(30)) / 3  # Omega_1(3-)/3
    assert abs(right_limit - OMEGA_3) < Decimal("1e-19")


def test_matches_omega_recurrence_oracle(ledger):
    # omega's own Taylor chain, kept here as an oracle for Omega_1(x)/x,
    # at a degree and precision well past the ledger's
    ctx = context(45)
    blocks = [None, seed_omega(90, 45)]
    for n in range(1, 199):
        blocks.append(advance_omega(blocks[n], 45))
    rng = random.Random(1975)
    for _ in range(2000):
        x = Decimal(repr(rng.uniform(1.0, 199.999)))
        n = int(x)
        z = 2 * (x - n) - 1
        assert abs(eval_omega(ledger, x) - blocks[n].eval(z, ctx)) < Decimal("1e-25"), x


def test_closed_form_agreement_tight(ledger):
    rng = random.Random(20240811)
    for _ in range(100):
        x = Decimal(repr(rng.uniform(1.0, 2.999)))
        if int(x) == 3:
            continue
        v = eval_omega(ledger, x)
        assert abs(v - closed_form(x)) < Decimal("1e-22"), x


def test_knot_continuity(ledger):
    ctx = context(30)
    for n in range(2, 201):
        left = ledger.block(n - 1).eval(Decimal(1), ctx) / n
        right = ledger.block(n).eval(Decimal(-1), ctx) / n
        assert abs(left - right) < Decimal("1e-25"), n


def test_selberg_band(ledger):
    egamma = exp_neg_gamma_100(30)
    rng = random.Random(7)
    xs = [Decimal(repr(rng.uniform(4.01, 200.0))) for _ in range(50)]
    xs += [Decimal(n) for n in range(5, 21)]
    for x in xs:
        assert abs(eval_omega(ledger, x) - egamma) < Decimal("1e-4"), x


def dickman_blocks(p: int, last: int):
    """Blocks 1..last of Omega_{-1}(x) = rho(x - 1), the Dickman function:
    block 2 from 1 - ln(x-1) on [2, 3), as ``seed_block2`` builds it for
    K > 0, and the rest by the package's advance at K = -1."""
    with localcontext(context(p)):
        coeffs = [1 - (Decimal(3) / 2).ln()]
        i = 1
        while Decimal(1) / (i * Decimal(3) ** i) >= Decimal(1).scaleb(-p):
            coeffs.append(Decimal((-1) ** i) / (i * Decimal(3) ** i))
            i += 1
    blocks = [OmegaBlock(1, (Decimal(1),)), OmegaBlock(2, tuple(coeffs))]
    while len(blocks) < last:
        blocks.append(advance_omega_k(blocks[-1], -1, p))
    return blocks


def test_dickman_rho_and_the_omega_deviation_bound():
    # rho(u) = Omega_{-1}(u + 1); Tenenbaum (III.6) bounds omega by it:
    # |omega(u) - exp(-gamma)| <= rho(u - 1)/u for u >= 1
    p = 60
    blocks = dickman_blocks(p, 25)
    ctx = context(p)

    def rho(u):
        x = ctx.add(ctx.create_decimal(u), 1)
        n = int(x)
        return blocks[n - 1].eval(ctx.subtract(ctx.multiply(2, x - n), 1), ctx)

    ten = context(10).plus  # the tabulated values, to 10 significant digits
    assert ten(Decimal("2.77017183772596e-11")) == ten(rho(10))
    assert ten(Decimal("2.46178282876492e-29")) == ten(rho(20))
    ledger = build_omega_ledger(QuadratureConfig(p))
    egamma = exp_neg_gamma_100(p)
    with localcontext(ctx):
        for j in range(240):  # u = 1.1, 1.2, ..., 25
            u = Decimal("1.1") + Decimal(j) / 10
            assert abs(eval_omega(ledger, u) - egamma) <= rho(u - 1) / u, u


def test_delay_equation_residual(ledger):
    h = Decimal("1e-6")
    for x in (Decimal("2.25"), Decimal("3.5"), Decimal("5.1"), Decimal("10.7")):
        g_plus = (x + h) * eval_omega(ledger, x + h)
        g_minus = (x - h) * eval_omega(ledger, x - h)
        derivative = (g_plus - g_minus) / (2 * h)
        assert abs(derivative - eval_omega(ledger, x - 1)) < Decimal("1e-6"), x


def test_coefficient_decay(ledger):
    # The first coefficient a block's cut drops is below 10^-30 |c_0|: for
    # block 2 it is 1/(L 3^L), for block n >= 3 alpha_{L-1}/((2n-1) L), with
    # alpha the series of the previous block over 1 + z/(2n-1).  Block 1 is
    # exactly 1 (test_seed_coefficients).
    for n in (2, 3, 7, 50, 150):
        coeffs = ledger.block(n).coeffs
        L = len(coeffs)
        with localcontext(context(40)):
            if n == 2:
                dropped = Decimal(1) / (L * Decimal(3) ** L)
            else:
                q = Decimal(-1) / (2 * n - 1)
                prev = ledger.block(n - 1).coeffs[:L]
                alpha = sum(c * q ** (L - 1 - j) for j, c in enumerate(prev))
                dropped = alpha / ((2 * n - 1) * L)
        assert abs(dropped) < abs(coeffs[0]) * Decimal("1e-30"), n
        mags = [abs(c) for c in coeffs]
        tail = mags[10:]
        assert all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1)), n


def test_block_eval_out_of_range(ledger):
    with pytest.raises(LedgerRangeError):
        eval_omega(ledger, "0.5")
    # past n* the ledger grows, like the Omega_1 ledger it is
    assert abs(eval_omega(ledger, "300.5") - exp_neg_gamma_100(30)) < Decimal("1e-4")


def test_integrate_first_block_closed_form(ledger):
    v = integrate_block(ledger, 1, moment_order=2)
    assert abs(v - Decimal("0.375")) < Decimal("1e-20")


def test_integrate_second_block_reference(ledger):
    v = integrate_block(ledger, 2, moment_order=2)
    assert abs(v - INT_BLOCK2_ELL2) < Decimal("1e-20")


def test_integrate_large_block_tail_form(ledger):
    egamma = exp_neg_gamma_100(30)
    for n in (50, 100):
        v = integrate_block(ledger, n, moment_order=2)
        expected = egamma * (Decimal(1) / n - Decimal(1) / (n + 1))
        assert abs(v - expected) < Decimal("1e-4") / (n * n)


def test_moment_constant_variance(ledger):
    const = moment_constant(ledger, 2)
    assert const.first_interval == Fraction(3, 4)
    assert abs(const.value - Decimal("1.3070")) < Decimal("1e-3")
    assert abs(const.value - C_REFERENCE) < Decimal("1e-27")


def test_moment_constant_third_order(ledger):
    const = moment_constant(ledger, 3)
    assert Decimal("1.0") < const.value < Decimal("1.2")
    assert abs(const.value - M3_REFERENCE) < Decimal("1e-27")


@pytest.mark.parametrize("p", [30, 40, 60])
@pytest.mark.parametrize("ell", [2, 3])
def test_moment_constant_budget_is_honest_and_tight(p, ell):
    # against blocks to 200 at p + 15 and a 100-digit gamma tail
    const = moment_constant(OmegaKLedger(1, p), ell)
    observed = abs(const.value - moment_constant_reference(p, ell))
    assert observed <= const.error_budget < Decimal(1).scaleb(2 - p)


@pytest.mark.parametrize("p", [30, 40, 60])
@pytest.mark.parametrize("ell", [2, 3])
def test_last_block_slope_meets_the_tail_bound(p, ell):
    # the Gronwall bound |omega(u) - a| <= M/n, u -> inf, at the block
    # where the quadrature ends, with a = 2 c1 and M from that block's
    # coefficients, its cut and the ledger allowance
    ledger = OmegaKLedger(1, p)
    moment_constant(ledger, ell)
    n = ledger.built_through
    c = ledger.block(n).coeffs
    with localcontext(context(p + 10)):
        M = (abs(c[0] - (2 * n + 1) * c[1]) + sum(map(abs, c[2:]))
             + abs(c[0]) * Decimal(1).scaleb(-p) * (1 + 10 * n))
        assert abs(2 * c[1] - exp_neg_gamma_100(p + 10)) <= M / n


def test_gamma_100_extends_gamma_50():
    # the 50-digit value the package held until its last caller went
    assert GAMMA_100.startswith("0.57721566490153286060651209008240243104215933593992")


def test_grid_convergence(ledger):
    # |trapezoid - integral| <= delta^2/12 max |f''| for f = omega/t^ell,
    # f'' = omega''/t^ell - 2 ell omega'/t^(ell+1) + ell (ell+1) omega/t^(ell+2),
    # bracketed by |omega| <= 0.6, |omega'| <= 0.3, |omega''| <= 0.8 on
    # [2, inf) (omega''(2+) = -3/4 is the largest).
    delta = Decimal(1) / Decimal(2 ** 8)
    for ell in (2, 3):
        for n in range(2, 20):
            dn = Decimal(n)
            f2 = (Decimal("0.8") + 2 * ell * Decimal("0.3") / dn
                  + ell * (ell + 1) * Decimal("0.6") / (dn * dn)) / dn ** ell
            gap = abs(integrate_block(ledger, n, ell) - trapezoid_block(ledger, n, 8, ell))
            assert gap <= delta * delta / 12 * f2, (ell, n)


def test_ledger_determinism():
    a = build_omega_ledger(QuadratureConfig())
    b = build_omega_ledger(QuadratureConfig())
    for n in range(1, 201):
        assert [str(c) for c in a.block(n).coeffs] == [
            str(c) for c in b.block(n).coeffs
        ]


@pytest.mark.parametrize("digits", [30, 40])
def test_cli_constant_carries_the_working_precision(capsys, digits):
    # the value is worked and rounded past the ambient 28 digits
    assert main(["constant", "--digits", str(digits)]) == 0
    value = Decimal(capsys.readouterr().out.splitlines()[0].split("=")[1])
    assert abs(value - C_REFERENCE) <= Decimal("1e-29")


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(precision=9)
