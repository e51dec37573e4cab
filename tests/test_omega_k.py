import random
import sys
import threading
import time
from decimal import Decimal, localcontext

import pytest

from buchstab.numerics import context
from buchstab.omega import LedgerRangeError, QuadratureConfig, build_omega_ledger, eval_omega
from buchstab import omega_k
from buchstab.omega_k import (
    MAX_K,
    Expansion,
    OmegaBlock,
    OmegaKLedger,
    advance_omega_k,
    eval_omega_k,
    oracle_quadrature,
    proportion_large_smallest,
    seed_block1,
    seed_block2,
    series_over_binomial,
    table_values,
)
from oracles import SWITCH_SWEEP, OmegaKChain, exp_neg_gamma_100

ONE_PLUS_LN2 = Decimal("1.693147180559945309417232121458")
ONE_PLUS_LN32 = Decimal("1.405465108108164381978013115464")


@pytest.fixture(scope="module")
def ledger_k1():
    return OmegaKLedger(1)


@pytest.fixture(scope="module")
def ledger_k05():
    return OmegaKLedger("0.5")


def test_seed_block1():
    b = seed_block1()
    assert b.coeffs == (Decimal(1),)
    assert b.eval(Decimal("0.73"), context(30)) == 1


def test_seed_block2_k1():
    b = seed_block2(1, 30)
    assert abs(b.coeffs[0] - ONE_PLUS_LN32) < Decimal("2e-29")
    assert b.coeffs[1] == context(30).divide(Decimal(1), Decimal(3))


def test_seed_block2_half_right_limit():
    b = seed_block2("0.5", 30)
    limit = b.eval(Decimal(1), context(30))
    expected = 1 + context(30).ln(Decimal(2)) / 2
    assert abs(limit - expected) < Decimal("1e-20")
    # tabulated reference 1.3470 is within its coarser band
    assert abs(limit - Decimal("1.3470")) < Decimal("2e-3") * limit


def alpha_of(prev, n: int):
    """The advance's alpha: the coefficients of P_{n-1}(z) (1 + z/(2n-1))^-1."""
    with localcontext(context(30)):
        return series_over_binomial(prev.coeffs, 1 / Decimal(2 * n - 1), 1,
                                    len(prev.coeffs))


def test_alpha_from_constant_block():
    b1 = OmegaBlock(1, (Decimal(1),) + (Decimal(0),) * 12)
    alpha = alpha_of(b1, 3)
    for i, a in enumerate(alpha):
        expected = Decimal(-1) ** i / Decimal(5) ** i
        assert abs(a - expected) < Decimal("1e-28"), i


def alpha_convolution(prev, n: int, p: int = 30):
    """Oracle for alpha_of: the O(J^2) convolution of the previous
    block with the powers of -1/(2n-1)."""
    J = len(prev.coeffs) - 1
    with localcontext(context(p)):
        q = Decimal(-1) / Decimal(2 * n - 1)
        powers = [Decimal(1)]
        for _ in range(J):
            powers.append(powers[-1] * q)
        return [sum((powers[i - j] * prev.coeffs[j] for j in range(i + 1)), Decimal(0))
                for i in range(J + 1)]


def test_alpha_matches_convolution(ledger_k1, ledger_k05):
    for ledger in (ledger_k1, ledger_k05):
        for n in (3, 4, 7, 40, 150):
            prev = ledger.block(n - 1)
            got = alpha_of(prev, n)
            want = alpha_convolution(prev, n, 30)
            assert max(abs(a - b) for a, b in zip(got, want)) < Decimal("1e-28"), n


def test_advance_derives_blocks_from_the_third_on():
    with pytest.raises(ValueError, match="n >= 3"):
        advance_omega_k(seed_block1(), 1)


def test_concurrent_growth_keeps_block_order():
    # four threads ask for block 120 at once: the chain grows once, in
    # order, to the switch block, and every block is a sequential ledger's
    sequential = OmegaKLedger("0.5")
    ledger = OmegaKLedger("0.5")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ledger.ensure, args=(120,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    sequential.ensure(120)
    assert ledger.built_through == sequential.built_through == sequential.switch.n0 < 120
    assert [ledger.block(n) for n in range(1, 121)] == \
        [sequential.block(n) for n in range(1, 121)]


def test_concurrent_reads_match_sequential_values():
    # a grown ledger is read without a lock: threads that share it must
    # get exactly the values a single thread gets
    ledger = build_omega_ledger(QuadratureConfig())
    ledger.ensure(200)
    grown = ledger.built_through
    rng = random.Random(5)
    xs = [f"{rng.uniform(1, 41):.7f}" for _ in range(60)]

    def values():
        return [(str(eval_omega_k(ledger, x)), str(eval_omega(ledger, x))) for x in xs]

    expected = values()
    results = [None] * 4

    def read(slot):
        results[slot] = [values() for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert ledger.built_through == grown
    assert results == [[expected] * 5] * 4


def test_alpha_first_entry_is_previous_c0(ledger_k1):
    prev = ledger_k1.block(4)
    alpha = alpha_of(prev, 5)
    assert alpha[0] == prev.coeffs[0]


def test_alpha_from_block2():
    b2 = seed_block2(1, 30)
    alpha = alpha_of(b2, 3)
    expected = b2.coeffs[1] - b2.coeffs[0] / 5
    assert abs(alpha[1] - expected) < Decimal("1e-28")
    assert abs(alpha[1] - Decimal("0.05224031171")) < Decimal("1e-10")


def test_eval_constant_region(ledger_k1):
    assert eval_omega_k(ledger_k1, "1.7") == 1


def test_eval_at_three(ledger_k1):
    assert abs(eval_omega_k(ledger_k1, 3) - ONE_PLUS_LN2) < Decimal("1e-19")


def test_block3_against_oracle(ledger_k1):
    v = eval_omega_k(ledger_k1, "3.5")
    o = oracle_quadrature(1, "3.5", "1e-10")
    assert abs(v - o) < Decimal("1e-8")


def _max_knot_mismatch(ledger, n_max, p):
    ctx = context(p)
    ledger.ensure(n_max)
    return max(
        abs(ledger.block(n - 1).eval(Decimal(1), ctx)
            - ledger.block(n).eval(Decimal(-1), ctx))
        for n in range(2, n_max)
    )


def test_knot_continuity(ledger_k1):
    assert _max_knot_mismatch(ledger_k1, 201, 30) < Decimal("1e-25")


def test_knot_continuity_tight_at_higher_degree(ledger_k05):
    # the block lengths follow the precision, so the mismatch bound does too
    assert _max_knot_mismatch(ledger_k05, 201, 30) < Decimal("1e-25")
    fine = OmegaKLedger("0.5", 40)
    assert _max_knot_mismatch(fine, 201, 40) < Decimal("1e-35")
    assert len(fine.block(200).coeffs) > len(ledger_k05.block(200).coeffs)


def test_monotone_in_x(ledger_k05):
    xs = ["1.5", "2.5", "3.25", 5, "7.75", 20, 100, 1000]
    vals = [eval_omega_k(ledger_k05, x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_derivative_law(ledger_k1, ledger_k05):
    h = Decimal("1e-6")
    for ledger, K in ((ledger_k1, Decimal(1)), (ledger_k05, Decimal("0.5"))):
        for x in (Decimal("3.5"), Decimal("5.25"), Decimal("9.1")):
            num = (eval_omega_k(ledger, x + h) - eval_omega_k(ledger, x - h)) / (2 * h)
            rhs = K * eval_omega_k(ledger, x - 1) / (x - 1)
            assert abs(num - rhs) < Decimal("1e-6"), (K, x)


def test_linearity_in_k_on_first_log_interval():
    k = OmegaKLedger("0.3")
    k2 = OmegaKLedger("0.6")
    for x in ("2.125", "2.5", "2.875"):
        single = eval_omega_k(k, x) - 1
        double = eval_omega_k(k2, x) - 1
        assert abs(double - 2 * single) < Decimal("1e-22"), x


def test_tiny_k_stays_near_one():
    lk = OmegaKLedger("1e-9")
    v = eval_omega_k(lk, 10)
    assert abs(v - 1) < Decimal("1e-8")
    # deviation from 1 is proportional to K
    lk2 = OmegaKLedger("2e-9")
    v2 = eval_omega_k(lk2, 10)
    assert abs((v2 - 1) - 2 * (v - 1)) < Decimal("1e-16")


def test_doubling_growth_k1(ledger_k1):
    lo = Decimal("1.99")
    hi = Decimal("2.01")
    for x in (2048, 4096):
        ratio = eval_omega_k(ledger_k1, 2 * x) / eval_omega_k(ledger_k1, x)
        assert lo <= ratio <= hi, x


def test_large_x_linear_growth_k1(ledger_k1):
    # x * omega(x) solves the same delay equation with the same start,
    # so Omega_1(x)/x approaches exp(-gamma)
    v = eval_omega_k(ledger_k1, 8192) / 8192
    assert abs(v - exp_neg_gamma_100(30)) < Decimal("1e-8")


def test_proportions(ledger_k1, ledger_k05):
    assert proportion_large_smallest(ledger_k1, "1.5") == 1
    p1 = proportion_large_smallest(ledger_k1, 8192)
    assert abs(p1 - Decimal("0.000218")) / Decimal("0.000218") < Decimal("0.05")
    p05 = proportion_large_smallest(ledger_k05, 8192)
    assert abs(p05 - Decimal("0.0131")) / Decimal("0.0131") < Decimal("0.05")


def test_proportion_domain(ledger_k1):
    with pytest.raises(LedgerRangeError):
        proportion_large_smallest(ledger_k1, 1)


def test_eval_domain(ledger_k1):
    with pytest.raises(LedgerRangeError):
        eval_omega_k(ledger_k1, "0.99")


def test_table_values(ledger_k1):
    rows = table_values(ledger_k1, [2, "2.5", 3])
    assert abs(rows[0][1] - 1) < Decimal("1e-19")
    assert abs(rows[1][1] - ONE_PLUS_LN32) < Decimal("1e-19")
    assert abs(rows[2][1] - ONE_PLUS_LN2) < Decimal("1e-19")


def test_oracle_trivial_cases():
    assert oracle_quadrature("0.5", 2, "1e-10") == 1
    assert oracle_quadrature(1, "1.25", "1e-10") == 1


def test_oracle_log_value():
    v = oracle_quadrature(1, 3, "1e-10")
    assert abs(v - ONE_PLUS_LN2) < Decimal("1e-10")


def test_oracle_domain():
    with pytest.raises(ValueError):
        oracle_quadrature(1, 31, "1e-10")
    with pytest.raises(ValueError):
        oracle_quadrature(1, 5, "1e-13")
    with pytest.raises(ValueError):
        oracle_quadrature(-1, 5, "1e-10")


def test_oracle_agreement(ledger_k1, ledger_k05):
    for K, ledger in (("1", ledger_k1), ("0.5", ledger_k05)):
        for x in ("2.5", "3", "4.5", "7", "10", "20"):
            lv = eval_omega_k(ledger, x)
            ov = oracle_quadrature(K, x, "1e-10")
            assert abs(lv - ov) < Decimal("1e-8"), (K, x)


def test_oracle_nondyadic_points(ledger_k1):
    for x in ("2.7", "3.14159", "9.999"):
        lv = eval_omega_k(ledger_k1, x)
        ov = oracle_quadrature(1, x, "1e-10")
        assert abs(lv - ov) < Decimal("1e-9"), x


def test_k_validation():
    with pytest.raises(ValueError):
        OmegaKLedger(0)
    with pytest.raises(ValueError):
        seed_block2(-1)
    with pytest.raises(ValueError, match=f"<= {MAX_K}"):
        OmegaKLedger(MAX_K + Decimal("0.001"))
    assert OmegaKLedger(MAX_K).K == MAX_K


def test_huge_x_costs_one_block():
    # past the switch block x may have any size: the block index stays a
    # Decimal, and a value past the exponent range is a range error
    ledger = OmegaKLedger(1)
    with localcontext(context(30)):
        for x in ("1e20", "1e100000"):
            far = eval_omega_k(ledger, x) / (Decimal(x) * exp_neg_gamma_100(30))
            assert abs(far - 1) <= ledger.switch.bound, x
    start = time.perf_counter()
    with pytest.raises(LedgerRangeError, match="exponent"):
        eval_omega_k(ledger, "9e999999")
    assert time.perf_counter() - start < 0.1
    with pytest.raises(LedgerRangeError, match="exponent"):
        eval_omega_k(OmegaKLedger("40.5"), "1e30000")
    assert ledger.built_through == ledger.switch.n0 == 19


# The switch block of each (K, p): the first chain block the large-x
# expansion fits within n 10^-p Omega_K(n).
SWITCH_BLOCKS = {("0.25", 30): 20, ("0.5", 30): 23, ("1", 30): 19, ("2", 30): 22,
                 ("0.5", 40): 30, ("1e-9", 30): 16, ("31.5", 30): 41}


@pytest.mark.parametrize("K, p", sorted(SWITCH_BLOCKS))
def test_expansion_blocks_meet_a_finer_chain(K, p):
    # blocks past the switch block come from the expansion: at 56 points of
    # [n0, 8192] they meet a chain with 15 more digits within the stated bound
    ledger = OmegaKLedger(K, p)
    ledger.ensure(8192)
    n0 = ledger.switch.n0
    assert n0 == ledger.built_through == SWITCH_BLOCKS[K, p]
    rng = random.Random(f"{K}/{p}")
    xs = [f"{n0 + (8192 - n0) * (j / 55) ** 3:.6f}" for j in range(56)]
    xs = [f"{min(float(x) + rng.random(), 8192.999):.6f}" for x in xs]
    chain = OmegaKChain(K, p + 15)
    with localcontext(context(p + 20)):
        worst = max(abs(eval_omega_k(ledger, x) / chain.value(x) - 1) for x in xs)
    assert worst <= ledger.switch.bound < Decimal(12 * n0).scaleb(-p)


@pytest.mark.parametrize("K, p", sorted(SWITCH_BLOCKS))
def test_expansion_joins_the_chain_at_the_switch_block(K, p):
    ledger = OmegaKLedger(K, p)
    ledger.ensure(200)
    n0, ctx = ledger.switch.n0, context(p)
    left = ledger.block(n0).eval(Decimal(1), ctx)
    right = ledger.block(n0 + 1).eval(Decimal(-1), ctx)
    assert abs(right / left - 1) <= ledger.switch.bound


@pytest.mark.parametrize("K, p", SWITCH_SWEEP)
def test_every_k_switches_and_meets_a_finer_chain(K, p):
    # each K of the domain, from tiny ones whose blocks are constant at p
    # digits to MAX_K, switches within 100 blocks, and its values up to
    # x = 1000 meet a chain with 15 more digits within the stated bound
    ledger = OmegaKLedger(K, p)
    ledger.ensure(1000)
    n0 = ledger.switch.n0
    assert n0 == ledger.built_through <= 100
    rng = random.Random(f"{K}/{p}")
    xs = [f"{n0 + (1000 - n0) * (j / 5) ** 3 + rng.random():.6f}" for j in range(6)]
    chain = OmegaKChain(K, p + 15)
    with localcontext(context(p + 20)):
        worst = max(abs(eval_omega_k(ledger, x) / chain.value(x) - 1) for x in xs)
    assert worst <= ledger.switch.bound


@pytest.mark.parametrize("K, a", [(1, [1]), (2, [1, 2]), (3, [1, 6, "7.5"])])
def test_expansion_of_integer_k_stops(monkeypatch, K, a):
    # a_n = 0 for n >= K, so S_J is exact (S = x, x^2 + 2x, x^3 + 6x^2 + 7.5x)
    # and its residual vanishes; J = K - 1 keeps just those terms
    exp = Expansion(Decimal(K), 30)
    assert (exp.J, exp.a, exp.gamma) == (K - 1, [Decimal(c) for c in a], 0)
    monkeypatch.setattr(omega_k, "_order", lambda K, p: p)
    full = Expansion(Decimal(K), 30)
    assert full.J == 30 and full.a[:K] == exp.a
    assert all(c == 0 for c in full.a[K:]) and full.gamma == 0


def test_fit_at_k1_is_the_moment_constants_slope(ledger_k1):
    # the moment quadrature's tail constant a = 2 c1 and its bound M
    eps = Decimal(1).scaleb(-30)
    for n in (3, 10, 19, 40):
        c = ledger_k1.block(n).coeffs
        with localcontext(context(30)):
            M = abs(c[0] - (2 * n + 1) * c[1]) + sum(map(abs, c[2:])) + abs(c[0]) * eps
            assert Expansion(Decimal(1), 30).fit(ledger_k1.block(n)) == (2 * c[1], M)


def test_threads_read_expansion_blocks_in_any_order():
    # four threads read blocks past the switch block of one fresh ledger,
    # each in its own shuffled order, and get the blocks a single thread gets
    blocks = list(range(20, 400, 7)) + [8192]
    alone = OmegaKLedger("0.5")
    expected = {n: alone.block(n) for n in blocks}
    ledger = OmegaKLedger("0.5")
    results = [None] * 4

    def read(slot):
        order = blocks[:]
        random.Random(slot).shuffle(order)
        results[slot] = {n: ledger.block(n) for n in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4
    assert ledger.switch == alone.switch


def test_threads_read_far_values_through_one_expansion_slot():
    # a ledger keeps one expansion block, so four threads reading shuffled
    # x past the switch block replace it under each other's reads: each
    # must still get the value a single thread gets
    rng = random.Random(11)
    xs = [f"{rng.uniform(30, 8000):.6f}" for _ in range(60)]
    alone = OmegaKLedger("0.5")
    expected = {x: eval_omega_k(alone, x) for x in xs}
    ledger = OmegaKLedger("0.5")
    ledger.ensure(30)
    results = [None] * 4

    def read(slot):
        order = xs * 3
        random.Random(slot).shuffle(order)
        results[slot] = [x for x in order if eval_omega_k(ledger, x) != expected[x]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [[]] * 4
