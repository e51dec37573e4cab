import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from buchstab.counts import (
    DERANGEMENTS,
    PERMUTATIONS,
    ComponentClass,
    MemoryCapError,
    build_table,
    component_class_by_name,
    distribution,
    tail_probability,
    variance,
    variance_series,
)
from oracles import brute_force_counts


@pytest.fixture(scope="module")
def table40():
    return build_table(PERMUTATIONS, 40)


def test_single_object():
    t = build_table(PERMUTATIONS, 1)
    assert t.row(1) == [1]


def test_row3(table40):
    assert table40.row(3) == [4, 0, 2]


def test_row10_spot_cells(table40):
    assert table40.cell(10, 1) == 2293839
    assert table40.cell(10, 2) == 525105
    assert table40.cell(10, 5) == 72576


def test_brute_force_examples():
    assert brute_force_counts(1) == [1]
    assert brute_force_counts(3) == [4, 0, 2]
    assert brute_force_counts(7) == [3186, 714, 420, 0, 0, 0, 720]


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force_counts(9)


def test_recurrence_matches_enumeration(table40):
    for n in range(1, 8):
        assert table40.row(n) == brute_force_counts(n)


def _row_via_unreduced_weights(klass, n, tables):
    """Independent path: the multinomial counting formula

        s(k, n) = sum_i (c_k^i / i!) n! / ((k!)^i (n-ki)!) * sum_{j>k} s(j, n-ki)

    with raw c_k and (k!)^i.  ``tables`` maps m -> row list for m < n."""
    fact = math.factorial
    row = [0] * (n + 1)
    for k in range(1, n // 2 + 1):
        ck = klass.c(k)
        acc = 0
        for i in range(1, n // k + 1):
            m = n - k * i
            coef_num = ck ** i * fact(n)
            coef_den = fact(k) ** i * fact(i) * fact(m)
            if m == 0:
                acc += coef_num // coef_den
            elif m >= k + 1:
                tail = sum(tables[m][j - 1] for j in range(k + 1, m + 1))
                if tail:
                    acc += tail * (coef_num // coef_den)
        row[k] = acc
    row[n] = klass.c(n)
    return row[1:]


@pytest.mark.parametrize("klass", [PERMUTATIONS, DERANGEMENTS])
def test_column_recurrence_matches_multinomial_formula(klass):
    t = build_table(klass, 60)
    rows = {}
    for n in range(1, 61):
        expected = _row_via_unreduced_weights(klass, n, rows)
        assert t.row(n) == expected
        rows[n] = expected


def test_derangements_are_permutations_with_column_1_swapped():
    perm = build_table(PERMUTATIONS, 50)
    der = build_table(DERANGEMENTS, 50)
    for n in range(1, 51):
        expected = [perm.suffix(n, 2)] + [perm.suffix(n, k) for k in range(2, n + 2)]
        assert [der.suffix(n, k) for k in range(1, n + 2)] == expected


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_structural_invariants(table40, n):
    row = table40.row(n)
    assert sum(row) == math.factorial(n)
    assert row[n - 1] == math.factorial(n - 1)
    for k in range(n // 2 + 1, n):
        assert row[k - 1] == 0
    assert table40.suffix(n, 1) == math.factorial(n)
    assert table40.suffix(n, n + 1) == 0


def test_derangement_totals():
    t = build_table(DERANGEMENTS, 9)
    d = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496]
    for n in range(1, 10):
        assert t.total(n) == d[n]
    assert t.cell(5, 1) == 0
    assert t.cell(6, 6) == 120


def test_probability_ops_require_permutations():
    t = build_table(DERANGEMENTS, 6)
    with pytest.raises(ValueError):
        distribution(t, 5)
    with pytest.raises(ValueError):
        variance(t, 5)


def test_probability_ops_read_the_floor_not_the_name():
    # a class named "permutations" with floor 2 counts derangements, whose
    # rows do not sum to n!; a class with floor 1 is the permutation class
    with pytest.raises(ValueError):
        distribution(build_table(ComponentClass("permutations", 2), 6), 6)
    perms = build_table(ComponentClass("perms", 1), 6)
    assert distribution(perms, 6) == distribution(build_table(PERMUTATIONS, 6), 6)
    assert tail_probability(perms, 6, 2) == tail_probability(build_table(PERMUTATIONS, 6), 6, 2)
    assert variance(perms, 6) == variance(build_table(PERMUTATIONS, 6), 6)


def test_tables_built_concurrently_match_a_single_thread_build():
    # the triangle map is shared state: four threads build tables of both
    # classes at one size, in shuffled order; every table reads right, and
    # all of them read the one triangle a single build made
    N = 150
    want = {klass: [build_table(klass, N).row(n) for n in range(1, N + 1)]
            for klass in (PERMUTATIONS, DERANGEMENTS)}
    jobs = [PERMUTATIONS, DERANGEMENTS] * 8
    random.Random(5).shuffle(jobs)
    barrier = threading.Barrier(4)

    def build(chunk):
        barrier.wait(timeout=60)
        return [(klass, build_table(klass, N)) for klass in chunk]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            chunks = pool.map(build, [jobs[i::4] for i in range(4)], timeout=120)
            built = [t for chunk in chunks for t in chunk]
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == len(jobs)
    assert len({id(table._triangle) for _, table in built}) == 1
    for klass, table in built:
        assert [table.row(n) for n in range(1, N + 1)] == want[klass]


def test_distribution_examples(table40):
    assert distribution(table40, 1).probs == (Fraction(1),)
    assert distribution(table40, 2).probs == (Fraction(1, 2), Fraction(1, 2))
    assert distribution(table40, 4).probs == (
        Fraction(15, 24), Fraction(3, 24), Fraction(0), Fraction(6, 24),
    )


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_distribution_sums_to_one(table40, n):
    d = distribution(table40, n)
    assert sum(d.probs) == 1
    assert all(0 <= p <= 1 for p in d.probs)


def test_tail_probability_examples(table40):
    assert tail_probability(table40, 3, 2) == Fraction(1, 3)
    assert tail_probability(table40, 5, 1) == 1
    assert tail_probability(table40, 4, 3) == Fraction(1, 4)


def test_moment_examples(table40):
    assert variance(table40, 2).mean == Fraction(3, 2)
    assert variance(table40, 2).second_moment == Fraction(5, 2)
    assert variance(table40, 1).second_moment == 1


def test_variance_examples(table40):
    assert variance(table40, 2).variance == Fraction(1, 4)
    assert variance(table40, 3).variance == Fraction(8, 9)


def test_variance_identity(table40):
    rep = variance(table40, 17)
    assert rep.variance == rep.second_moment - rep.mean ** 2
    assert rep.variance >= 0


def test_variance_series_small():
    t = build_table(PERMUTATIONS, 2)
    series = variance_series(t)
    assert series[0][0] == 1 and series[0][1] == 0
    assert series[1][1] == Fraction(1, 4)
    assert str(series[1][2])[:5] == "0.125"


def test_variance_series_agrees_with_variance(table40):
    series = variance_series(table40)
    for n in (5, 12, 40):
        assert series[n - 1][1] == variance(table40, n).variance


def test_memory_cap():
    with pytest.raises(MemoryCapError):
        build_table(PERMUTATIONS, 100000)


def test_out_of_range_queries(table40):
    with pytest.raises(IndexError):
        table40.row(41)
    with pytest.raises(IndexError):
        tail_probability(table40, 10, 11)
    with pytest.raises(IndexError):
        variance(table40, 0)


def test_class_registry():
    assert component_class_by_name("permutations") is PERMUTATIONS
    with pytest.raises(ValueError):
        component_class_by_name("graphs")
    with pytest.raises(ValueError):
        ComponentClass("no-2-cycles", 3)
