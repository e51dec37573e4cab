"""Exact enumeration of smallest-component sizes.

Let s(k, n) be the number of labelled objects of size n whose smallest
component has exactly k elements; for permutations the components are
cycles.  Each row is stored as its suffix-sum array: row n keeps
T(k, n) = sum_{j>=k} s(j, n), the number of permutations of size n
whose cycles all have at least k elements, for k = 1..n+1.  Tail
probabilities are read off directly, and cells are recovered by
differencing two adjacent suffix entries.

The exponential generating function F of permutations with every cycle
of size >= k satisfies (1-z) F' = z^(k-1) F (Flajolet & Sedgewick,
Analytic Combinatorics, ch. II), which gives one column at a time

    T(k, n) = (n-1) T(k, n-1) + (n-1)!/(n-k)! T(k, n-k),
    T(k, 0) = 1,  T(k, m) = 0 for 0 < m < k,

with T(1, n) = n!.  The falling factorial (n-1)!/(n-k)! is carried
down the column, so each cell costs O(1) big-integer operations.

These rows form one class-free triangle per size N, the K = 1 triangle.
A component class is a column floor over it: the class whose components
all have at least m elements counts T(max(k, m), n) objects of size n
with every component >= k, so column k < m reads column m.  Derangements
(m = 2) are the permutation triangle with column 1 read as column 2.
Every live table of size N reads the same triangle, whatever its class.

Structural facts used as invariants: s(n, n) = (n-1)! for every allowed
n, s(k, n) = 0 for floor(n/2)+1 <= k <= n-1, and for permutations rows
sum to n!.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from decimal import Decimal

from .numerics import DEFAULT_PRECISION, factorial, rational_to_real

__all__ = [
    "MemoryCapError",
    "ComponentClass",
    "PERMUTATIONS",
    "DERANGEMENTS",
    "component_class_by_name",
    "CountTable",
    "SmallestDistribution",
    "MomentReport",
    "build_table",
    "distribution",
    "tail_probability",
    "variance",
    "variance_series",
    "estimate_table_bytes",
]

MEMORY_CAP = 2 << 30  # 2 GiB

class MemoryCapError(MemoryError):
    """Estimated table size exceeds MEMORY_CAP."""

    exit_code = 3  # the command line's resource-cap status


class ComponentClass(NamedTuple("ComponentClass", [("name", str), ("smallest", int)])):
    """Permutations whose cycles all have at least ``smallest`` elements:
    a column floor over the K = 1 triangle, whose suffix column k reads
    column ``max(k, smallest)``.

    There are c_k = (k-1)! components of each allowed size k.  Only a
    class with floor 1, whose rows sum to n!, carries probability
    semantics; derangements (smallest = 2) yield raw counts only.
    """

    __slots__ = ()

    def __new__(cls, name: str, smallest: int):
        if smallest not in (1, 2):  # every row n >= 1 holds columns 1 and 2
            raise ValueError(f"smallest component size must be 1 or 2, "
                             f"got {smallest}")
        return super().__new__(cls, name, smallest)

    def c(self, k: int) -> int:
        return factorial(k - 1) if k >= self.smallest else 0


PERMUTATIONS = ComponentClass("permutations", 1)
DERANGEMENTS = ComponentClass("derangements", 2)

_BUILTIN_CLASSES = {c.name: c for c in (PERMUTATIONS, DERANGEMENTS)}


def component_class_by_name(name: str) -> ComponentClass:
    try:
        return _BUILTIN_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown component class {name!r}; available: "
            f"{sorted(_BUILTIN_CLASSES)}"
        ) from None


def estimate_table_bytes(N: int, cap: int) -> int:
    """Rough upper estimate of suffix-table memory for size N, or a lower
    bound on it once the running total passes ``cap``.

    Row n holds n+2 integers of at most lg(n!) bits; CPython stores ints
    in 30-bit digits with ~28 bytes of object overhead.
    """
    total = 0
    for n in range(1, N + 1):
        bits = math.lgamma(n + 1) / math.log(2) + 1
        total += (n + 2) * (28 + 4 * (int(bits) // 30 + 1))
        if total > cap:
            break
    return total


class _Triangle:
    """The class-free suffix triangle up to size N: ``rows[n][k]`` is
    T(k, n) for k = 1..n+1 (entry 0 unused), ``fact[n]`` is n!."""

    __slots__ = ("rows", "fact", "__weakref__")

    def __init__(self, rows: List[List[int]], fact: List[int]):
        self.rows = rows
        self.fact = fact


# The triangles of live tables.  A table holds its triangle, so one lives
# as long as any table of its size; then it is freed and its entry goes.
# The key is the triangle's only parameter, N; a recurrence with a factor
# K would key it by (K, N).
_TRIANGLES: weakref.WeakValueDictionary[int, _Triangle] = weakref.WeakValueDictionary()
_TRIANGLES_LOCK = threading.Lock()


class CountTable:
    """Triangular table of exact smallest-component counts up to size N:
    a class's view of the shared suffix triangle of size N.

    Suffix column k reads triangle column ``max(k, klass.smallest)``;
    ``cell``/``row`` difference adjacent entries.  Instances and the
    triangle they read are immutable after construction and safe to
    share between threads.
    """

    def __init__(self, klass: ComponentClass, N: int, triangle: _Triangle):
        self.klass = klass
        self.N = N
        self._triangle = triangle  # keeps the shared triangle alive
        self._rows = triangle.rows
        self._floor = klass.smallest

    def suffix(self, n: int, k: int) -> int:
        """sum_{j>=k} s(j, n) for 1 <= k <= n+1."""
        self._check_n(n)
        if not 1 <= k <= n + 1:
            raise IndexError(f"k={k} out of range 1..{n + 1}")
        return self._rows[n][max(k, self._floor)]

    def cell(self, n: int, k: int) -> int:
        """s(k, n): objects of size n with smallest component exactly k."""
        self._check_n(n)
        if not 1 <= k <= n:
            raise IndexError(f"k={k} out of range 1..{n}")
        if k < self._floor:
            return 0
        row = self._rows[n]
        return row[k] - row[k + 1]

    def row(self, n: int) -> List[int]:
        """[s(1, n), ..., s(n, n)]."""
        self._check_n(n)
        row, floor = self._rows[n], self._floor
        return [0] * (floor - 1) + list(map(operator.sub, row[floor:n + 1], row[floor + 1:]))

    def total(self, n: int) -> int:
        """Number of objects of size n (n! for permutations)."""
        self._check_n(n)
        return self._rows[n][self._floor]

    def factorial(self, n: int) -> int:
        return self._triangle.fact[n]

    def _check_n(self, n: int) -> None:
        if not 1 <= n <= self.N:
            raise IndexError(f"n={n} out of range 1..{self.N}")

    def _require_permutations(self, what: str) -> None:
        if self._floor != 1:
            raise ValueError(
                f"{what} is defined only for a class with smallest component 1 "
                f"(probability normalisation by n!), not {self.klass.name!r} "
                f"with smallest component {self._floor}"
            )


def _build_triangle(N: int) -> _Triangle:
    """Fill suffix column k = 2..N by the column recurrence of the module
    docstring, one big-integer step per cell, and write each entry into
    the row triangle, whose column 1 is n!.  Entries with k <= n < 2k
    count single n-cycles and are (n-1)!, so they share the factorial
    integers, as column 1 does."""
    fact = [1] * (N + 1)
    for j in range(1, N + 1):
        fact[j] = fact[j - 1] * j

    rows: List[List[int]] = [[]] + [[0, fact[n]] + [0] * n for n in range(1, N + 1)]
    for k in range(2, N + 1):
        # a single n-cycle for k <= n < 2k: T(k, n) = (n-1)!
        col = [1] + [0] * (k - 1) + fact[k - 1:min(2 * k - 1, N)]
        ff = math.perm(2 * k - 1, k - 1)  # (n-1)!/(n-k)! at n = 2k
        for n in range(2 * k, N + 1):
            col.append((n - 1) * col[n - 1] + ff * col[n - k])
            ff = ff * n // (n + 1 - k)
        for n in range(k, N + 1):
            rows[n][k] = col[n]
    return _Triangle(rows, fact)


def build_table(klass: ComponentClass = PERMUTATIONS, N: int = 100) -> CountTable:
    """The exact count table of ``klass`` for sizes 1..N.

    The table is a view of the size-N suffix triangle, which is built
    only when no live table of size N already holds one, so tables of
    several classes at one size share one build and its memory.  A
    finished table is immutable.  Raises MemoryCapError when the size
    estimate exceeds ``MEMORY_CAP`` bytes.
    """
    if N < 1:
        raise ValueError(f"table size must be >= 1, got {N}")
    est = estimate_table_bytes(N, MEMORY_CAP)
    if est > MEMORY_CAP:
        raise MemoryCapError(
            f"estimated table size of at least {est / 2**20:.0f} MiB exceeds cap "
            f"{MEMORY_CAP / 2**20:.0f} MiB (N={N})"
        )
    with _TRIANGLES_LOCK:
        triangle = _TRIANGLES.get(N)
        if triangle is None:
            triangle = _TRIANGLES[N] = _build_triangle(N)
    return CountTable(klass, N, triangle)


class SmallestDistribution(NamedTuple):
    """Exact law of the smallest-component size at a fixed object size."""

    n: int
    probs: Tuple[Fraction, ...]  # index k-1 holds P{X_n = k}

    def prob(self, k: int) -> Fraction:
        if not 1 <= k <= self.n:
            raise IndexError(f"k={k} out of range 1..{self.n}")
        return self.probs[k - 1]


class MomentReport(NamedTuple):
    """Exact first two moments and variance of the smallest-component size."""

    n: int
    mean: Fraction
    second_moment: Fraction
    variance: Fraction
    variance_over_n: Decimal


def distribution(table: CountTable, n: int) -> SmallestDistribution:
    """P{X_n = k} = s(k, n) / n! as exact rationals summing to 1; the
    zero cells (about half of each row) share one Fraction."""
    table._require_permutations("distribution")
    table._check_n(n)
    fn, zero = table.factorial(n), Fraction(0)
    probs = tuple(Fraction(c, fn) if c else zero for c in table.row(n))
    return SmallestDistribution(n, probs)


def tail_probability(table: CountTable, n: int, k: int) -> Fraction:
    """P{X_n >= k}, read from the cached suffix sums."""
    table._require_permutations("tail_probability")
    table._check_n(n)
    if not 1 <= k <= n:
        raise IndexError(f"k={k} out of range 1..{n}")
    return Fraction(table.suffix(n, k), table.factorial(n))


def _variance(table: CountTable, n: int, p: int) -> Tuple[int, int, Fraction, Decimal]:
    """(n! E[X_n], n! E[X_n^2], Var(X_n), Var(X_n)/n), the sums read off
    the suffix row: sum_k k s(k, n) = sum_k T(k, n) and
    sum_k k^2 s(k, n) = sum_k (2k-1) T(k, n)."""
    suffix = table._rows[n][1:n + 1]
    s1 = sum(suffix)
    s2 = sum(map(operator.mul, range(1, 2 * n, 2), suffix))
    fn = table.factorial(n)
    var = Fraction(fn * s2 - s1 * s1, fn * fn)
    return s1, s2, var, rational_to_real(var / n, p)


def variance(table: CountTable, n: int, *, p: int = DEFAULT_PRECISION) -> MomentReport:
    """Exact variance (n! * sum k^2 s - (sum k s)^2) / (n!)^2 of X_n."""
    table._require_permutations("variance")
    table._check_n(n)
    s1, s2, var, var_over_n = _variance(table, n, p)
    fn = table.factorial(n)
    return MomentReport(n, Fraction(s1, fn), Fraction(s2, fn), var, var_over_n)


def variance_series(table: CountTable, *, p: int = DEFAULT_PRECISION
                    ) -> List[Tuple[int, Fraction, Decimal]]:
    """(n, Var(X_n), Var(X_n)/n) for every n = 1..N."""
    table._require_permutations("variance_series")
    out = []
    for n in range(1, table.N + 1):
        _, _, var, var_over_n = _variance(table, n, p)
        out.append((n, var, var_over_n))
    return out
