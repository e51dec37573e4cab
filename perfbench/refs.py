"""References computed apart from the buchstab package.

Nothing here imports buchstab.  Each reference uses a method other than
the package's, so the benchmark can check the package's answers against
it rather than against a stored copy of earlier output.

* ``tail_columns``: exact counts T(k, n) of permutations of n whose
  cycles all have length >= k, one column k at a time, from
  T(k, n) = (n-1) T(k, n-1) + (n-1)!/(n-k)! T(k, n-k)  (EGF
  (1-z) F' = z^(k-1) F; Flajolet & Sedgewick, Analytic Combinatorics,
  ch. II).
* ``variance_over_n_float``: Var(X_n)/n in floats from the same
  recurrence divided by n!, P(X_n >= k) = ((n-1) P(X_{n-1} >= k)
  + P(X_{n-k} >= k)) / n.
* ``brute_force_smallest``: smallest-cycle tallies by walking every
  permutation of n <= 8.
* ``OmegaFloat``: the Buchstab function and the variance constant C by a
  float method of steps (cumulative trapezoid on (x omega)' = omega(x-1),
  Romberg-extrapolated over three grids), with an error estimate.
* ``omega_k_asymptote``: Omega_K(x) ~ x^K e^(-K gamma) / Gamma(K+1).

``python3 perfbench/refs.py`` runs every self-test (about a second).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992
EXP_NEG_GAMMA = math.exp(-EULER_GAMMA)


# ---------------------------------------------------------------------------
# exact counts
# ---------------------------------------------------------------------------

def tail_column(k: int, N: int) -> List[int]:
    """[T(k, 0), ..., T(k, N)]: permutations of n with every cycle >= k."""
    col = [0] * (N + 1)
    col[0] = 1
    ff = math.factorial(k - 1)  # (n-1)!/(n-k)! at n = k
    for n in range(k, N + 1):
        if n > k:
            ff = ff * (n - 1) // (n - k)
        col[n] = (n - 1) * col[n - 1] + ff * col[n - k]
    return col


def tail_columns(N: int) -> Iterator[Tuple[int, List[int]]]:
    """(k, column k) for k = 1..N; one column is alive at a time."""
    for k in range(1, N + 1):
        yield k, tail_column(k, N)


def exact_variance(n: int, s1: int, s2: int) -> Fraction:
    """Var(X_n) from s1 = sum_k T(k, n) = n! E[X_n] and
    s2 = sum_k (2k-1) T(k, n) = n! E[X_n^2]."""
    fn = math.factorial(n)
    return Fraction(fn * s2 - s1 * s1, fn * fn)


def variance_over_n_float(N: int) -> List[float]:
    """[Var(X_n)/n for n = 0..N] in floats (entry 0 is 0)."""
    e1 = [0.0] * (N + 1)
    e2 = [0.0] * (N + 1)
    for k in range(1, N + 1):
        p = [0.0] * (N + 1)
        p[0] = 1.0
        for n in range(k, N + 1):
            p[n] = ((n - 1) * p[n - 1] + p[n - k]) / n
            e1[n] += p[n]
            e2[n] += (2 * k - 1) * p[n]
    return [0.0] + [(e2[n] - e1[n] * e1[n]) / n for n in range(1, N + 1)]


BRUTE_FORCE_MAX = 8


def brute_force_smallest(n: int) -> List[int]:
    """[#perms of n with shortest cycle exactly k for k = 1..n]."""
    if not 1 <= n <= BRUTE_FORCE_MAX:
        raise ValueError(f"brute force is limited to 1 <= n <= {BRUTE_FORCE_MAX}")
    tally = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        seen = 0
        shortest = n
        for start in range(n):
            if seen >> start & 1:
                continue
            length, j = 0, start
            while not seen >> j & 1:
                seen |= 1 << j
                j = perm[j]
                length += 1
            shortest = min(shortest, length)
        tally[shortest] += 1
    return tally[1:]


# ---------------------------------------------------------------------------
# the Buchstab function in floats
# ---------------------------------------------------------------------------

def _omega_grid(X: int, M: int) -> List[float]:
    """omega(1 + i/M) for i = 0..(X-1)M by the method of steps.

    On [1, 2] omega = 1/x exactly.  Beyond, u = x omega(x) satisfies
    u' = omega(x-1), integrated by the cumulative trapezoid rule inside
    each unit interval, where omega(x-1) is smooth.
    """
    h = 1.0 / M
    w = [0.0] * ((X - 1) * M + 1)
    for i in range(M + 1):
        w[i] = 1.0 / (1.0 + i * h)
    for n in range(2, X):
        base = (n - 1) * M
        u = n * w[base]
        for j in range(1, M + 1):
            u += 0.5 * h * (w[base - M + j - 1] + w[base - M + j])
            w[base + j] = u / (n + j * h)
    return w


def _trapezoid_moment2(w: List[float], X: int, M: int) -> float:
    """integral_2^X omega(x)/x^2 dx by the trapezoid rule on the grid."""
    h = 1.0 / M
    total = 0.0
    for n in range(2, X):
        base = (n - 1) * M
        s = 0.5 * (w[base] / n ** 2 + w[base + M] / (n + 1) ** 2)
        for j in range(1, M):
            x = n + j * h
            s += w[base + j] / (x * x)
        total += s * h
    return total


class OmegaFloat:
    """omega on [1, X] and C = 2 integral_1^inf omega(x)/x^2 dx in floats.

    Three grids (M, 2M, 4M points per unit) are Romberg-combined; both
    the trapezoid sums and the method-of-steps values carry error
    expansions in even powers of the step inside each unit interval.
    ``err`` bounds are estimates: the change between the last two
    Romberg levels, plus 1e-13 for float rounding, plus (for C) the tail
    beyond X bounded by the largest |omega - e^-gamma| seen on the last
    unit interval over X.
    """

    def __init__(self, X: int = 40, M: int = 128):
        self.X, self.M = X, M
        grids = [_omega_grid(X, m) for m in (M, 2 * M, 4 * M)]
        w1, w2, w4 = grids[0], grids[1][::2], grids[2][::4]
        r1 = [(4 * b - a) / 3 for a, b in zip(w1, w2)]
        r2 = [(4 * c - b) / 3 for b, c in zip(w2, w4)]
        self._w = [(16 * b - a) / 15 for a, b in zip(r1, r2)]
        self._werr = [abs(a - b) + 1e-13 for a, b in zip(self._w, r2)]

        t = [_trapezoid_moment2(g, X, m) for g, m in zip(grids, (M, 2 * M, 4 * M))]
        c1, c2 = (4 * t[1] - t[0]) / 3, (4 * t[2] - t[1]) / 3
        integral = (16 * c2 - c1) / 15
        last = range((X - 2) * M, (X - 1) * M + 1)
        deviation = max(abs(self._w[i] - EXP_NEG_GAMMA) for i in last)
        self.C = 0.75 + 2.0 * (integral + EXP_NEG_GAMMA / X)
        self.C_err = 2.0 * abs(integral - c2) + 2.0 * deviation / X + 1e-13

    def omega(self, x: float) -> Tuple[float, float]:
        """(omega(x), error estimate) for 1 <= x <= X.

        Off-grid points use the quintic through six grid values of the
        same unit interval, where omega is smooth.  Its interpolation
        error, about h^6 |omega^(6)| / 720 times a node product of order
        10, is covered by 100 h^6 with wide slack; the self-test checks
        it against the closed form on [2, 3], where the derivatives of
        omega are largest.
        """
        if not 1.0 <= x <= self.X:
            raise ValueError(f"x = {x} outside [1, {self.X}]")
        if x < 2.0:
            return 1.0 / x, 0.0
        M = self.M
        n = min(int(x), self.X - 1)
        base = (n - 1) * M
        t = (x - n) * M
        if t == int(t):
            i = base + int(t)
            return self._w[i], self._werr[i]
        j = min(max(int(t) - 2, 0), M - 5)
        nodes = [base + j + d for d in range(6)]
        s = t - j
        value = 0.0
        for a in range(6):
            weight = 1.0
            for b in range(6):
                if b != a:
                    weight *= (s - b) / (a - b)
            value += weight * self._w[nodes[a]]
        err = max(self._werr[i] for i in nodes) + 100.0 / M ** 6
        return value, err


def omega_closed_form(x: float) -> float:
    """omega on [2, 3]: (1 + ln(x-1))/x."""
    return (1.0 + math.log(x - 1.0)) / x


def omega_k_closed_form(K: float, x: float) -> float:
    """Omega_K on [2, 3): 1 + K ln(x-1)."""
    return 1.0 + K * math.log(x - 1.0)


def omega_k_asymptote(K: float, x: float) -> float:
    """x^K e^(-K gamma) / Gamma(K+1); for K = 1 it is x e^-gamma."""
    return x ** K * math.exp(-K * EULER_GAMMA) / math.gamma(K + 1.0)


def omega_k_asymptote_tolerance(K: float, x: float) -> float:
    """Allowed |Omega_K(x)/asymptote - 1| at x >= 1024.

    The first correction is about -K(1-K)/x (at x = 2048, K = 1/2 the
    observed ratio is 1 - 1.22e-4); twice it, plus float rounding.
    """
    return 2.0 * K * (1.0 - K) / x + 1e-12


# ---------------------------------------------------------------------------
# self-tests
# ---------------------------------------------------------------------------

def _selftest_counts() -> None:
    N = 60
    rows: Dict[int, List[int]] = {n: [0] * (n + 2) for n in range(1, N + 1)}
    for k, col in tail_columns(N + 1):
        for n in range(1, N + 1):
            if k <= n + 1:
                rows[n][k] = col[n] if k <= n else 0
    for n in range(1, N + 1):
        assert rows[n][1] == math.factorial(n), n
        cells = [rows[n][k] - rows[n][k + 1] for k in range(1, n + 1)]
        assert cells[-1] == math.factorial(n - 1), n
        assert all(c == 0 for c in cells[n // 2:n - 1]), n
        if n <= BRUTE_FORCE_MAX:
            assert cells == brute_force_smallest(n), n
    # derangements: T(2, n) = (n-1)(T(2, n-1) + T(2, n-2))
    col2 = tail_column(2, 10)
    assert col2[:8] == [1, 0, 1, 2, 9, 44, 265, 1854], col2
    s1, s2 = [0] * (N + 1), [0] * (N + 1)
    for k, col in tail_columns(N):
        for n in range(k, N + 1):
            s1[n] += col[n]
            s2[n] += (2 * k - 1) * col[n]
    von = variance_over_n_float(N)
    for n in (1, 2, 7, 30, 60):
        exact = exact_variance(n, s1[n], s2[n]) / n
        assert abs(float(exact) - von[n]) <= 1e-12 * max(1.0, float(exact)), n
    assert exact_variance(3, s1[3], s2[3]) == Fraction(8, 9)


def _selftest_omega() -> None:
    ref = OmegaFloat()
    for x in (2.0, 2.001, 2.25, 2.5, 2.77, 2.999, 3.0):
        v, err = ref.omega(x)
        assert err < 1e-10, (x, err)
        assert abs(v - omega_closed_form(x)) <= err, (x, v)
    v, err = ref.omega(ref.X - 0.3)
    assert abs(v - EXP_NEG_GAMMA) < 1e-12, v
    # C = 1.3070... is stated in the paper; the constant is 1.30720779891...
    assert ref.C_err < 1e-10, ref.C_err
    assert abs(ref.C - 1.3072077989) < 1e-9, ref.C


def _selftest_asymptote() -> None:
    assert abs(omega_k_asymptote(1.0, 2048.0) - 2048.0 * EXP_NEG_GAMMA) < 1e-9
    half = omega_k_asymptote(0.5, 4.0)
    assert abs(half - 2.0 * math.exp(-EULER_GAMMA / 2) / (math.sqrt(math.pi) / 2)) < 1e-12
    assert omega_k_asymptote_tolerance(1.0, 1024.0) == 1e-12


def selftest() -> None:
    _selftest_counts()
    _selftest_omega()
    _selftest_asymptote()


if __name__ == "__main__":
    selftest()
    print("refs self-test: ok")
