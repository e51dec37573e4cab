"""The generalized Buchstab function Omega_K and its reciprocal.

For a class parameter K > 0 (permutations K=1; 2-regular graphs and
surjections K=1/2) define

    Omega_K(x) = 1                                        1 <= x < 2
    Omega_K(x) = 1 + K * integral_2^x Omega_K(u-1)/(u-1) du,   x >= 2.

1/Omega_K(x) is the limiting proportion of objects whose smallest
component is large (at least a 1/x fraction of the object).

This is the package's one delay-equation ledger: at K = 1,
Omega_1(x) = x*omega(x) (both are 1 on [1, 2) and solve the same delay
equation), so ``omega`` serves the Buchstab function and its moment
constants from the K = 1 ledger.

On [n, n+1) write Omega_K(n + (1+z)/2) = sum_i c[n, i] z^i
(``OmegaBlock``).  Block 1 is the constant 1.  Block 2 comes from the
exact closed form Omega_K = 1 + K ln(x-1) on [2, 3): c[2, 0] = 1 + K ln(3/2)
and c[2, i] = K (-1)^(i-1) / (i 3^i).  For n >= 3 the defining integral
gives, with alpha the coefficients of P_{n-1}(z) (1 + z/(2n-1))^-1,

    alpha_i = c[n-1, i] - alpha_{i-1}/(2n-1)

(``series_over_binomial`` with m = 1, O(len) per block), the advance
rules c[n, i] = K alpha_{i-1} / ((2n-1) i) for i >= 1 and
c[n, 0] = sum_i c[n-1, i] - (K/(2n-1)) sum_i (-1)^(i+1) alpha_i/(i+1),
which make the blocks join continuously at the knots.

Each block is cut where a bound on its dropped coefficients falls
below 10^-p |c_0|, so p alone sets the accuracy.  An advanced block
starts from its natural length len(prev) + 1; past it alpha is exactly
geometric in -1/(2n-1), which bounds the rest in closed form.

Past a switch block n0 the blocks come from the large-x expansion, not
the chain, whose rounding grows with its length.  Take

    S_J(x) = sum_{j<=J} a_j x^(K-j),  a_0 = 1,
    a_n = -(K/n) sum_{j<n} (-1)^(n-j) C(K-j-1, n-j) a_j,

so that S_J' matches K S_J(x-1)/(x-1) through x^(K-1-J).  For integer K,
a_n = 0 for n >= K (S = x at K = 1, x^2 + 2x at K = 2): J = K - 1 there,
and the residual below vanishes.  Else J = p + ceil(K), so that J + 1 > K
and the residual falls at least like n^-(p+1).  For any A,
R = Omega_K - A S_J solves R'(x) = K R(x-1)/(x-1) + f(x) with
f = A (K S_J(x-1)/(x-1) - S_J'(x)) = A sum_{m>J} g_m x^(K-1-m),
g_m = K sum_{j<=J} (-1)^(m-j) C(K-j-1, m-j) a_j.  Let M0 = sup |R| on
block n0 and F = integral_{n0+1}^inf |f|.  y = (M0 + F) Omega_K/Omega_K(n0)
solves the homogeneous equation, y -+ R >= F on block n0, and beyond it
their delay terms stay >= 0 (method of steps) while f takes at most F
off: |R|/Omega_K <= (M0 + F)/Omega_K(n0) for all x >= n0.  The bound
K sum_j |a_j C(K-j-1, m-j)| on |g_m|, gamma at m = J+1, grows at most
(m+1)/(m+1-J) times a step, so with q = (J+2)/(2 n0 + 2) < 1,
F <= |A| (n0+1)^K gamma (n0+1)^(-J-1) / ((J+1-K) (1-q)).

On block n, with h = n + 1/2 and m = 2n + 1, S_J(n + (1+z)/2) =
h^K sum_i u_i (z/m)^i, u_i = sum_j a_j h^-j C(K-j, i), whose terms past
i > K shrink at least (i+J+1)/((i+1) m) times a step.  ``fit`` reads
A = c1/s1 off a block, s_i = h^K u_i m^-i, and bounds M0 by the block's
cut 10^-p |c0|, sum_{i != 1} |c_i - A s_i| and the terms past the last
u_i; at K = 1 these are a = 2 c1 and the M of ``moment_constant``.
Since u_1 is about K u_0, the j terms of u are dropped against
min(1, K) 10^-p |u_0|, so a small K reads A to p digits too.  Below
K ~ 10^-p the chain's blocks are cut to their constant c0, and ``fit``
reads A = c0/s0 instead, with sum_{i != 0} |c_i - A s_i| in M0.
n0 is the first block, tested when the chain must grow past it, with
M0 + F < n0 10^-p Omega_K(n0): the rounding the chain carries by then,
below which no fit tells better.  Every K in (0, ``MAX_K``] finds one,
about where n0 > J/2 allows: measured, n0 is 11-80 for p in [20, 60]
(at p = 30: 16 for K <= 0.001, 19-23 for K in [1/4, 2], 48 at K = 63.5)
and at most 278 at p = 306.  Block n > n0 is A h^K sum_i u_i (z/m)^i,
cut like a chain block, with n an integral Decimal of any size, so a
huge x costs one such block.  ``Switch.bound`` states its relative error
as (M0 + F)/Omega_K(n0) plus (n0 + 2) 10^(1-p) for the rounding block
n0 carries (the allowance ``moment_constant`` states) and the direct
block's cut and rounding.

``oracle_quadrature`` solves the defining integral equation directly by
the method of steps with composite Simpson quadrature on a per-interval
dyadic grid, one unit interval after the other, holding only the grid
rows of the current interval and the one before it.  It never touches
the Taylor blocks, so it serves as an independent oracle for them.  A
naive point-recursive quadrature would cost O(3^x); the method-of-steps
grid is linear in x and is what keeps x <= 30 cheap.
"""

from __future__ import annotations

import math
import threading
from decimal import ROUND_FLOOR, Context, Decimal, Overflow, localcontext
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .numerics import DEFAULT_PRECISION, as_real, context

__all__ = [
    "LedgerRangeError",
    "OmegaBlock",
    "series_over_binomial",
    "OmegaKLedger",
    "seed_block1",
    "seed_block2",
    "advance_omega_k",
    "eval_omega_k",
    "proportion_large_smallest",
    "oracle_quadrature",
    "table_values",
    "PAPER_TABLE_GRID",
    "MAX_K",
]

# Reference evaluation grid used by the table command: 1..10 and the
# powers of two 16..8192.
PAPER_TABLE_GRID: Tuple[int, ...] = tuple(range(1, 11)) + tuple(
    2 ** e for e in range(4, 14)
)

# The largest class parameter a ledger takes: the expansion costs O(J^2)
# with J = p + ceil(K), and the switch block n0 > J/2.  K = 63.5 at
# p = 306 builds in about 0.7 s on a 2-core Xeon.
MAX_K = 64


class LedgerRangeError(ValueError):
    """Evaluation point outside the ledger's covered interval."""


class OmegaBlock(NamedTuple):
    """Taylor coefficients on [n, n+1) in z = 2(x-n) - 1.  A block made
    past the switch block may carry n as an integral Decimal."""

    n: int
    coeffs: Tuple[Decimal, ...]

    def eval(self, z: Decimal, ctx: Context) -> Decimal:
        acc = Decimal(0)
        with localcontext(ctx):
            for c in reversed(self.coeffs):
                acc = acc * z + c
        return acc


def _cut(coeffs: Sequence[Decimal], tail: Decimal, p: int) -> Tuple[Decimal, ...]:
    """The shortest prefix of ``coeffs`` whose dropped coefficients, plus
    ``tail`` (a bound on the sum of |c_i| past the end of ``coeffs``),
    total less than 10^-p |c_0|.  Call under a p-digit context."""
    limit = abs(coeffs[0]).scaleb(-p)
    length = len(coeffs)
    while length > 1 and tail + abs(coeffs[length - 1]) < limit:
        length -= 1
        tail += abs(coeffs[length])
    return tuple(coeffs[:length])


def series_over_binomial(coeffs: Sequence[Decimal], r: Decimal, m: int,
                         length: int) -> List[Decimal]:
    """Coefficients 0..length-1 of P(z) (1 + r z)^-m, P = sum_i coeffs[i] z^i,
    under the current context (call under a p-digit one, like ``_cut``).

    Matching powers of z in (1 + r z)^m D(z) = P(z) gives
    d_i = c_i - sum_{k=1..m} C(m, k) r^k d_{i-k}, O(length * m) operations.
    """
    weights = [math.comb(m, k) * r ** k for k in range(1, m + 1)]
    out: List[Decimal] = []
    for i in range(length):
        d = coeffs[i] if i < len(coeffs) else Decimal(0)
        for k, w in enumerate(weights[:i], start=1):
            d -= w * out[i - k]
        out.append(d)
    return out


def _class_parameter(K, p: int) -> Decimal:
    """K as a p-digit Decimal, checked to lie in the ledger's domain
    (0, ``MAX_K``]."""
    Kd = as_real(K, p)
    if Kd <= 0:
        raise ValueError(f"class parameter K must be > 0, got {Kd}")
    if Kd > MAX_K:
        raise ValueError(f"class parameter K must be <= {MAX_K}, got {Kd}")
    return Kd


def seed_block1() -> OmegaBlock:
    """Block 1: Omega_K = 1 on [1, 2), exactly."""
    return OmegaBlock(1, (Decimal(1),))


def seed_block2(K, p: int = DEFAULT_PRECISION) -> OmegaBlock:
    """Block 2 from the closed form 1 + K ln(x-1) on [2, 3).

    With x = 2 + (1+z)/2, ln(x-1) = ln(3/2) + ln(1 + z/3), whose series
    gives the coefficients directly.  It stops at the first i whose
    bound 3K/(2 i 3^i) on the terms from i on is below 10^-p c_0.
    """
    ctx = context(p)
    Kd = _class_parameter(K, p)
    with localcontext(ctx):
        c0 = 1 + Kd * (Decimal(3) / Decimal(2)).ln()
        limit = c0.scaleb(-p)
        coeffs = [c0]
        i = 1
        while 3 * Kd / (2 * i * Decimal(3) ** i) >= limit:
            coeffs.append(Kd * Decimal((-1) ** (i - 1)) / Decimal(i * 3 ** i))
            i += 1
    return OmegaBlock(2, tuple(coeffs))


def advance_omega_k(prev: OmegaBlock, K, p: int = DEFAULT_PRECISION) -> OmegaBlock:
    """Derive block n = prev.n + 1 (n >= 3) from the alpha vector, the
    coefficients of P_{n-1}(z) (1 + z/(2n-1))^-1, cut where its dropped
    coefficients total less than 10^-p |c_0|."""
    n = prev.n + 1
    if n < 3:
        raise ValueError(f"the advance derives blocks n >= 3, got {n}")
    L = len(prev.coeffs)
    Kd = as_real(K, p)
    with localcontext(context(p)):
        m = Decimal(2 * n - 1)
        alpha = series_over_binomial(prev.coeffs, 1 / m, 1, L)
        s_prev = sum(prev.coeffs, Decimal(0))
        s_alpha = sum((a if i % 2 else -a) / (i + 1) for i, a in enumerate(alpha))
        coeffs = [s_prev - Kd / m * s_alpha]
        coeffs += [Kd * a / (m * i) for i, a in enumerate(alpha, start=1)]
        # alpha is geometric in -1/m past alpha_{L-1}: coefficients i > L total
        # at most |K alpha_{L-1}| / (m (L+1) (m-1)), and so do the terms c0 omits
        tail = 2 * abs(Kd) * abs(alpha[L - 1]) / (m * (L + 1) * (m - 1))
        return OmegaBlock(n, _cut(coeffs, tail, p))


def _order(K: Decimal, p: int) -> int:
    """J: K - 1 for an integer K, where a_J is the last nonzero coefficient
    and the residual vanishes; p + ceil(K) otherwise, so that the residual
    falls like n^(K-J-1) = n^-(p+1) at least."""
    return int(K) - 1 if K % 1 == 0 else p + math.ceil(K)


def _fitted(coeffs: Sequence[Decimal]) -> int:
    """The coefficient ``fit`` reads A off: c1, or c0 if c1 was cut."""
    return 1 if len(coeffs) > 1 else 0


class Expansion:
    """S_J and its residual bound for one (K, p) (module docstring)."""

    def __init__(self, K: Decimal, p: int):
        self.K, self.p, self.J = K, p, _order(K, p)
        with localcontext(context(p)):
            a = [Decimal(1)]
            binom: List[Decimal] = []  # binom[j] = C(K-j-1, n-j)
            for n in range(1, self.J + 2):
                binom = [b * (K - n) / (n - j) for j, b in enumerate(binom + [Decimal(1)])]
                if n <= self.J:
                    a.append(-K / n * sum(-b * c if (n - j) % 2 else b * c
                                          for j, (b, c) in enumerate(zip(binom, a))))
            self.a = a
            self.gamma = K * sum(abs(b * c) for b, c in zip(binom, a))

    def series(self, n, upto: int = 0) -> Tuple[List[Decimal], Decimal]:
        """u_0..u_{I-1} on block n and a bound on sum_{i>=I} |u_i| m^-i,
        I the first index past K where it is below 10^-p |u_0| (or
        ``upto``, with no bound).  The last terms j are left out while
        their share, at most 3 |a_j h^-j| each (sum_i |C(K-j, i)| m^-i <=
        (1 - 1/m)^(K-j) <= e for j > K and m > J + 1), totals below half
        that bound times min(1, K), and the bound includes it: far blocks
        need few terms, and u_1, about K u_0, keeps p digits for ``fit``.
        n is an int or an integral Decimal; m, h and m^i are worked under
        the p-digit context, so a huge n costs what a small one does."""
        K = self.K
        with localcontext(context(self.p)):
            m = 2 * Decimal(n) + 1
            h, w, terms = m / 2, Decimal(1), []
            for c in self.a:
                terms.append(c * w)
                w /= h
            u = [sum(terms)]
            limit, dropped = abs(u[0]).scaleb(-self.p), Decimal(0)
            drop_limit = limit * min(1, K) / 2
            while len(terms) > 1 + K and dropped + 3 * abs(terms[-1]) < drop_limit:
                dropped += 3 * abs(terms.pop())
            shifts = [K - j for j in range(len(terms))]
            while len(u) != upto:  # terms[j] is a_j h^-j i! C(K-j, i)
                i = len(u)
                terms = [t * (k - i + 1) for t, k in zip(terms, shifts)]
                if i > K and abs(u[-1]) < limit * m ** (i - 1):  # else not small yet
                    tail = sum(map(abs, terms)) * (i + 1) * m / (
                        math.factorial(i) * m ** i * ((i + 1) * m - i - self.J - 1))
                    if tail + dropped < limit:
                        return u, tail + dropped
                u.append(sum(terms) / math.factorial(i))
            return u, Decimal("Infinity")

    def fit(self, block: OmegaBlock) -> Tuple[Decimal, Decimal]:
        """(A, M0): A fits A S_J to the block's slope, A = c1/s1, or to its
        value, A = c0/s0, if c1 was cut; M0 bounds sup |Omega_K - A S_J| on
        the block (module docstring)."""
        n, c = block.n, block.coeffs
        m, k = 2 * n + 1, _fitted(c)
        u, tail = self.series(n)
        with localcontext(context(self.p)):
            A = c[k] / (u[k] * (Decimal(m) / 2) ** self.K / m ** k)
            B = c[k] * m ** k / u[k]  # A h^K
            gap = [abs((c[i] if i < len(c) else 0) - (B * u[i] / m ** i if i < len(u) else 0))
                   for i in range(max(len(c), len(u)))]
            fit = gap[1 - k] + sum(gap[2:])
            return A, fit + abs(B) * tail + abs(c[0]).scaleb(-self.p)

    def residual(self, n: int, B: Decimal) -> Decimal:
        """The bound on F (module docstring) for A = B h^-K and n > J/2."""
        J, K = self.J, self.K
        if not self.gamma:
            return Decimal(0)
        with localcontext(context(self.p)):
            # A (n+1)^K = B ((n+1)/h)^K <= B ((2n+2)/(2n+1))^ceil(K)
            scale = abs(B) * (Decimal(2 * n + 2) / (2 * n + 1)) ** math.ceil(K)
            q = Decimal(J + 2) / (2 * n + 2)
            return scale * self.gamma / (Decimal(n + 1) ** (J + 1) * (J + 1 - K) * (1 - q))


class Switch(NamedTuple):
    """Blocks past ``n0`` are ``A`` S_J, within relative error ``bound``."""

    n0: int
    A: Decimal
    bound: Decimal


class OmegaKLedger:
    """Omega_K blocks for one value of K: a chain grown block by block up
    to the largest requested x, each block tested for the switch when
    the chain must grow past it, and past the switch block, blocks from
    the large-x expansion, made as they are read.  K lies in
    (0, ``MAX_K``], where every ledger switches, so the chain ends at
    its switch block and x may have any size: only a value past the
    decimal exponent range (about 1e999999) is a ``LedgerRangeError``.
    Made blocks are never mutated.  Growth holds a lock, so threads may
    share a ledger; reads take none.  Of the expansion blocks the ledger
    keeps only the last one made (a remake costs well under a
    millisecond), so its memory is the chain's.
    """

    def __init__(self, K, p: int = DEFAULT_PRECISION, chain: Sequence[OmegaBlock] = ()):
        """``chain``, if given, holds blocks 1, 2, ... to go on from (as
        ``store.load_artifact`` reads them); else the seed blocks."""
        self.K = _class_parameter(K, p)
        self.p = p
        self._ctx = context(p)  # for reads; never handed out, so never changed
        self._grow_lock = threading.Lock()
        self._blocks = [None] + list(chain or (seed_block1(), seed_block2(self.K, p)))
        self._tested = len(self._blocks) - 2  # the last block is not tested yet
        self._expansion: Optional[Expansion] = None
        self._direct: Optional[OmegaBlock] = None  # the last block made past n0
        self.switch: Optional[Switch] = None

    @property
    def built_through(self) -> int:
        """The last chain block."""
        return len(self._blocks) - 1

    def ensure(self, n) -> OmegaBlock:
        """Block n (an int, or an integral Decimal of any size), grown or
        made if the ledger does not hold it."""
        if n < 1:
            raise LedgerRangeError(f"block index must be >= 1, got {n}")
        with self._grow_lock:
            blocks = self._blocks
            while self.switch is None and len(blocks) <= n:
                last = blocks[-1]
                if self._tested < last.n:
                    self._tested = last.n
                    self.switch = self._test(last)
                else:
                    blocks.append(advance_omega_k(last, self.K, self.p))
            if n < len(blocks):
                return blocks[int(n)]
            direct = self._direct
            if direct is None or direct.n != n:
                direct = self._direct = self._direct_block(n)
            return direct

    def block(self, n) -> OmegaBlock:
        blocks, direct = self._blocks, self._direct
        if 1 <= n < len(blocks):
            return blocks[int(n)]
        return direct if direct is not None and direct.n == n else self.ensure(n)

    def _test(self, block: OmegaBlock) -> Optional[Switch]:
        """The switch at ``block`` if the expansion fits it within
        n 10^-p Omega_K(n) (module docstring); the cheap residual first."""
        n, c, m = block.n, block.coeffs, 2 * block.n + 1
        if 2 * n <= _order(self.K, self.p):
            return None  # the bound on F needs n > J/2
        exp = self._expansion = self._expansion or Expansion(self.K, self.p)
        with localcontext(context(self.p)):
            low = block.eval(Decimal(-1), context(self.p))  # Omega_K(n)
            limit = n * low.scaleb(-self.p)
            u, _ = exp.series(n, upto=2)
            k = _fitted(c)
            B = c[k] * m ** k / u[k]  # A h^K, as ``fit`` reads it
            F = exp.residual(n, B)
            if F + abs(c[0] - B * u[0]) >= limit:  # two parts of M0 + F
                return None
            A, M0 = exp.fit(block)
            if M0 + F >= limit:
                return None
            return Switch(n, A, (M0 + F) / low + (n + 2) * Decimal(1).scaleb(1 - self.p))

    def _direct_block(self, n) -> OmegaBlock:
        """Block n > n0: A S_J's series on [n, n+1), cut like a chain block,
        worked under the p-digit context like ``Expansion.series``."""
        u, tail = self._expansion.series(n)
        with localcontext(context(self.p)):
            m = 2 * Decimal(n) + 1
            B = self.switch.A * (m / 2) ** self.K
            coeffs = [B * ui / m ** i for i, ui in enumerate(u)]
            return OmegaBlock(n, _cut(coeffs, abs(B) * tail, self.p))


def eval_omega_k(ledger: OmegaKLedger, x) -> Decimal:
    """Omega_K(x) for x >= 1 (blocks grown on demand)."""
    xd = as_real(x, ledger.p)
    if xd < 1:
        raise LedgerRangeError(f"Omega_K is defined on [1, inf), got {xd}")
    # a chain block's index is an int; past the chain it stays an integral
    # Decimal, since int() would spell out every digit of a huge x
    n = int(xd) if xd < len(ledger._blocks) else xd.to_integral_value(ROUND_FLOOR)
    ctx = ledger._ctx
    try:
        return ledger.block(n).eval(ctx.subtract(ctx.multiply(2, ctx.subtract(xd, n)), 1), ctx)
    except Overflow as exc:
        raise LedgerRangeError(f"Omega_K({xd}) overflows the decimal exponent range") from exc


def proportion_large_smallest(ledger: OmegaKLedger, x) -> Decimal:
    """1/Omega_K(x): limiting share of objects with a large smallest part."""
    p = ledger.p
    xd = as_real(x, p)
    if xd <= 1:
        raise LedgerRangeError(f"proportion defined for x > 1, got {xd}")
    return ledger._ctx.divide(Decimal(1), eval_omega_k(ledger, xd))


def table_values(ledger: OmegaKLedger, xs: Sequence) -> List[Tuple[Decimal, Decimal]]:
    """Rows (x, Omega_K(x)) for the given evaluation points."""
    return [(as_real(x, ledger.p), eval_omega_k(ledger, x)) for x in xs]


# ---------------------------------------------------------------------------
# Independent oracle: direct numerical solution of the integral equation
# ---------------------------------------------------------------------------

ORACLE_MAX_X = 30
ORACLE_MIN_TOL = Decimal("1e-12")
_SNAP_BITS = 52  # query points snapped to this dyadic depth


def oracle_quadrature(K, x, tol) -> Decimal:
    """Omega_K(x) from the defining integral equation, |error| < tol.

    Method of steps: the integrand Omega_K(u-1)/(u-1) is tabulated on a
    dyadic grid of each unit interval, with grid level chosen from tol
    (composite-Simpson error O(h^4) plus the error amplification factor
    of the integral recursion).  Rows 2..floor(x) are made in turn, each
    from the one before, and only the last two are kept: the final
    partial cell is integrated via a cubic through the four nearest grid
    values of the integrand, which the row before the last gives.
    Requires 1 <= x <= 30 and tol >= 1e-12.
    """
    tol_d = as_real(tol, DEFAULT_PRECISION)
    if tol_d < ORACLE_MIN_TOL:
        raise ValueError(f"oracle tolerance must be >= 1e-12, got {tol_d}")
    xf = float(as_real(x, DEFAULT_PRECISION))
    if not 1 <= xf <= ORACLE_MAX_X:
        raise ValueError(f"oracle domain is 1 <= x <= {ORACLE_MAX_X}, got {x}")
    p = 35
    ctx = context(p)
    Kd = as_real(K, p)
    if Kd <= 0:
        raise ValueError(f"class parameter K must be > 0, got {Kd}")
    if xf < 2:
        return Decimal(1)

    # Error amplification through the recursion is below (x-1)^K * e;
    # split tol across the quadrature of at most ceil(x) intervals.
    Kf = float(Kd)
    amp = math.e * max(xf - 1.0, 1.0) ** Kf
    tau_unit = float(tol_d) / (2.0 * amp * (int(xf) + 1))
    # composite Simpson: per-unit error ~ B4 * h^4 / 180 <= tau_unit
    B4 = 64.0 * max(1.0, Kf) ** 2
    h_target = (tau_unit * 180.0 / B4) ** 0.25
    level = max(8, min(16, math.ceil(-math.log2(h_target))))
    cells = 1 << level

    with localcontext(ctx):
        n = int(xf)
        frac = as_real(x, p) - Decimal(n)
        if n >= ORACLE_MAX_X:
            n, frac = n - 1, frac + 1  # x == 30 lands on the last row's end
        step = Decimal(1) / Decimal(cells)
        # vals[j] = Omega_K(m + j/cells) for m = 1, 2, ..., n in turn, prev
        # the row before it: row m's integrand f(u) = Omega_K(u-1)/(u-1)
        # is row m-1 over u-1, and only rows n-1 and n are read at the end
        prev, vals = None, [Decimal(1)] * (cells + 1)
        for m in range(2, n + 1):
            f = [vals[j] / (Decimal(m - 1) + Decimal(j) * step) for j in range(cells + 1)]
            # prefix integrals: Simpson over even cell pairs, cubic cell for odd ends
            pref = [Decimal(0)] * (cells + 1)
            for j in range(2, cells + 1, 2):
                pref[j] = pref[j - 2] + step / 3 * (f[j - 2] + 4 * f[j - 1] + f[j])
            c24 = 24 * cells
            for j in range(1, cells + 1, 2):
                # integral over one cell [j-1, j] via a cubic stencil
                if j >= 3:
                    cell = (f[j - 3] - 5 * f[j - 2] + 19 * f[j - 1] + 9 * f[j]) / c24
                else:
                    cell = (9 * f[j - 1] + 19 * f[j] - 5 * f[j + 1] + f[j + 2]) / c24
                pref[j] = pref[j - 1] + cell
            prev, vals = vals, [vals[cells] + Kd * pref[j] for j in range(cells + 1)]

        if frac == 0:
            return +vals[0]
        # snap the fractional part to the dyadic lattice, then split into
        # whole cells plus a partial cell handled by cubic interpolation
        snapped = int((frac * (1 << _SNAP_BITS)).to_integral_value())
        j_full, rem = divmod(snapped, 1 << (_SNAP_BITS - level))
        result = vals[j_full]
        if rem:
            t = Decimal(rem) / Decimal(1 << (_SNAP_BITS - level))  # in (0, 1)
            jj = min(max(j_full, 1), cells - 2)
            f0, f1, f2, f3 = (prev[i] / (Decimal(n) + Decimal(i) * step - 1)
                              for i in range(jj - 1, jj + 3))
            # Newton forward cubic based at node jj-1, integrated over
            # [j_full, j_full + t] cells
            d1 = f1 - f0
            d2 = f2 - 2 * f1 + f0
            d3 = f3 - 3 * f2 + 3 * f1 - f0
            a = Decimal(j_full - jj)
            s0 = a + t

            def antideriv(s: Decimal) -> Decimal:
                u = s + 1  # cells measured from the stencil base jj-1
                return (f0 * u + d1 * u * u / 2 + d2 * (u ** 3 / 3 - u * u / 2) / 2
                        + d3 * (u ** 4 / 4 - u ** 3 + u * u) / 6)

            seg = (antideriv(s0) - antideriv(a)) * step
            result = result + Kd * seg
        return +result
