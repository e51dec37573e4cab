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

``oracle_quadrature`` solves the defining integral equation directly by
the method of steps with composite Simpson quadrature on a per-interval
dyadic grid (unit-interval prefix integrals are memoized).  It never
touches the Taylor blocks, so it serves as an independent oracle for
them.  A naive point-recursive quadrature would cost O(3^x); the
method-of-steps grid is linear in x and is what keeps x <= 30 cheap.
"""

from __future__ import annotations

import math
import threading
from decimal import Context, Decimal, localcontext
from typing import Dict, List, NamedTuple, Sequence, Tuple

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
    "MAX_BLOCK",
]

# Reference evaluation grid used by the table command: 1..10 and the
# powers of two 16..8192.
PAPER_TABLE_GRID: Tuple[int, ...] = tuple(range(1, 11)) + tuple(
    2 ** e for e in range(4, 14)
)

MAX_BLOCK = 16384  # the last block a ledger grows: a huge x cannot grow it forever


class LedgerRangeError(ValueError):
    """Evaluation point outside the ledger's covered interval."""


class OmegaBlock(NamedTuple):
    """Taylor coefficients on [n, n+1) in z = 2(x-n) - 1."""

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
    Kd = as_real(K, p)
    if Kd <= 0:
        raise ValueError(f"class parameter K must be > 0, got {Kd}")
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
        # at most K |alpha_{L-1}| / (m (L+1) (m-1)), and so do the terms c0 omits
        tail = 2 * Kd * abs(alpha[L - 1]) / (m * (L + 1) * (m - 1))
        return OmegaBlock(n, _cut(coeffs, tail, p))


class OmegaKLedger:
    """Lazily grown chain of Omega_K blocks for one value of K.

    Blocks are appended sequentially up to the largest requested x, at
    most through block ``MAX_BLOCK``, and then reused; finished blocks are never mutated.  Growth holds a
    lock, so threads may share a ledger; reads of built blocks take none.
    Growth starts from ``_built(built_through)``, so a reloaded ledger
    whose blocks are decoded on first read grows from its decoded last
    block.
    """

    def __init__(self, K, p: int = DEFAULT_PRECISION):
        self.K = as_real(K, p)
        self.p = p
        self._grow_lock = threading.Lock()
        self._blocks: List[OmegaBlock] = [
            None,  # type: ignore[list-item]
            seed_block1(),
            seed_block2(self.K, p),
        ]

    @property
    def built_through(self) -> int:
        return len(self._blocks) - 1

    def ensure(self, n: int) -> None:
        if n > MAX_BLOCK:
            raise LedgerRangeError(f"block {n} beyond the ledger limit {MAX_BLOCK}")
        if n <= self.built_through:
            return
        with self._grow_lock:
            prev = self._built(self.built_through)
            while self.built_through < n:
                prev = advance_omega_k(prev, self.K, self.p)
                self._blocks.append(prev)

    def block(self, n: int) -> OmegaBlock:
        if n < 1:
            raise LedgerRangeError(f"block index must be >= 1, got {n}")
        self.ensure(n)
        return self._built(n)

    def _built(self, n: int) -> OmegaBlock:
        """Block n, one of 1..built_through, read without growth or the
        MAX_BLOCK check."""
        return self._blocks[n]


def eval_omega_k(ledger: OmegaKLedger, x) -> Decimal:
    """Omega_K(x) for x >= 1 (blocks grown on demand)."""
    xd = as_real(x, ledger.p)
    if xd < 1:
        raise LedgerRangeError(f"Omega_K is defined on [1, inf), got {xd}")
    if xd >= MAX_BLOCK + 1:  # checked before int(xd), which may be huge
        raise LedgerRangeError(f"x = {xd} lies past the ledger limit {MAX_BLOCK}")
    n = int(xd)
    block = ledger.block(n)
    ctx = context(ledger.p)
    return block.eval(ctx.subtract(ctx.multiply(2, ctx.subtract(xd, n)), 1), ctx)


def proportion_large_smallest(ledger: OmegaKLedger, x) -> Decimal:
    """1/Omega_K(x): limiting share of objects with a large smallest part."""
    p = ledger.p
    xd = as_real(x, p)
    if xd <= 1:
        raise LedgerRangeError(f"proportion defined for x > 1, got {xd}")
    return context(p).divide(Decimal(1), eval_omega_k(ledger, xd))


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
    of the integral recursion); unit-interval prefix integrals are
    memoized, and the final partial cell is integrated via a cubic
    through the four nearest grid values.  Requires 1 <= x <= 30 and
    tol >= 1e-12.
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
        step = Decimal(1) / Decimal(cells)

        # omega_vals[m][j] = Omega_K(m + j/cells); prefix[m][j] = integral of
        # f over [m, m + j/cells] with f(u) = Omega_K(u-1)/(u-1).
        omega_rows: Dict[int, List[Decimal]] = {
            1: [Decimal(1)] * (cells + 1)
        }

        def row(m: int) -> List[Decimal]:
            got = omega_rows.get(m)
            if got is not None:
                return got
            prev = row(m - 1)
            base = prev[cells]
            f = [prev[j] / (Decimal(m - 1) + Decimal(j) * step) for j in range(cells + 1)]
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
            vals = [base + Kd * pref[j] for j in range(cells + 1)]
            omega_rows[m] = vals
            return vals

        n = int(xf)
        frac = as_real(x, p) - Decimal(n)
        if n >= ORACLE_MAX_X:
            n, frac = n - 1, frac + 1  # x == 30 lands on the last row's end
        vals = row(n)
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

            base_row = row(n - 1)

            def fv(idx: int) -> Decimal:
                return base_row[idx] / (Decimal(n) + Decimal(idx) * step - 1)

            f0, f1, f2, f3 = (fv(jj - 1), fv(jj), fv(jj + 1), fv(jj + 2))
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
