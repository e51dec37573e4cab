"""Test-side oracles: methods independent of the package's, or of the
part of it under test, used only to check it.

* ``brute_force_counts``: smallest-cycle tallies by walking every
  permutation, checked against the count-table recurrence.
* ``moment_constant_reference``: the moment constant with the blocks
  and the tail point fixed in advance (blocks 2..199 at p + 15 digits,
  then exp(-gamma) from a 100-digit gamma), where the package ends its
  quadrature at a bound it proves and never uses gamma.
* ``OmegaKChain``: Omega_K from the block chain alone, grown to any
  block, where the package's ledger switches to the large-x expansion;
  at p + 15 digits it checks the expansion blocks.
* ``SWITCH_SWEEP``: seeded (K, p) cases over the ledger's domain, for
  the checks that every K switches within its bound.
"""

import math
import random
from decimal import Decimal, localcontext
from itertools import permutations as iter_permutations
from typing import List

from buchstab.numerics import context
from buchstab.omega import integrate_block
from buchstab.omega_k import (MAX_K, OmegaBlock, OmegaKLedger, advance_omega_k, seed_block1,
                              seed_block2)

BRUTE_FORCE_LIMIT = 8  # 8! = 40320 permutations, enumerable directly


def brute_force_counts(n: int) -> List[int]:
    """Smallest-cycle tallies by direct enumeration of all n! permutations.

    Independent oracle for the recurrence: walks every permutation's
    cycle structure, never touching the counting formula.
    """
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force enumeration limited to 1 <= n <= {BRUTE_FORCE_LIMIT}"
        )
    tally = [0] * (n + 1)
    for perm in iter_permutations(range(n)):
        seen = [False] * n
        smallest = n + 1
        for start in range(n):
            if not seen[start]:
                length = 0
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length < smallest:
                    smallest = length
        tally[smallest] += 1
    return tally[1:]


# Euler-Mascheroni constant to 100 decimals (standard tables).
GAMMA_100 = ("0.57721566490153286060651209008240243104215933593992"
             "35988057672348848677267776646709369470632917467495")
REFERENCE_LAST_BLOCK = 199


def exp_neg_gamma_100(p: int) -> Decimal:
    """exp(-gamma) at p <= 90 digits, from GAMMA_100."""
    with localcontext(context(p)):
        return +(-Decimal(GAMMA_100)).exp()


def moment_constant_reference(p: int, ell: int) -> Decimal:
    """ell * integral_1^inf omega(x)/x^ell dx at p + 15 digits: the exact
    head, blocks 2..199 of a p + 15 digit K = 1 ledger, and the tail
    exp(-gamma) 200^(1-ell)/(ell-1), whose error |omega - exp(-gamma)|
    is far below 10^-100 past u = 200."""
    q = p + 15
    ledger = OmegaKLedger(1, q)
    with localcontext(context(q)):
        quad = sum(integrate_block(ledger, n, ell)
                   for n in range(2, REFERENCE_LAST_BLOCK + 1))
        tail = exp_neg_gamma_100(q) * Decimal(REFERENCE_LAST_BLOCK + 1) ** (1 - ell) / (ell - 1)
        return 1 - Decimal(1) / 2 ** ell + ell * (quad + tail)


class OmegaKChain:
    """The p-digit Omega_K chain, grown by looping ``advance_omega_k`` as
    far as it is read: the reference for the blocks a ledger makes from
    the large-x expansion past its switch block."""

    def __init__(self, K, p: int):
        self.K, self.p = K, p
        self.blocks: List[OmegaBlock] = [seed_block1(), seed_block2(K, p)]

    def block(self, n: int) -> OmegaBlock:
        while len(self.blocks) < n:
            self.blocks.append(advance_omega_k(self.blocks[-1], self.K, self.p))
        return self.blocks[n - 1]

    def value(self, x) -> Decimal:
        """Omega_K(x) from the chain's block floor(x)."""
        ctx = context(self.p)
        x = ctx.create_decimal(x)
        n = int(x)
        return self.block(n).eval(ctx.subtract(ctx.multiply(2, x - n), 1), ctx)


def _switch_sweep() -> List[tuple]:
    """14 K log-uniform in [1e-9, MAX_K] (to 4 digits), then K = 1e-40,
    which makes blocks of one coefficient below p = 40, and K = MAX_K;
    p uniform in [20, 60]."""
    rng = random.Random(28)
    ks = [f"{10 ** rng.uniform(-9, math.log10(MAX_K)):.4g}" for _ in range(14)]
    return [(K, rng.randint(20, 60)) for K in ks + ["1e-40", str(MAX_K)]]


SWITCH_SWEEP = _switch_sweep()
