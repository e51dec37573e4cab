"""One SHA-256 over the digits the ledger layer produces.

Speed-ups of the Decimal loops must keep every digit: this test hashes
the ``str`` of every Taylor coefficient of the K = 1 and K = 1/2
ledgers through block 512 (chain blocks, then expansion blocks), of ``eval_omega_k`` and ``eval_omega`` at
seeded points, and of the moment constants (value and budget) for
ell = 2 and 3 at the default precision.

The literal was made by running ``ledger_digest()`` below on the
commit before the operator-Horner rewrite of ``omega_k.py`` (CPython
3.11), and re-made when ``moment_constant`` stopped rounding its value
to the ambient 28 digits.  Of all the hashed lines only the two
constant values changed, to their full 30 digits:
C = 1.30720779891056809974468019430 and
M3 = 1.08244755034333554720992016731.  It was re-made again when the
quadrature came to end at the block where its proven tail bound meets
10^-p (block 19 for C) instead of block 200: of the four constant
lines C became 1.30720779891056809974468019429 (the Laplace-transform
value to the last digit, since 181 fewer rounded blocks are summed),
the two budgets changed from the 1e-4 tail band to the four-part
budget, and M3 kept its digits.  It was re-made again when blocks
past a ledger's switch block came from the large-x expansion instead
of the chain: the coefficient lines of blocks 20..512 (K = 1) and
24..512 (K = 1/2) moved, and so did the values read from them (at most
1e-27 relative, the chain's rounding), while blocks 1..19 and 1..23,
the values below them and the four constant lines kept every digit.
It was re-made again when the expansion's dropped terms came to be
bounded against min(1, K) 10^-p |u_0| (so that u_1, about K u_0, keeps
p digits) and J became p + ceil(K) for non-integer K: 77 coefficient
lines of K = 1/2 moved, blocks 28, 30, 34, 37, 38, 41, 44, 48, 49, 57,
58, 66-68, 76-78, 80-83, 112-116, 145-151, 187-196, 223-234 and
371-392, each in its last few digits (block 28's c_1 went from
...2121299902 to ...21212999, its c_5 from ...079751003E-10 to
...079607228E-10); no value line and no K = 1 line moved.
Decimal arithmetic under a fixed
context is specified to the digit, so the literal must hold on every
interpreter.  If a change
alters digits on purpose, recompute the literal and say which digits
changed and why.
"""

import hashlib
import random

from buchstab.omega import QuadratureConfig, build_omega_ledger, eval_omega, moment_constant
from buchstab.omega_k import OmegaKLedger, eval_omega_k

BLOCKS = 512
POINTS = 200

LEDGER_DIGEST = "2355db590378a4b3de8bd8843f979c57bf68affb3cacfd6e2e983b6d4b5ae306"


def _points(rng, lo: int, hi: int):
    return [f"{rng.uniform(lo, hi):.9f}" for _ in range(POINTS)]


def ledger_digest() -> str:
    rng = random.Random(20221)
    lines = []
    for K in ("1", "0.5"):
        ledger = OmegaKLedger(K)
        ledger.ensure(BLOCKS)
        for n in range(1, BLOCKS + 1):
            lines.append(" ".join(map(str, ledger.block(n).coeffs)))
        lines += [str(eval_omega_k(ledger, x)) for x in _points(rng, 1, BLOCKS + 1)]
    omega_ledger = build_omega_ledger(QuadratureConfig())
    lines += [str(eval_omega(omega_ledger, x)) for x in _points(rng, 1, 201)]
    for ell in (2, 3):
        const = moment_constant(omega_ledger, ell)
        lines += [str(const.value), str(const.error_budget)]
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def test_ledger_digits_unchanged():
    assert ledger_digest() == LEDGER_DIGEST
