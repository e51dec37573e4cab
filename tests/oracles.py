"""Test-side oracles: methods independent of the package's, used only
to check it.

* ``brute_force_counts``: smallest-cycle tallies by walking every
  permutation, checked against the count-table recurrence.
"""

from itertools import permutations as iter_permutations
from typing import List

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
