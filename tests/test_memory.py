"""What the package holds: only what a call reads.

Importing the layers maps no OpenSSL, a call leaves no reference cycle
for the collector (Decimals are not tracked by it, so cyclic garbage
full of them can outlive several calls), a ledger keeps one block made
from the large-x expansion, not one per block read, and count tables of
one size share one triangle, freed with the last of them.
"""

import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

import buchstab
from buchstab.counts import DERANGEMENTS, PERMUTATIONS, build_table, distribution
from buchstab.omega import build_omega_ledger, moment_constant
from buchstab.omega_k import OmegaBlock, OmegaKLedger, eval_omega_k, oracle_quadrature


def test_importing_the_layers_loads_no_hashlib():
    src = os.path.dirname(os.path.dirname(buchstab.__file__))
    code = ("import sys\n"
            "import buchstab.cli, buchstab.counts, buchstab.omega, buchstab.omega_k, "
            "buchstab.store\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


CALLS = {
    "oracle off the grid": lambda: oracle_quadrature(1, "5.3", "1e-10"),
    "oracle at an integer": lambda: oracle_quadrature("0.5", 7, "1e-10"),
    "eval past the switch block": lambda: eval_omega_k(OmegaKLedger("0.5"), "900.5"),
    "distribution": lambda: distribution(build_table(PERMUTATIONS, 60), 50),
    "moment constant": lambda: moment_constant(build_omega_ledger()),
}


@pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
def test_a_call_leaves_no_cyclic_garbage(call):
    call()  # imports and first-use caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def held_block_indices(ledger):
    """n of every OmegaBlock reachable through the ledger's attributes and
    the lists, tuples and dicts they hold."""
    found, stack = [], list(vars(ledger).values())
    while stack:
        obj = stack.pop()
        if isinstance(obj, OmegaBlock):
            found.append(obj.n)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return found


def test_a_ledger_holds_one_expansion_block():
    ledger = OmegaKLedger(1)
    for n in range(20, 2020):  # 2000 distinct blocks past the switch block 19
        eval_omega_k(ledger, f"{n}.5")
    n0 = ledger.switch.n0
    assert n0 < 20
    assert sorted(held_block_indices(ledger)) == list(range(1, n0 + 1)) + [2019]


def traced_bytes(build):
    """(result of build(), bytes it left allocated), by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_second_class_of_one_size_shares_the_triangle():
    perm, first = traced_bytes(lambda: build_table(PERMUTATIONS, 200))
    der, second = traced_bytes(lambda: build_table(DERANGEMENTS, 200))
    assert der.row(200)[1:] == perm.row(200)[1:]
    assert second < 0.05 * first, (first, second)


def test_the_triangle_is_freed_with_the_last_table_of_its_size():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        perm = build_table(PERMUTATIONS, 200)
        der = build_table(DERANGEMENTS, 200)
        held = tracemalloc.get_traced_memory()[0] - before
        del perm
        assert tracemalloc.get_traced_memory()[0] - before > 0.95 * held  # der holds it
        del der
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 0.01 * held, (held, left)
