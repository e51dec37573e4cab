"""What importing the package and running one command load, and the
public records' contracts (constructor, validation, immutability)."""

import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import buchstab


def imported_modules(*args, env=None):
    """Names of the modules a fresh ``python -X importtime *args`` imports.

    Modules a site hook loads before the command show up in every run,
    so comparing two runs leaves only what the command itself added."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


@pytest.fixture(scope="module")
def baseline():
    return imported_modules("-c", "pass")


LAYERS = {"buchstab.counts", "buchstab.omega", "buchstab.omega_k", "buchstab.store"}


@pytest.mark.parametrize("argv, layers", [
    (("counts", "--n", "5"), {"buchstab.counts"}),
    (("dist", "--n", "5"), {"buchstab.counts"}),
    (("tail", "--n", "60", "--k", "3"), {"buchstab.counts"}),
    (("variance-series", "--n", "5"), {"buchstab.counts"}),
    (("omega", "--x", "5.5"), {"buchstab.omega", "buchstab.omega_k"}),
    (("constant",), {"buchstab.omega", "buchstab.omega_k"}),
    (("omega-k", "--k", "1", "--x", "5.5"), {"buchstab.omega_k"}),
    (("omega-k-table", "--k", "1", "--x-list", "2", "3"), {"buchstab.omega_k"}),
    (("cache", "list", "--cache-dir", "unused"), {"buchstab.omega_k", "buchstab.store"}),
])
def test_a_command_loads_only_the_layers_it_runs(baseline, argv, layers):
    added = imported_modules("-m", "buchstab", *argv) - baseline
    assert added & LAYERS == layers
    assert "dataclasses" not in added


@pytest.mark.parametrize("argv", [
    ("omega", "--x", "5.5"),
    ("constant",),
    ("omega-k", "--k", "1", "--x", "5.5"),
    ("omega-k-table", "--k", "1", "--x-list", "2", "3"),
    ("cache", "list"),
])
def test_ledger_commands_load_no_pathlib(tmp_path, argv):
    # under -S no site step preloads pathlib, so the command's own imports
    # show; only ``cache`` loads the store, and --cache-dir is ignored elsewhere
    src = os.path.dirname(os.path.dirname(buchstab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for _ in ("cold", "warm"):
        loaded = imported_modules("-S", "-m", "buchstab", *argv,
                                  "--cache-dir", str(tmp_path), env=env)
        assert ("buchstab.store" in loaded) == (argv[0] == "cache")
        assert "pathlib" not in loaded


def test_importing_the_package_loads_no_module(baseline):
    added = imported_modules("-c", "import buchstab")
    assert not {m for m in added - baseline if m.startswith("buchstab.")}


def test_every_public_name_resolves():
    for name in buchstab.__all__:
        assert getattr(buchstab, name) is not None, name
    namespace = {}
    exec("from buchstab import *", namespace)
    assert set(buchstab.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        buchstab.no_such_name


RECORDS = [
    ("ComponentClass", ("permutations", 1), "smallest"),
    ("SmallestDistribution", (1, (Fraction(1),)), "probs"),
    ("MomentReport", (1, Fraction(1), Fraction(1), Fraction(0), Decimal(0)), "variance"),
    ("QuadratureConfig", (30,), "precision"),
    ("MomentConstant", (2, Decimal(1), Decimal(0), Fraction(3, 4)), "value"),
    ("OmegaBlock", (1, (Decimal(1),)), "coeffs"),
]


@pytest.mark.parametrize("name, args, field", RECORDS, ids=[r[0] for r in RECORDS])
def test_records_are_immutable_values(name, args, field):
    cls = getattr(buchstab, name)
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*args) and repr(record).startswith(f"{name}(")


def test_record_defaults_and_validation():
    assert buchstab.QuadratureConfig() == buchstab.QuadratureConfig(30)
    with pytest.raises(ValueError):
        buchstab.QuadratureConfig(precision=9)
    with pytest.raises(ValueError):
        buchstab.ComponentClass("x", 3)
    assert buchstab.DERANGEMENTS.c(1) == 0 and buchstab.DERANGEMENTS.c(4) == 6
