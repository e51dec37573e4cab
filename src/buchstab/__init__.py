"""Smallest-component statistics of random combinatorial objects.

Exact counts, distributions and variance of the smallest-component size
(shortest cycle of a random permutation and friends), the Buchstab
function omega and its moment constants, and the generalized Buchstab
function Omega_K whose reciprocal gives "large smallest component"
proportions.  One piecewise Taylor ledger serves both Buchstab
functions: omega(x) = Omega_1(x)/x, and its blocks are integrated term
by term.

Importing the package loads none of its modules: each public name below
is imported from its module on first access (PEP 562), so a command
line call pays only for the layers it runs.
"""

import importlib

_EXPORTS = {
    "numerics": (
        "DEFAULT_PRECISION", "PrecisionError", "as_real", "factorial",
        "rational_to_real",
    ),
    "counts": (
        "DERANGEMENTS", "PERMUTATIONS", "ComponentClass", "CountTable",
        "MemoryCapError", "MomentReport", "SmallestDistribution",
        "build_table", "component_class_by_name", "distribution",
        "tail_probability", "variance", "variance_series",
    ),
    "omega": (
        "MomentConstant", "QuadratureConfig", "build_omega_ledger",
        "eval_omega", "integrate_block", "moment_constant",
    ),
    "omega_k": (
        "LedgerRangeError", "OmegaBlock", "OmegaKLedger", "advance_omega_k",
        "eval_omega_k", "oracle_quadrature", "proportion_large_smallest",
        "seed_block1", "seed_block2", "table_values",
    ),
    "store": (
        "ArtifactCache", "CorruptArtifactError", "StoreError",
        "VersionError", "load_artifact", "save_artifact",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
