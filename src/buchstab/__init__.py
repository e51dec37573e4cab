"""Smallest-component statistics of random combinatorial objects.

Exact counts, distributions and variance of the smallest-component size
(shortest cycle of a random permutation and friends), the Buchstab
function omega and its moment constants, and the generalized Buchstab
function Omega_K whose reciprocal gives "large smallest component"
proportions.  One piecewise Taylor ledger serves both Buchstab
functions: omega(x) = Omega_1(x)/x, and its blocks are integrated term
by term.
"""

from .numerics import (
    DEFAULT_PRECISION,
    PrecisionError,
    as_real,
    exp_neg_gamma,
    factorial,
    rational_to_real,
)
from .counts import (
    DERANGEMENTS,
    PERMUTATIONS,
    ComponentClass,
    CountTable,
    MemoryCapError,
    MomentReport,
    SmallestDistribution,
    brute_force_counts,
    build_table,
    component_class_by_name,
    distribution,
    tail_probability,
    variance,
    variance_series,
)
from .omega import (
    MomentConstant,
    QuadratureConfig,
    build_omega_ledger,
    eval_omega,
    integrate_block,
    moment_constant,
)
from .omega_k import (
    LedgerRangeError,
    OmegaBlock,
    OmegaKLedger,
    advance_omega_k,
    alpha_vector,
    eval_omega_k,
    oracle_quadrature,
    proportion_large_smallest,
    seed_block1,
    seed_block2,
    table_values,
)
from .store import (
    ArtifactCache,
    CorruptArtifactError,
    StoredArtifact,
    StoreError,
    VersionError,
    load_artifact,
    save_artifact,
)

__version__ = "0.1.0"
