"""symdol: exact spectra, kernels, and indices of symplectic Dolbeault operators.

Submodules
----------
gaussian  exact Gaussian-rational numbers
linalg    the sparse exact matrix type (Fock operators, the CP^1 Casimir): products, sums
errors    ContractViolation, raised when an internal invariant breaks
rootsys   exact classical root systems and the dual Killing form
reps      weight multiplicities, dimensions, Casimirs, one dominant-weight walk
fock      truncated canonical quantization on Hermite products
flagspec  vacuum spectra on G/T and the B_n / C_n distinguisher
cp1       exact scalar ladder blocks for the Dolbeault pair on CP^1
surface   closed-form indices on genus-g surfaces
cli       the command-line interface; owns every output format (table, json, csv)

rootsys, reps and flagspec import only each other and errors: the flag
manifolds never touch the Gaussian, Fock or CP^1 layers.
"""

from .errors import ContractViolation
from .flagspec import (
    DistinguishReport,
    GroundKernel,
    SpectrumTable,
    distinguish,
    ground_kernel,
    p_spectrum,
    rank_one_sanity,
    small_irrep_inventory,
    spinor_weight,
)
from .reps import (
    WeightSystem,
    casimir_value,
    dominant_weights_with_norm_bound,
    weight_multiplicity,
    weight_system,
    weyl_dimension,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    is_dominant,
    rho,
)
from .surface import IndexQuery, cp1_consistency, index

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "DistinguishReport",
    "GroundKernel",
    "IndexQuery",
    "RootSystem",
    "SpectrumTable",
    "WeightSystem",
    "build_root_system",
    "casimir_value",
    "cp1_consistency",
    "distinguish",
    "dominant_weights_with_norm_bound",
    "ground_kernel",
    "index",
    "is_dominant",
    "p_spectrum",
    "rank_one_sanity",
    "rho",
    "small_irrep_inventory",
    "spinor_weight",
    "weight_multiplicity",
    "weight_system",
    "weyl_dimension",
    "__version__",
]
