"""symdol: exact spectra, kernels, and indices of symplectic Dolbeault operators.

Submodules
----------
gaussian  exact Gaussian-rational numbers
linalg    dense exact matrices over the Gaussian rationals: products, ranks
errors    ContractViolation, raised when an internal invariant breaks
rootsys   exact classical root systems and the dual Killing form
reps      weight multiplicities, dimensions, Casimirs, bounded enumeration
fock      truncated canonical quantization on Hermite products
flagspec  vacuum spectra on G/T and the B_n / C_n distinguisher
cp1       exact block matrices for the Dolbeault pair on CP^1
surface   closed-form indices on genus-g surfaces
cli       the command-line interface
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
    spinor_weight_multiset,
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
    killing_dual_form,
    rho,
    simple_reflection,
)
from .surface import IndexQuery, canonical_sections, cp1_consistency, index

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
    "canonical_sections",
    "casimir_value",
    "cp1_consistency",
    "distinguish",
    "dominant_weights_with_norm_bound",
    "ground_kernel",
    "index",
    "is_dominant",
    "killing_dual_form",
    "p_spectrum",
    "rank_one_sanity",
    "rho",
    "simple_reflection",
    "small_irrep_inventory",
    "spinor_weight",
    "spinor_weight_multiset",
    "weight_multiplicity",
    "weight_system",
    "weyl_dimension",
    "__version__",
]
