"""symdol: exact spectra, kernels, and indices of symplectic Dolbeault operators.

Submodules
----------
gaussian  exact Gaussian-rational numbers
linalg    the sparse exact matrix type of the Fock operators: products
errors    ContractViolation, raised when an internal invariant breaks
rootsys   exact root systems A-D and G2, and the dual Killing form
reps      weight multiplicities, dimensions, Casimirs, one dominant-weight walk
fock      truncated canonical quantization on Hermite products
flagspec  vacuum spectra on G/T and the B_n / C_n distinguisher
cp1       exact scalar ladder blocks for the Dolbeault pair on CP^1
surface   closed-form indices on genus-g surfaces
cli       the command-line interface; owns every output format (table, json, csv)

rootsys, reps and flagspec import only each other and errors: the flag
manifolds never touch the Gaussian, Fock or CP^1 layers.

The names in ``__all__`` are loaded lazily (PEP 562): ``import symdol``
imports no submodule, and the first access to a name imports its home
module.  So ``from symdol import fock`` loads only fock and the layers it
imports itself.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_HOME = {
    "ContractViolation": "errors",
    "DistinguishReport": "flagspec",
    "GroundKernel": "flagspec",
    "RootSystem": "rootsys",
    "SpectrumTable": "flagspec",
    "WeightSystem": "reps",
    "build_root_system": "rootsys",
    "casimir_value": "reps",
    "distinguish": "flagspec",
    "dominant_weights_with_norm_bound": "reps",
    "ground_kernel": "flagspec",
    "index": "surface",
    "is_dominant": "rootsys",
    "p_spectrum": "flagspec",
    "rank_one_sanity": "flagspec",
    "rho": "rootsys",
    "small_irrep_inventory": "flagspec",
    "spinor_weight": "flagspec",
    "weight_multiplicity": "reps",
    "weight_system": "reps",
    "weyl_dimension": "reps",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
