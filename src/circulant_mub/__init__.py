"""Mutually unbiased bases from circulant matrices and the discrete Fourier
transform, with exact phase bookkeeping and a verification CLI.

The names below are loaded on first use (PEP 562), so `import circulant_mub`
loads no numpy: python -m circulant_mub can still choose the BLAS threads of
the CLI process before numpy starts them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "phase_ring": (
        "phase_of_omega",
        "root_table",
        "square_phase",
        "to_complex",
        "triangular_phase",
    ),
    "linalg": (
        "CheckResult",
        "CirculantMatrix",
        "DenseUnitary",
        "DiagonalUnitary",
        "adjoint",
        "build_clock",
        "build_fourier",
        "build_index_reversal",
        "build_phased_fourier",
        "build_rotation",
        "build_shift",
        "build_square_diagonal",
        "build_triangular_diagonal",
        "circulant_deviation",
        "circulant_multiply",
        "circulant_power",
        "default_tolerance",
        "diagonalize_circulant",
        "is_unitary",
        "is_unitary_hadamard",
        "multiply",
        "power",
        "rotation_scalar",
    ),
    "sequences": (
        "BiunimodularityReport",
        "as_sequence",
        "autocorrelation",
        "canonical_form",
        "dft_sequence",
        "exhaustive_biunimodular",
        "gauss_sequence",
        "is_biunimodular",
    ),
    "gauss": (
        "GaussSumSpec",
        "gauss_identity_sweep",
        "gauss_sum_direct",
        "gauss_sum_reciprocity",
        "is_prime",
        "smallest_nontrivial_divisor",
        "verify_even_gauss",
    ),
    "mub": (
        "MubFamily",
        "Recipe",
        "UnbiasednessReport",
        "build_family",
        "negative_check_even",
        "verify_family",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, bound as the eager imports used to bind it
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
