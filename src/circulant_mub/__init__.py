"""Mutually unbiased bases from circulant matrices and the discrete Fourier
transform, with exact phase bookkeeping and a verification CLI."""

from .phase_ring import (
    phase_of_omega,
    root_table,
    square_phase,
    to_complex,
    triangular_phase,
)
from .linalg import (
    CheckResult,
    CirculantMatrix,
    DenseUnitary,
    DiagonalUnitary,
    adjoint,
    build_clock,
    build_fourier,
    build_index_reversal,
    build_phased_fourier,
    build_rotation,
    build_shift,
    build_square_diagonal,
    build_triangular_diagonal,
    circulant_deviation,
    circulant_multiply,
    circulant_power,
    default_tolerance,
    diagonalize_circulant,
    is_unitary,
    is_unitary_hadamard,
    multiply,
    power,
    rotation_scalar,
)
from .sequences import (
    BiunimodularityReport,
    Sequence,
    as_sequence,
    autocorrelation,
    canonical_form,
    dft_sequence,
    exhaustive_biunimodular,
    gauss_sequence,
    is_biunimodular,
    shift_phase_equivalent,
)
from .gauss import (
    GaussSumSpec,
    gauss_identity_sweep,
    gauss_sum_direct,
    gauss_sum_reciprocity,
    is_prime,
    smallest_nontrivial_divisor,
    verify_even_gauss,
)
from .mub import (
    EvenSquareCheck,
    MubFamily,
    PairCheck,
    Recipe,
    UnbiasednessReport,
    build_family,
    negative_check_even,
    verify_family,
)

__version__ = "0.1.0"
