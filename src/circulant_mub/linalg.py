"""Structured unitaries on C^d: Fourier, clock/shift pair, circulants.

All named matrices here are built from integer exponent arrays reduced
mod 2d (see phase_ring) and materialized by indexing one shared root table
per dimension, so algebraically equal entries of different matrices are
bit-identical floats.  Conventions:

    omega          = exp(2*i*pi/d)
    fourier F      : F[j,k] = d**-0.5 * omega**(j*k)
    clock U        : diag(1, omega, ..., omega**(d-1))
    shift V        : ones on the superdiagonal, one in the lower-left corner
    circulant(c)   : C[j,k] = c[(j-k) mod d], c the first column
    rotation R     : d**-0.5 * circ(omega**(-k*(k+1)/2))   for odd d
                     d**-0.5 * circ(omega**(-k*k/2))       for even d

The rotation matrix is the workhorse: for odd d it is conjugate to a
diagonal of triangular phases by F, and its powers supply the circulant
members of the mutually unbiased families built in the mub module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_ring import _check_dimension, _check_integers, root_table, square_phase, triangular_phase

DEFAULT_TOL_BASE = 1e-9  # the tolerance base of every check, and the CLI's --tol default


def _check_tolerance(tol: float) -> float:
    # a NaN compares false with every deviation, so it would fail every
    # check, and an infinite one would pass every check
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be a positive finite number, got {tol}")
    return tol


def default_tolerance(d: int, base: float = DEFAULT_TOL_BASE) -> float:
    """Deviation budget base * sqrt(d): matrix checks accumulate error
    over d-term sums, so the budget grows with the dimension.  A budget that
    is not positive and finite (d < 1, or a base that overflows) is refused."""
    tol = _check_tolerance(base) * (math.sqrt(d) if d >= 0 else math.nan)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance base {base} times sqrt({d}) is {tol}, not a positive finite number")
    return tol


def _tolerance(d: int, tol: float | None) -> float:
    """A check's tolerance: tol, refused unless positive and finite, or default_tolerance(d)."""
    return default_tolerance(d) if tol is None else _check_tolerance(tol)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a numerical predicate: verdict plus the worst deviation."""

    passed: bool
    deviation: float


@dataclass(frozen=True, eq=False)
class DenseUnitary:
    dimension: int
    entries: np.ndarray


class FourierMatrix(DenseUnitary):
    """The dense F of build_fourier, which alone returns this type: it marks
    the member whose pairs with circulants mub.verify_family may read from
    spectra, F* C being diag(s) F* for a circulant C of spectrum s."""


@dataclass(frozen=True, eq=False)
class CirculantMatrix:
    """Stored by its first column c; the full matrix is C[j,k] = c[(j-k) mod d]."""

    dimension: int
    first_column: np.ndarray

    def to_dense(self) -> np.ndarray:
        idx = np.arange(self.dimension)
        return self.first_column[(idx[:, None] - idx[None, :]) % self.dimension]


@dataclass(frozen=True, eq=False)
class DiagonalUnitary:
    """Diagonal of exact phases exp(i*pi*t/d), stored as the int64 exponents
    t reduced mod 2d and materialized on demand.  It keeps a read-only copy
    of the exponents it is given, so the caller's array stays writable."""

    dimension: int
    exponents: np.ndarray

    def __post_init__(self) -> None:
        exponents = np.array(self.exponents)
        exponents.setflags(write=False)
        object.__setattr__(self, "exponents", exponents)

    def values(self) -> np.ndarray:
        return root_table(self.dimension)[self.exponents]

    def to_dense(self) -> np.ndarray:
        return np.diag(self.values())


def as_matrix(obj) -> np.ndarray:
    """Coerce any of the matrix types (or a raw array) to a dense ndarray."""
    if isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, DenseUnitary):
        return obj.entries
    if isinstance(obj, (CirculantMatrix, DiagonalUnitary)):
        return obj.to_dense()
    raise TypeError(f"cannot interpret {type(obj).__name__} as a matrix")


def _freeze(entries: np.ndarray) -> np.ndarray:
    entries = np.ascontiguousarray(entries, dtype=np.complex128)
    entries.setflags(write=False)
    return entries


# ---------------------------------------------------------------------------
# builders


def build_fourier(d: int) -> FourierMatrix:
    """F[j,k] = d**-0.5 * omega**(j*k)."""
    _check_dimension(d)
    idx = np.arange(d, dtype=np.int64)
    t = (2 * np.outer(idx, idx)) % (2 * d)
    entries = root_table(d)[t] / math.sqrt(d)
    return FourierMatrix(d, _freeze(entries))


def build_clock(d: int) -> DiagonalUnitary:
    """The clock matrix diag(1, omega, omega**2, ...)."""
    _check_dimension(d, 2, what="clock matrix dimension")
    return DiagonalUnitary(d, 2 * np.arange(d, dtype=np.int64))


def build_shift(d: int) -> CirculantMatrix:
    """The cyclic shift: ones on the superdiagonal, one in the lower-left
    corner; as a circulant its first column is the last standard basis
    vector.  Conjugating by F turns it into the clock matrix."""
    _check_dimension(d, 2, what="shift matrix dimension")
    column = np.zeros(d, dtype=np.complex128)
    column[d - 1] = 1.0
    return CirculantMatrix(d, _freeze(column))


def build_triangular_diagonal(d: int) -> DiagonalUnitary:
    """diag(omega**(k*(k+1)/2)) for odd d; the eigenphase pattern of the
    rotation matrix up to one overall unit scalar."""
    _check_dimension(d, 1, "odd", "triangular diagonal dimension")
    return DiagonalUnitary(d, triangular_phase(np.arange(d, dtype=np.int64), 1, d))


def build_square_diagonal(d: int) -> DiagonalUnitary:
    """diag(omega**(-k*k/2)) for even d."""
    _check_dimension(d, 2, "even", "square diagonal dimension")
    return DiagonalUnitary(d, square_phase(np.arange(d, dtype=np.int64), d))


def build_rotation(d: int) -> CirculantMatrix:
    """R = d**-0.5 * circ(c) with c[k] = omega**(-k*(k+1)/2) for odd d and
    c[k] = omega**(-k*k/2) for even d.  Unitary Hadamard in every dimension."""
    _check_dimension(d, 2, what="rotation matrix dimension")
    k = np.arange(d, dtype=np.int64)
    t = triangular_phase(k, -1, d) if d % 2 else square_phase(k, d)
    return CirculantMatrix(d, _freeze(root_table(d)[t] / math.sqrt(d)))


def build_phased_fourier(d: int, k: int) -> DenseUnitary:
    """Row-phased Fourier matrix: the j-th row of F times omega**(-k*j*(j+1)/2).

    Equal to (triangular diagonal)**-k followed by F; entry (j, m) is
    d**-0.5 * exp(i*pi*(2*j*m - k*j*(j+1))/d).  Odd d only.
    """
    _check_dimension(d, 1, "odd", "phased Fourier dimension")
    j = np.arange(d, dtype=np.int64)
    t = (2 * np.outer(j, j) + triangular_phase(j, -k, d)[:, None]) % (2 * d)
    entries = root_table(d)[t] / math.sqrt(d)
    return DenseUnitary(d, _freeze(entries))


def build_index_reversal(d: int) -> DenseUnitary:
    """Permutation fixing index 0 and sending j to d - j; equals F squared."""
    _check_dimension(d)
    entries = np.zeros((d, d), dtype=np.complex128)
    entries[0, 0] = 1.0
    for j in range(1, d):
        entries[j, d - j] = 1.0
    return DenseUnitary(d, _freeze(entries))


def rotation_scalar(d: int) -> complex:
    """The unit scalar alpha = d**-0.5 * sum_k omega**(-k*(k+1)/2) relating
    the odd-d rotation matrix to the triangular diagonal: R = alpha F D F*."""
    _check_dimension(d, 1, "odd", "rotation scalar dimension")
    t = triangular_phase(np.arange(d, dtype=np.int64), -1, d)
    return complex(root_table(d)[t].sum() / math.sqrt(d))


# ---------------------------------------------------------------------------
# products and powers


def multiply(a, b) -> DenseUnitary:
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return DenseUnitary(ma.shape[0], _freeze(ma @ mb))


def adjoint(a) -> DenseUnitary:
    ma = as_matrix(a)
    return DenseUnitary(ma.shape[0], _freeze(ma.conj().T))


def _check_exponent(n: int) -> None:
    _check_integers("exponent n", n)
    if n < 0:
        raise ValueError(f"exponent n must be an integer >= 0, got {n!r}")


def power(a, n: int) -> DenseUnitary:
    """Square-and-multiply power for an integer n >= 0; for a negative power
    of a unitary, raise its adjoint (a.conj().T) to -n."""
    _check_exponent(n)
    ma = as_matrix(a)
    d = ma.shape[0]
    result = np.eye(d, dtype=np.complex128)
    base = ma
    m = n
    while m:
        if m & 1:
            result = result @ base
        m >>= 1
        if m:
            base = base @ base
    return DenseUnitary(d, _freeze(result))


def circulant_multiply(a: CirculantMatrix, b: CirculantMatrix) -> CirculantMatrix:
    """Product of circulants without densifying: the first column of the
    product is the cyclic convolution of the factors' first columns,
    computed here in O(d log d) through the FFT."""
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    column = np.fft.ifft(np.fft.fft(a.first_column) * np.fft.fft(b.first_column))
    return CirculantMatrix(a.dimension, _freeze(column))


def circulant_power(c: CirculantMatrix, n: int) -> CirculantMatrix:
    """n-th power of a circulant, for an integer n >= 0, as a circulant."""
    _check_exponent(n)
    column = np.fft.ifft(np.fft.fft(c.first_column) ** n)
    return CirculantMatrix(c.dimension, _freeze(column))


def diagonalize_circulant(c: CirculantMatrix) -> np.ndarray:
    """Diagonal of F* C F as a length-d vector.

    Entry l is sum_k c[k] * omega**(-k*l), i.e. sqrt(d) times the
    negated-index normalized DFT of the first column.
    """
    return np.fft.fft(c.first_column)


# ---------------------------------------------------------------------------
# predicates


def is_unitary(m, tol: float | None = None) -> CheckResult:
    """Max-entry deviation of M* M from the identity, against tol."""
    mm = as_matrix(m)
    if mm.ndim != 2 or mm.shape[0] != mm.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mm.shape}")
    d = mm.shape[0]
    tol = _tolerance(d, tol)
    gram = mm.conj().T @ mm
    deviation = float(np.abs(gram - np.eye(d)).max())
    return CheckResult(deviation <= tol, deviation)


def is_unitary_hadamard(m, tol: float | None = None) -> CheckResult:
    """Unitary with all entry moduli equal to d**-0.5; the deviation is the
    worse of the unitarity defect and the entry-modulus defect."""
    mm = as_matrix(m)
    unitary = is_unitary(mm, tol)  # refuses a non-square matrix and a bad tol
    d = mm.shape[0]
    tol = _tolerance(d, tol)
    deviation = max(unitary.deviation, float(_modulus_deviation(np.abs(mm)).max()))
    return CheckResult(deviation <= tol, deviation)


def _circulant_hadamard_deviation(columns: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """is_unitary_hadamard's deviation for circulants given by their first
    columns and spectra, one per row, without densifying them: C* C is the
    circulant of spectrum |s|**2, and its first column holds every entry of
    C* C - I."""
    gram = np.fft.ifft(np.abs(spectra) ** 2, axis=-1)
    gram[..., 0] -= 1.0
    return np.maximum(np.abs(gram).max(axis=-1), _modulus_deviation(np.abs(columns)))


def _modulus_deviation(moduli: np.ndarray) -> np.ndarray:
    """is_unitary_hadamard's entry-modulus defect, max ||entry| - d**-0.5|, of
    each row of d entry moduli: a circulant's first column or a row of a
    dense matrix."""
    return np.abs(moduli - 1.0 / math.sqrt(moduli.shape[-1])).max(axis=-1)


def circulant_deviation(m) -> float:
    """How far a dense matrix is from circulant structure: the largest
    entry difference between M[j,k] and M[(j+1) mod d, (k+1) mod d]."""
    mm = as_matrix(m)
    rolled = np.roll(mm, shift=(1, 1), axis=(0, 1))
    return float(np.abs(mm - rolled).max())
