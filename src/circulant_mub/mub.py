"""Construction and verification of mutually unbiased bases.

Two orthonormal bases are mutually unbiased when every scalar product
across them has modulus d**-0.5.  With bases written as the columns of
unitaries A and B, the pair test is a matrix statement: every entry of
A* B must have modulus d**-0.5, i.e. A* B is a unitary Hadamard matrix.

Families delivered here, by dimension class:

    d = 2           identity, Fourier, and the circulant-phase basis Y
    d odd prime     identity, Fourier, and all powers R, R**2, ..., R**(d-1)
    d odd composite identity, Fourier, R, ..., R**(s-1), s the smallest
                    divisor of d above 1 (coprime powers only)
    d even >= 4     identity, Fourier, R

Every member but F is a circulant stored by its first column: the
identity, Y = circ((1, i) / sqrt(2)) at d = 2 and every R**k.  F is dense,
and of the type only build_fourier returns.  The verifier never trusts the
construction: for each pair it measures the two defects of
is_unitary_hadamard on A* B, the worst entry of |Gram - I| and of ||entry| -
d**-0.5|.  For two circulants A* B is the circulant of spectrum conj(s_a)
s_b, so both defects are read off first columns in O(d log d).  F
diagonalises every circulant, F* C = diag(s) F* for C of spectrum s, so a
pair of F with a circulant is read from s as well, plus F's own defect,
measured once: such a record measures C's spectrum, not the floating-point
product F* C, and the fourier-diagonalizes-shift identity of
structural_identities is what ties F to the DFT.  A shipped family thus
needs no dense product; any other pair with a dense member is multiplied
densely and checked by is_unitary_hadamard itself.  The report holds the
pairs' labels and one read-only array of their deviations, in family order.

structural_identities measures the matrix identities the construction rests
on, coprime_power_mismatches the rule that R**k is unitary Hadamard exactly
when gcd(k, d) = 1, and negative_check_even why even families stop at three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gauss import is_prime, smallest_nontrivial_divisor
from .linalg import (
    CheckResult,
    CirculantMatrix,
    DenseUnitary,
    FourierMatrix,
    _check_tolerance,
    _circulant_hadamard_deviation,
    _freeze,
    _tolerance,
    adjoint,
    build_clock,
    build_fourier,
    build_index_reversal,
    build_phased_fourier,
    build_rotation,
    build_shift,
    build_triangular_diagonal,
    circulant_deviation,
    circulant_multiply,
    diagonalize_circulant,
    is_unitary,
    is_unitary_hadamard,
    multiply,
    power,
    rotation_scalar,
)
from .phase_ring import _check_dimension, root_table


class Recipe(str, Enum):
    PRIME = "Prime"
    D_TWO = "DTwo"
    ODD_COMPOSITE = "OddComposite"
    EVEN = "Even"


@dataclass(frozen=True, eq=False)
class MubFamily:
    dimension: int
    bases: tuple[tuple[str, DenseUnitary | CirculantMatrix], ...]
    recipe: Recipe


@dataclass(frozen=True, eq=False)
class UnbiasednessReport:
    pairs: tuple[tuple[str, str], ...]
    deviations: np.ndarray
    passed: bool

    @property
    def worst(self) -> float:
        return float(self.deviations.max(initial=0.0))


def build_family(d: int) -> MubFamily:
    """Construct the mutually unbiased family for dimension d.

    Every member but F is a circulant kept as its first column: the
    identity, Y at d = 2 and the powers R**k for d >= 3.  Nothing is checked
    here: verify_family's pairs with the identity measure each other
    member's unitarity, and every other pair its unbiasedness.
    """
    _check_dimension(d, 2, what="mutually unbiased family dimension")
    if d == 2:
        others = [("Y", CirculantMatrix(2, _freeze(root_table(2)[:2] / math.sqrt(2))))]  # circ((1, i) / sqrt(2))
        recipe = Recipe.D_TWO
    elif d % 2 == 0:
        others = [("R", build_rotation(d))]
        recipe = Recipe.EVEN
    else:
        divisor = smallest_nontrivial_divisor(d)  # d itself when d is prime
        count = divisor - 1
        recipe = Recipe.PRIME if divisor == d else Recipe.ODD_COMPOSITE
        rotation = build_rotation(d)
        others = []
        current = rotation
        for k in range(1, count + 1):
            others.append(("R" if k == 1 else f"R^{k}", current))
            if k < count:
                current = circulant_multiply(current, rotation)
    column = np.zeros(d, dtype=np.complex128)
    column[0] = 1.0
    bases = (("I", CirculantMatrix(d, _freeze(column))), ("F", build_fourier(d)), *others)
    return MubFamily(dimension=int(d), bases=bases, recipe=recipe)


def verify_family(family: MubFamily, tol: float | None = None) -> UnbiasednessReport:
    """Measure unbiasedness of every pair of bases in the family.

    The report's pairs hold the (label_a, label_b) of every unordered pair in
    family order, (I, F), (I, R), ..., and its read-only float64 deviations
    one deviation per pair; it passed when every deviation is within tol.

    For each unordered pair (A, B) the deviation is is_unitary_hadamard's on
    A* B: the worse of max |Gram - I| and max ||entry| - d**-0.5|.  Two
    circulants: from first columns and spectra, one row of pairs at a time.
    The F of build_fourier (a FourierMatrix, never a member picked by its
    label) and a circulant C of spectrum s: F* C = diag(s) F* and C* F =
    F diag(conj(s)) both have entry moduli |s| d**-0.5, and Grams C* C and
    diag(|s|**2), so the pair is read from s and maxed with F's own
    is_unitary_hadamard defect, measured once.  Such a record measures C's
    spectrum plus F's own defect, not the floating-point product F* C; the
    fourier-diagonalizes-shift identity is what ties F to the DFT.  Any other
    pair with a dense member: is_unitary_hadamard on the dense product.
    Pairs against the identity therefore re-check that each other member is
    itself unitary Hadamard (I|F is F's own defect).
    """
    tol = _tolerance(family.dimension, tol)
    root_d = math.sqrt(family.dimension)
    members = [basis for _, basis in family.bases]
    spectra = [diagonalize_circulant(b) if isinstance(b, CirculantMatrix) else None for b in members]
    own = [is_unitary_hadamard(b, tol).deviation if isinstance(b, FourierMatrix) else None for b in members]
    pairs, values = [], []
    for i, (label_a, a) in enumerate(family.bases):
        later = range(i + 1, len(members))
        deviations = {}
        circulants = [j for j in later if spectra[j] is not None]
        if circulants and spectra[i] is not None:
            # A* B is the circulant of spectrum conj(s_a) s_b: the whole row at once
            product = np.conj(spectra[i]) * np.array([spectra[j] for j in circulants])
            row = _circulant_hadamard_deviation(np.fft.ifft(product, axis=-1), product)
            deviations = dict(zip(circulants, row.tolist()))
        elif circulants and own[i] is not None:
            # F* C = diag(s) F*: entry moduli |s| d**-0.5, Gram C* C of spectrum |s|**2
            stacked = np.array([spectra[j] for j in circulants])
            row = np.maximum(own[i], _circulant_hadamard_deviation(stacked / root_d, stacked))
            deviations = dict(zip(circulants, row.tolist()))
        if spectra[i] is not None:
            # C* F = F diag(conj(s)): entry moduli |s| d**-0.5, Gram diag(|s|**2)
            moduli = np.abs(spectra[i])
            defect = max(float(np.abs(moduli**2 - 1.0).max()), float(np.abs(moduli - 1.0).max()) / root_d)
            deviations.update((j, max(own[j], defect)) for j in later if own[j] is not None)
        dense = [j for j in later if j not in deviations]
        if dense:
            a_adj = adjoint(a)  # once per row, and never for a row the spectra cover
            for j in dense:
                deviations[j] = is_unitary_hadamard(multiply(a_adj, members[j]), tol).deviation
        pairs.extend((label_a, family.bases[j][0]) for j in later)
        values.extend(deviations[j] for j in later)
    values = np.array(values, dtype=np.float64)
    values.setflags(write=False)
    return UnbiasednessReport(pairs=tuple(pairs), deviations=values, passed=bool((values <= tol).all()))


@dataclass(frozen=True)
class EvenSquareCheck:
    """Expected-failure probe: in even dimensions the rotation square stays
    unitary and circulant yet is not a Hadamard matrix, which is exactly
    why the even family stops at three bases.  passed: the square is unitary
    and circulant within the tolerance, and not unitary Hadamard."""

    passed: bool
    unitary: CheckResult
    circulant_dev: float
    hadamard: CheckResult
    modulus_min: float
    modulus_max: float


def negative_check_even(d: int, tol: float | None = None) -> EvenSquareCheck:
    """Square the even-dimension rotation densely and document the defect."""
    _check_dimension(d, 4, "even", "rotation-square probe dimension")
    tol = _tolerance(d, tol)
    dense = build_rotation(d).to_dense()
    square = dense @ dense
    moduli = np.abs(square)
    unitary = is_unitary(square, tol)
    circulant_dev = circulant_deviation(square)
    hadamard = is_unitary_hadamard(square, tol)
    return EvenSquareCheck(
        passed=unitary.passed and circulant_dev <= tol and not hadamard.passed,
        unitary=unitary,
        circulant_dev=circulant_dev,
        hadamard=hadamard,
        modulus_min=float(moduli.min()),
        modulus_max=float(moduli.max()),
    )


def _worst(difference: np.ndarray) -> float:
    return float(np.abs(difference).max())


def structural_identities(d: int) -> list[tuple[str, dict, float]]:
    """(check, case, deviation) for each matrix identity the construction
    rests on, the deviation being the largest entry of |lhs - rhs|: with clock
    U, shift V and omega = exp(2*i*pi/d), V U = omega U V, F* V F = U, F**2 =
    the index reversal and F**4 = I; for odd prime d also, with alpha =
    rotation_scalar(d) and D the triangular diagonal, R = alpha F D F*,
    R U R* = V U, R**d = alpha**d I and, for k in {1, 2, d-2, d-1},
    R**k U R**-k = V**k U and build_phased_fourier(d, k) = alpha**k F* R**-k F**2.
    """
    omega = complex(root_table(d)[2 % (2 * d)])
    fourier = build_fourier(d)
    clock = build_clock(d).to_dense()
    shift = build_shift(d).to_dense()
    found = [("clock-shift-commutation", {"d": d}, _worst(shift @ clock - omega * (clock @ shift)))]
    conjugated = multiply(multiply(adjoint(fourier), shift), fourier).entries
    found.append(("fourier-diagonalizes-shift", {"d": d}, _worst(conjugated - clock)))
    f2 = multiply(fourier, fourier).entries
    found.append(("fourier-square-is-reversal", {"d": d}, _worst(f2 - build_index_reversal(d).entries)))
    found.append(("fourier-order-four", {"d": d}, _worst(f2 @ f2 - np.eye(d))))
    if d % 2 and is_prime(d):
        alpha = rotation_scalar(d)
        rotation = build_rotation(d).to_dense()
        diag = build_triangular_diagonal(d)
        rhs = alpha * multiply(multiply(fourier, diag), adjoint(fourier)).entries
        found.append(("rotation-diagonalization", {"d": d}, _worst(rotation - rhs)))
        lhs = rotation @ clock @ rotation.conj().T
        found.append(("rotation-clock-conjugation", {"d": d}, _worst(lhs - shift @ clock)))
        found.append(("rotation-order", {"d": d}, _worst(power(rotation, d).entries - alpha**d * np.eye(d))))
        for k in sorted({1, 2, d - 2, d - 1} & set(range(1, d))):
            r_k = power(rotation, k).entries
            lhs = r_k @ clock @ r_k.conj().T
            rhs = power(shift, k).entries @ clock
            found.append(("rotation-power-clock", {"d": d, "k": k}, _worst(lhs - rhs)))
            lhs = build_phased_fourier(d, k).entries
            rhs = alpha**k * (adjoint(fourier).entries @ power(rotation.conj().T, k).entries @ f2)
            found.append(("phased-fourier-identity", {"d": d, "k": k}, _worst(lhs - rhs)))
    return found


def coprime_power_mismatches(d: int, tol: float) -> list[int]:
    """The k in 1..d-1 at which "R**k is unitary Hadamard within tol"
    disagrees with gcd(k, d) = 1, which the paper's rule leaves empty for
    odd d.  R**k is the circulant of spectrum s**k, s the spectrum of R, so
    every power is measured from one batch of spectra, never densely.  Row
    k - 1 is the cumulative product s * ... * s of the built spectrum, so it
    measures the built R, not exact exponents."""
    _check_tolerance(tol)
    spectrum = diagonalize_circulant(build_rotation(d))  # the builder guards d first
    spectra = np.cumprod(np.broadcast_to(spectrum, (d - 1, d)), axis=0)
    deviations = _circulant_hadamard_deviation(np.fft.ifft(spectra, axis=-1), spectra)
    return [k for k, dev in zip(range(1, d), deviations.tolist()) if (dev <= tol) != (math.gcd(k, d) == 1)]
