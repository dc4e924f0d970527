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
identity, Y = circ((1, i) / sqrt(2)) at d = 2 and every R**k, whose
spectrum s**k, s = fft(R), _power_spectra forms.  F is dense, and of the
type only build_fourier returns.  The verifier never trusts the
construction: for each pair it measures the two defects of
is_unitary_hadamard on A* B, the worst entry of |Gram - I| and of ||entry| -
d**-0.5|.  _circulant_rows is the one rule for two circulants, read from
their spectra in O(d log d) (its docstring states it); _member_terms makes
what it reads, once per member.  F diagonalises every circulant, F* C =
diag(s) F* for C of spectrum s, so a pair of F with a circulant is read from
s as well, plus F's own defect, measured once: such a record measures C's
spectrum, not the floating-point product F* C, and the
fourier-diagonalizes-shift identity of structural_identities is what ties F
to the DFT.  A shipped family thus needs no dense product; any other pair
with a dense member is multiplied densely and checked by is_unitary_hadamard
itself.  The report holds the pairs' labels and one read-only array of their
deviations, in family order.

structural_identities measures the matrix identities the construction rests
on, densely, as an oracle independent of the spectra; coprime_power_mismatches
the rule that R**k is unitary Hadamard exactly when gcd(k, d) = 1, read as
_circulant_rows' row of the pairs I|R**k; and negative_check_even why even
families stop at three, R**2 being unitary but not Hadamard, read from s**2.
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
    _freeze,
    _modulus_deviation,
    _tolerance,
    adjoint,
    build_clock,
    build_fourier,
    build_index_reversal,
    build_phased_fourier,
    build_rotation,
    build_shift,
    build_triangular_diagonal,
    diagonalize_circulant,
    is_unitary_hadamard,
    multiply,
    power,
    rotation_scalar,
)
from .phase_ring import _check_dimension, root_table


# the largest w_a w_b that _circulant_rows adds to a circulant pair's Gram value
# as a bound on its cross term; a built family's pairs stay below 5.6e-24 for
# every d <= 509, so only a skewed member's cross term is transformed
_CROSS_TERM_LIMIT = 1e-18


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
    identity, Y at d = 2 and the powers R**k for d >= 3, each past R the
    inverse FFT of a row of _power_spectra.  Nothing is checked here:
    verify_family's pairs with the identity measure each other member's
    unitarity, and every other pair its unbiasedness.
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
        powers = _freeze(np.fft.ifft(_power_spectra(rotation, count)[1:], axis=-1))  # R**2, ..., R**count
        others = [("R", rotation), *((f"R^{k}", CirculantMatrix(d, column)) for k, column in enumerate(powers, 2))]
    column = np.zeros(d, dtype=np.complex128)
    column[0] = 1.0
    bases = (("I", CirculantMatrix(d, _freeze(column))), ("F", build_fourier(d)), *others)
    return MubFamily(dimension=int(d), bases=bases, recipe=recipe)


def _power_spectra(rotation: CirculantMatrix, count: int) -> np.ndarray:
    """Rows s, s**2, ..., s**count, s the spectrum of rotation, as one
    cumulative product: the one place any power of R is formed."""
    spectrum = diagonalize_circulant(rotation)
    return np.cumprod(np.broadcast_to(spectrum, (count, spectrum.size)), axis=0)


def _member_terms(spectra: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per circulant, one row each: its spectrum s, u = |s|**2 - 1, g = ifft(u)
    (the first column of C* C - I) and w = max |u|, one batch for all rows."""
    excess = np.abs(spectra) ** 2 - 1.0
    return spectra, excess, np.fft.ifft(excess, axis=-1), np.abs(excess).max(axis=-1)


def _circulant_rows(terms: tuple[np.ndarray, ...]):
    """For each row r of _member_terms in turn, is_unitary_hadamard's
    deviation of A* B, A of row r, against every later row B.  A* B is the
    circulant of spectrum conj(s_a) s_b: its entry moduli are read off its
    first column, and its Gram - I has first column g_a + g_b + ifft(u_a u_b),
    whose last term is at most w_a w_b entrywise.  So the Gram value is
    max |g_a + g_b| + w_a w_b, an upper bound, unless w_a w_b exceeds
    _CROSS_TERM_LIMIT (a skewed member, never a built family), where
    ifft(u_a u_b) is transformed.  A generator, so a row's work arrays live
    until the next row's exist; freed at each return, they went back to the
    OS and faulted in again, a third slower at d = 251."""
    spectra, excess, grams, bounds = terms
    for r in range(len(spectra)):
        later = slice(r + 1, None)
        columns = np.fft.ifft(np.conj(spectra[r]) * spectra[later], axis=-1)
        gram, cross = grams[r] + grams[later], bounds[r] * bounds[later]
        skewed = cross > _CROSS_TERM_LIMIT
        if skewed.any():
            gram[skewed] += np.fft.ifft(excess[r] * excess[later][skewed], axis=-1)
            cross[skewed] = 0.0
        yield np.maximum(np.abs(gram).max(axis=-1) + cross, _modulus_deviation(np.abs(columns)))


def verify_family(family: MubFamily, tol: float | None = None) -> UnbiasednessReport:
    """Measure unbiasedness of every pair of bases in the family.

    The report's pairs hold the (label_a, label_b) of every unordered pair in
    family order, (I, F), (I, R), ..., and its read-only float64 deviations
    one deviation per pair; it passed when every deviation is within tol.

    Each deviation is is_unitary_hadamard's on A* B: the worse of max |Gram -
    I| and max ||entry| - d**-0.5|.  Two circulants: _circulant_rows.  The F of
    build_fourier (a FourierMatrix, never a member picked by its label) and a
    circulant C of spectrum s: F* C = diag(s) F* and C* F = F diag(conj(s))
    have entry moduli |s| d**-0.5, whose defect is measured once per C, and
    Grams C* C and diag(|s|**2), of defects max |g| and w; each pair is the
    worst of those two defects and F's own, measured once.  Such a record
    measures C's spectrum, not the floating-point product F* C; the
    fourier-diagonalizes-shift identity ties F to the DFT.  Any other pair
    with a dense member: is_unitary_hadamard on the dense product.  Pairs
    against the identity therefore re-check that each other member is itself
    unitary Hadamard (I|F is F's own defect).
    """
    d = family.dimension
    tol = _tolerance(d, tol)
    members = [basis for _, basis in family.bases]
    n = len(members)
    circulant = np.array([isinstance(b, CirculantMatrix) for b in members], dtype=bool)
    fourier = np.array([isinstance(b, FourierMatrix) for b in members], dtype=bool)
    index = np.flatnonzero(circulant)
    spectra = np.array([diagonalize_circulant(members[i]) for i in index], dtype=np.complex128).reshape(len(index), d)
    terms = _member_terms(spectra)
    _, _, grams, bounds = terms
    table = np.zeros((n, n))  # pair (i, j), i < j, in the upper triangle
    for r, row in enumerate(_circulant_rows(terms)):
        table[index[r], index[r + 1 :]] = row
    moduli = _modulus_deviation(np.abs(spectra / math.sqrt(d)))
    gram = np.maximum(np.abs(grams).max(axis=-1), moduli)  # F|C: Gram C* C
    diagonal = np.maximum(bounds, moduli)  # C|F: Gram diag(|s|**2)
    for f in np.flatnonzero(fourier):
        own = is_unitary_hadamard(members[f], tol).deviation
        # both orders are filled; the upper triangle keeps the one in family order
        table[f, index], table[index, f] = np.maximum(own, gram), np.maximum(own, diagonal)
    # the pairs the two blocks filled; every other pair is dense
    spectral = np.outer(circulant, circulant | fourier) | np.outer(fourier, circulant)
    for i, a in enumerate(members):
        dense = [j for j in range(i + 1, n) if not spectral[i, j]]
        if dense:
            a_adj = adjoint(a)  # once per row, and never for a row the spectra cover
            for j in dense:
                table[i, j] = is_unitary_hadamard(multiply(a_adj, members[j]), tol).deviation
    labels = [label for label, _ in family.bases]
    pairs = tuple((label_a, label_b) for i, label_a in enumerate(labels) for label_b in labels[i + 1 :])
    values = table[np.triu_indices(n, 1)]
    values.setflags(write=False)
    return UnbiasednessReport(pairs=pairs, deviations=values, passed=bool((values <= tol).all()))


def negative_check_even(d: int, tol: float | None = None) -> CheckResult:
    """Expected failure: R**2 is unitary but not Hadamard, so even families
    stop at three.  The deviation is is_unitary_hadamard's of R**2, from its
    spectrum s**2: the Gram defect max |g| (_member_terms) and the modulus
    defect of ifft(s**2); passed when only the Gram defect is within tol."""
    _check_dimension(d, 4, "even", "rotation-square probe dimension")
    tol = _tolerance(d, tol)
    square = _power_spectra(build_rotation(d), 2)[1:]
    gram = float(np.abs(_member_terms(square)[2]).max())
    modulus = float(_modulus_deviation(np.abs(np.fft.ifft(square[0]))))
    return CheckResult(gram <= tol < modulus, max(gram, modulus))


def _identity_rows(d: int):
    """(check, case, lhs, rhs) of each identity, in report order; yielded, so
    only one row's matrices are alive at a time."""
    omega = complex(root_table(d)[2 % (2 * d)])
    fourier = build_fourier(d)
    fourier_adj = adjoint(fourier)
    clock = build_clock(d).to_dense()
    shift = build_shift(d).to_dense()
    yield "clock-shift-commutation", {}, shift @ clock, omega * (clock @ shift)
    yield "fourier-diagonalizes-shift", {}, multiply(multiply(fourier_adj, shift), fourier).entries, clock
    f2 = multiply(fourier, fourier).entries
    yield "fourier-square-is-reversal", {}, f2, build_index_reversal(d).entries
    yield "fourier-order-four", {}, f2 @ f2, np.eye(d)
    if d % 2 and is_prime(d):
        alpha = rotation_scalar(d)
        rotation = build_rotation(d).to_dense()
        diag = build_triangular_diagonal(d)
        # scale the read-only product: numpy scales a large writable temporary
        # in place, which rounds differently
        yield "rotation-diagonalization", {}, rotation, alpha * multiply(multiply(fourier, diag), fourier_adj).entries
        yield "rotation-clock-conjugation", {}, rotation @ clock @ rotation.conj().T, shift @ clock
        # one chain of dense powers: R**(d-1) and R**d from R**(d-2); V**-k = (V**k)*
        # is exact, V being a permutation, and R**-k is read as (R**k)*
        shift_2, r_d2 = shift @ shift, power(rotation, d - 2).entries
        r_d1 = r_d2 @ rotation
        yield "rotation-order", {}, r_d1 @ rotation, alpha**d * np.eye(d)
        for k in sorted({1, 2, d - 2, d - 1}):
            if k <= 2:  # tested first, so d = 3 takes R and R**2 themselves
                r_k, shift_k = (rotation, shift) if k == 1 else (rotation @ rotation, shift_2)
            else:
                r_k, shift_k = (r_d1, shift.conj().T) if k == d - 1 else (r_d2, shift_2.conj().T)
            yield "rotation-power-clock", {"k": k}, r_k @ clock @ r_k.conj().T, shift_k @ clock
            rhs = alpha**k * (fourier_adj.entries @ r_k.conj().T @ f2)
            yield "phased-fourier-identity", {"k": k}, build_phased_fourier(d, k).entries, rhs


def structural_identities(d: int) -> list[tuple[str, dict, float]]:
    """(check, case, deviation) for each matrix identity the construction
    rests on, the deviation of every row being max |lhs - rhs|, computed in
    this one place: with clock U, shift V and omega = exp(2*i*pi/d), V U =
    omega U V, F* V F = U, F**2 = the index reversal and F**4 = I; for odd
    prime d also, with alpha = rotation_scalar(d) and D the triangular
    diagonal, R = alpha F D F*, R U R* = V U, R**d = alpha**d I and, for k in
    {1, 2, d-2, d-1}, R**k U R**-k = V**k U and build_phased_fourier(d, k) =
    alpha**k F* R**-k F**2.
    """
    return [(check, {"d": d, **case}, float(np.abs(lhs - rhs).max())) for check, case, lhs, rhs in _identity_rows(d)]


def coprime_power_mismatches(d: int, tol: float) -> list[int]:
    """The k in 1..d-1 at which "R**k is unitary Hadamard within tol"
    disagrees with gcd(k, d) = 1, which the paper's rule leaves empty for
    odd d.  R**k is unitary Hadamard exactly when the pair I|R**k is
    unbiased, so the deviations are _circulant_rows' row of I (spectrum all
    ones) against the rows of _power_spectra, never dense: the spectra
    build_family's members are transformed from, so it measures the built
    R, not exact exponents."""
    _check_tolerance(tol)
    powers = _power_spectra(build_rotation(d), d - 1)  # the builder guards d first
    deviations = next(_circulant_rows(_member_terms(np.vstack([np.ones(d), powers]))))
    return [k for k, dev in zip(range(1, d), deviations.tolist()) if (dev <= tol) != (math.gcd(k, d) == 1)]
