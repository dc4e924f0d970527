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
s_b, so its entry moduli are read off its first column in O(d log d).  Its
Gram - I has first column g_a + g_b + ifft(u_a u_b), with u = |s|**2 - 1 and
g = ifft(u) transformed once per member; the last term is bounded entrywise
by w_a w_b, w = max |u|, which is added instead (below 5.6e-24 for a built
family), unless it exceeds 1e-18, when that term is transformed too.  F
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


# the largest w_a w_b that verify_family adds to a circulant pair's Gram value as
# a bound on its cross term; a built family's pairs stay below 5.6e-24 for
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
    circulants: one row of pairs at a time.  The entry moduli are read off the
    first column ifft(conj(s_a) s_b) of A* B.  Its Gram is the circulant of
    spectrum |s_a|**2 |s_b|**2, so with u = |s|**2 - 1 and g = ifft(u) per
    member (one batch per family) the first column of Gram - I is g_a + g_b +
    ifft(u_a u_b).  Each entry of that last term is at most w_a w_b, w =
    max |u|, so the Gram value is max |g_a + g_b| + w_a w_b, an upper bound;
    where w_a w_b exceeds _CROSS_TERM_LIMIT (a skewed member, never a built
    family) ifft(u_a u_b) is transformed instead.  The F of build_fourier (a
    FourierMatrix, never a member picked by its label) and a circulant C of
    spectrum s: F* C = diag(s) F* and C* F = F diag(conj(s)) both have entry
    moduli |s| d**-0.5, and Grams C* C and diag(|s|**2), so the pair is read
    from s, g and w and maxed with F's own is_unitary_hadamard defect,
    measured once.  Such a record measures C's spectrum plus F's own defect,
    not the floating-point product F* C; the fourier-diagonalizes-shift
    identity is what ties F to the DFT.  Any other pair with a dense member:
    is_unitary_hadamard on the dense product.  Pairs against the identity
    therefore re-check that each other member is itself unitary Hadamard (I|F
    is F's own defect).
    """
    d = family.dimension
    tol = _tolerance(d, tol)
    root_d = math.sqrt(d)
    members = [basis for _, basis in family.bases]
    n = len(members)
    # row of each circulant member in the spectral arrays
    row = {i: r for r, i in enumerate(i for i, b in enumerate(members) if isinstance(b, CirculantMatrix))}
    spectra = np.array([diagonalize_circulant(members[i]) for i in row], dtype=np.complex128).reshape(len(row), d)
    excess = np.abs(spectra) ** 2 - 1.0  # u
    grams = np.fft.ifft(excess, axis=-1)  # g, the first column of C* C - I
    bounds = np.abs(excess).max(axis=-1)  # w
    own = [is_unitary_hadamard(b, tol).deviation if isinstance(b, FourierMatrix) else None for b in members]
    table = np.zeros((n, n))  # pair (i, j), i < j, in the upper triangle
    for i, a in enumerate(members):
        later = range(i + 1, n)
        circulants = [j for j in later if j in row] if i in row or own[i] is not None else []
        others = slice(len(row) - len(circulants), None)  # their spectral rows, the last ones
        if circulants and i in row:
            # A* B is the circulant of spectrum conj(s_a) s_b: the whole row at once
            r = row[i]
            columns = np.fft.ifft(np.conj(spectra[r]) * spectra[others], axis=-1)
            gram, cross = grams[r] + grams[others], bounds[r] * bounds[others]
            skewed = cross > _CROSS_TERM_LIMIT
            if skewed.any():
                gram[skewed] += np.fft.ifft(excess[r] * excess[others][skewed], axis=-1)
                cross[skewed] = 0.0
            table[i, circulants] = np.maximum(np.abs(gram).max(axis=-1) + cross, _modulus_deviation(np.abs(columns)))
        elif circulants:
            # F* C = diag(s) F*: entry moduli |s| d**-0.5, Gram C* C of spectrum |s|**2
            gram = np.abs(grams[others]).max(axis=-1)
            moduli = np.abs(spectra[others] / root_d)
            table[i, circulants] = np.maximum(own[i], np.maximum(gram, _modulus_deviation(moduli)))
        fourier = [j for j in later if own[j] is not None] if i in row else []
        if fourier:
            # C* F = F diag(conj(s)): entry moduli |s| d**-0.5, Gram diag(|s|**2)
            defect = max(bounds[row[i]], float(np.abs(np.abs(spectra[row[i]]) - 1.0).max()) / root_d)
            table[i, fourier] = np.maximum([own[j] for j in fourier], defect)
        spectral = {*circulants, *fourier}
        dense = [j for j in later if j not in spectral]
        if dense:
            a_adj = adjoint(a)  # once per row, and never for a row the spectra cover
            for j in dense:
                table[i, j] = is_unitary_hadamard(multiply(a_adj, members[j]), tol).deviation
    labels = [label for label, _ in family.bases]
    pairs = tuple((label_a, label_b) for i, label_a in enumerate(labels) for label_b in labels[i + 1 :])
    values = table[np.triu_indices(n, 1)]
    values.setflags(write=False)
    return UnbiasednessReport(pairs=pairs, deviations=values, passed=bool((values <= tol).all()))


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
    # is_unitary_hadamard's deviation, from the one Gram product is_unitary made
    hadamard_dev = max(unitary.deviation, float(_modulus_deviation(moduli).max()))
    hadamard = CheckResult(hadamard_dev <= tol, hadamard_dev)
    return EvenSquareCheck(
        passed=unitary.passed and circulant_dev <= tol and not hadamard.passed,
        unitary=unitary,
        circulant_dev=circulant_dev,
        hadamard=hadamard,
        modulus_min=float(moduli.min()),
        modulus_max=float(moduli.max()),
    )


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
    odd d.  R**k is the circulant of spectrum s**k, s the spectrum of R, so
    every power is measured from one batch of spectra, never densely.  Row
    k - 1 is the cumulative product s * ... * s of the built spectrum, so it
    measures the built R, not exact exponents."""
    _check_tolerance(tol)
    spectrum = diagonalize_circulant(build_rotation(d))  # the builder guards d first
    spectra = np.cumprod(np.broadcast_to(spectrum, (d - 1, d)), axis=0)
    deviations = _circulant_hadamard_deviation(np.fft.ifft(spectra, axis=-1), spectra)
    return [k for k, dev in zip(range(1, d), deviations.tolist()) if (dev <= tol) != (math.gcd(k, d) == 1)]
