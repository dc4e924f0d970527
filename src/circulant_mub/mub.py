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

The verifier never trusts the construction: it rebuilds every pairwise
product densely and measures worst-case deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gauss import is_prime, smallest_nontrivial_divisor
from .linalg import (
    CheckResult,
    DenseUnitary,
    _freeze,
    adjoint,
    build_fourier,
    build_rotation,
    circulant_deviation,
    circulant_multiply,
    default_tolerance,
    is_unitary,
    is_unitary_hadamard,
    multiply,
)
from .phase_ring import root_table


class Recipe(str, Enum):
    PRIME = "Prime"
    D_TWO = "DTwo"
    ODD_COMPOSITE = "OddComposite"
    EVEN = "Even"


@dataclass(frozen=True, eq=False)
class MubFamily:
    dimension: int
    bases: tuple[tuple[str, DenseUnitary], ...]
    recipe: Recipe

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.bases)


@dataclass(frozen=True)
class PairCheck:
    label_a: str
    label_b: str
    deviation: float
    passed: bool


@dataclass(frozen=True)
class UnbiasednessReport:
    dimension: int
    tolerance: float
    pairs: tuple[PairCheck, ...]
    passed: bool

    @property
    def worst(self) -> float:
        return max(p.deviation for p in self.pairs)


def _identity(d: int) -> DenseUnitary:
    return DenseUnitary(d, _freeze(np.eye(d)))


def _d_two_bases() -> list[tuple[str, DenseUnitary]]:
    one, i = root_table(2)[:2]
    y = np.array([[one, i], [i, one]]) / math.sqrt(2)
    return [
        ("I", _identity(2)),
        ("F", build_fourier(2)),
        ("Y", DenseUnitary(2, _freeze(y))),
    ]


def build_family(d: int, tol: float | None = None) -> MubFamily:
    """Construct the mutually unbiased family for dimension d.

    Every member is checked unitary at construction; the cross-basis
    unbiasedness statements are left to verify_family.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"mutually unbiased families need dimension >= 2, got {d}")
    if tol is None:
        tol = default_tolerance(d)
    if d == 2:
        bases = _d_two_bases()
        recipe = Recipe.D_TWO
    elif d % 2 == 0:
        rotation = build_rotation(d)
        bases = [
            ("I", _identity(d)),
            ("F", build_fourier(d)),
            ("R", DenseUnitary(d, _freeze(rotation.to_dense()))),
        ]
        recipe = Recipe.EVEN
    else:
        count = d - 1 if is_prime(d) else smallest_nontrivial_divisor(d) - 1
        recipe = Recipe.PRIME if is_prime(d) else Recipe.ODD_COMPOSITE
        rotation = build_rotation(d)
        bases = [("I", _identity(d)), ("F", build_fourier(d))]
        current = rotation
        for k in range(1, count + 1):
            label = "R" if k == 1 else f"R^{k}"
            bases.append((label, DenseUnitary(d, _freeze(current.to_dense()))))
            if k < count:
                current = circulant_multiply(current, rotation)
    for label, basis in bases:
        check = is_unitary(basis, tol)
        if not check.passed:
            raise RuntimeError(
                f"basis {label} failed the unitarity check at construction "
                f"(deviation {check.deviation:.3e}, tol {tol:.3e})"
            )
    return MubFamily(dimension=int(d), bases=tuple(bases), recipe=recipe)


def verify_family(family: MubFamily, tol: float | None = None) -> UnbiasednessReport:
    """Measure unbiasedness of every pair of bases in the family.

    For each unordered pair the dense product A* B is formed and checked to
    be a unitary Hadamard matrix; pairs against the identity therefore
    re-check that each non-identity member is itself unitary Hadamard.
    """
    d = family.dimension
    if tol is None:
        tol = default_tolerance(d)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    pairs = []
    for i in range(len(family.bases)):
        label_a, a = family.bases[i]
        a_adj = adjoint(a)
        for label_b, b in family.bases[i + 1 :]:
            product = multiply(a_adj, b)
            check = is_unitary_hadamard(product, tol)
            pairs.append(PairCheck(label_a, label_b, check.deviation, check.passed))
    return UnbiasednessReport(
        dimension=d,
        tolerance=tol,
        pairs=tuple(pairs),
        passed=all(p.passed for p in pairs),
    )


@dataclass(frozen=True)
class EvenSquareCheck:
    """Expected-failure probe: in even dimensions the rotation square stays
    unitary and circulant yet is not a Hadamard matrix, which is exactly
    why the even family stops at three bases."""

    dimension: int
    tolerance: float
    unitary: CheckResult
    circulant_dev: float
    hadamard: CheckResult
    modulus_min: float
    modulus_max: float

    @property
    def passed(self) -> bool:
        return (
            self.unitary.passed
            and self.circulant_dev <= self.tolerance
            and not self.hadamard.passed
        )


def negative_check_even(d: int, tol: float | None = None) -> EvenSquareCheck:
    """Square the even-dimension rotation densely and document the defect."""
    if d < 4 or d % 2:
        raise ValueError(f"the rotation-square probe needs even d >= 4, got {d}")
    if tol is None:
        tol = default_tolerance(d)
    dense = build_rotation(d).to_dense()
    square = dense @ dense
    moduli = np.abs(square)
    return EvenSquareCheck(
        dimension=d,
        tolerance=tol,
        unitary=is_unitary(square, tol),
        circulant_dev=circulant_deviation(square),
        hadamard=is_unitary_hadamard(square, tol),
        modulus_min=float(moduli.min()),
        modulus_max=float(moduli.max()),
    )
