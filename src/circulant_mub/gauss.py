"""Quadratic Gauss sums and the modulus identities behind the constructions.

The central object is

    S(a, b, d) = sum_{j=0}^{d-1} exp((i*pi/d) * (a*j**2 + b*j)),

evaluated exactly on the 2d-th roots of unity.  Landsberg-Schaar style
reciprocity trades S(a, b, d) for a sum of length a,

    S(a, b, d) = sqrt(d/|a|) * exp((i*pi/4) * (sgn(a*d) - b**2/(a*d)))
                 * S(-d, -b, a),

valid for a*d != 0 and a*d + b even.  The verify_* helpers measure how far
the relevant absolute values are from sqrt(d); for coprime parameters they
must vanish up to rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import build_triangular_diagonal
from .phase_ring import _check_dimension, root_table, triangular_phase

_DIRECT_CUTOFF = 64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def smallest_nontrivial_divisor(n: int) -> int:
    """Least divisor of n that exceeds 1 (n itself when n is prime)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


@dataclass(frozen=True)
class GaussSumSpec:
    """Parameters of S(a, b, d); the modulus d must be positive."""

    a: int
    b: int
    d: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "d"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.d < 1:
            raise ValueError(f"modulus d must be >= 1, got {self.d}")


def _direct(a: int, b: int, d: int) -> complex:
    # each factor is reduced mod 2d before the next product (the phase_ring
    # order), so no int64 intermediate reaches 6*d**2
    m = 2 * d
    j = np.arange(d, dtype=np.int64)
    t = ((a % m) * (j * j % m) + (b % m) * j) % m
    return complex(root_table(d)[t].sum())


def gauss_sum_direct(spec: GaussSumSpec) -> complex:
    """Sum the d phases exp((i*pi/d)(a*j**2 + b*j)) term by term."""
    return _direct(spec.a, spec.b, spec.d)


def _quarter_phase(a: int, b: int, d: int) -> complex:
    # exp((i*pi/4)(sgn(a*d) - b**2/(a*d))): the exponent (|a*d| - b**2) / (4*a*d)
    # is reduced mod 2 as an integer numerator mod 8*a*d before any float rounding.
    frac = (abs(a * d) - b * b) % (8 * a * d) / (4 * a * d)
    return cmath.exp(1j * math.pi * frac)


def _geometric(a: int, b: int, d: int) -> complex:
    # S(a, b, d) for a in {0, d} mod 2d: the quadratic part degenerates,
    # exp(i*pi*d*j**2/d) = (-1)**j, leaving a geometric sum.
    b_eff = (b + (d if a else 0)) % (2 * d)
    if b_eff == 0:
        return complex(d)
    if b_eff % 2 == 0:
        return 0j  # ratio is a nontrivial d-th root of unity
    r = cmath.exp(1j * math.pi * b_eff / d)
    return -2.0 / (r - 1)  # r**d = -1 for odd b_eff


def _reciprocity_chain(a: int, b: int, d: int) -> complex:
    factor = 1 + 0j
    conj_pending = False
    while True:
        a %= 2 * d
        b %= 2 * d
        if d <= _DIRECT_CUTOFF:
            value = _direct(a, b, d)
            break
        if a == 0 or a == d:
            value = _geometric(a, b, d)
            break
        if a > d:
            # S(a, b, d) = conj(S(2d - a, -b, d)): reflect into 0 < a < d
            a, b = 2 * d - a, (-b) % (2 * d)
            conj_pending = not conj_pending
            continue
        step = math.sqrt(d / a) * _quarter_phase(a, b, d)
        factor *= step.conjugate() if conj_pending else step
        a, b, d = (-d) % (2 * a), (-b) % (2 * a), a
    if conj_pending:
        value = value.conjugate()
    return factor * value


def gauss_sum_reciprocity(spec: GaussSumSpec, recursive: bool = False) -> complex:
    """Evaluate S(a, b, d) through reciprocity.

    One step by default: the identity converts the length-d sum into a
    length-|a| sum, which is evaluated directly.  With recursive=True the
    step is iterated with coefficient reduction mod 2d, Euclid style, which
    stays fast for large d; small tails are summed directly.

    Requires a != 0 and a*d + b even; violations raise ValueError.
    """
    a, b, d = spec.a, spec.b, spec.d
    if a == 0:
        raise ValueError("reciprocity needs a != 0")
    if (a * d + b) % 2:
        raise ValueError(f"reciprocity needs a*d + b even, got a={a} b={b} d={d}")
    if a < 0:
        return gauss_sum_reciprocity(
            GaussSumSpec(-a, -b, d), recursive=recursive
        ).conjugate()
    if recursive:
        return _reciprocity_chain(a, b, d)
    factor = math.sqrt(d / a) * _quarter_phase(a, b, d)
    return factor * _direct(-d, -b, a)


# ---------------------------------------------------------------------------
# modulus identities


def _check_odd_coprime(d: int, l: int, name: str = "l") -> None:
    _check_dimension(d)
    if d % 2 == 0 or d < 3:
        raise ValueError(f"need an odd dimension >= 3, got {d}")
    if math.gcd(l, d) != 1:
        raise ValueError(f"{name}={l} must be coprime with d={d}")


def _shift_sums(d: int, l: int) -> np.ndarray:
    """sum_k exp((2*i*pi/d)(l*k*(k+1)/2 + j*k)) for every shift j = 0 .. d-1."""
    k = np.arange(d, dtype=np.int64)
    t = triangular_phase(k, l, d)[None, :] + 2 * np.outer(k, k)
    return root_table(d)[t % (2 * d)].sum(axis=1)


def gauss_identity_sweep(d: int, l: int) -> np.ndarray:
    """Deviations | |sum_k exp((2*i*pi/d)(l*k*(k+1)/2 + j*k))| - sqrt(d) |
    for every j = 0 .. d-1 at once.  Requires odd d and gcd(l, d) = 1."""
    _check_odd_coprime(d, l)
    return np.abs(np.abs(_shift_sums(d, l)) - math.sqrt(d))


def verify_triangular_trace(d: int, k: int) -> float:
    """| |trace(D**k)| - sqrt(d) | for the triangular diagonal D, odd d,
    gcd(k, d) = 1."""
    _check_odd_coprime(d, k, name="k")
    diag = build_triangular_diagonal(d).power(k)
    return float(abs(abs(diag.values().sum()) - math.sqrt(d)))


def verify_even_gauss(d: int) -> float:
    """| |S(1, 0, d)| - sqrt(d) | for even d."""
    _check_dimension(d)
    if d % 2:
        raise ValueError(f"even-dimension identity needs even d, got {d}")
    return float(abs(abs(_direct(1, 0, d)) - math.sqrt(d)))


def verify_rotation_power_sums(d: int, k: int, m: int) -> tuple[float, float]:
    """The two reciprocity-linked moduli behind rotation powers, for odd
    prime d and 1 <= k <= d-1:

        | |S(k, k + 2m, d)| - sqrt(d) |   and   | |S(-d, -(k + 2m), k)| - sqrt(k) |

    returned as a pair of deviations.
    """
    if not is_prime(d) or d % 2 == 0:
        raise ValueError(f"need an odd prime dimension, got {d}")
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got k={k}")
    if abs(m) > d - 1:
        raise ValueError(f"need |m| <= d-1, got m={m}")
    b = k + 2 * m
    dev_d = abs(abs(_direct(k, b, d)) - math.sqrt(d))
    dev_k = abs(abs(_direct(-d, -b, k)) - math.sqrt(k))
    return float(dev_d), float(dev_k)
