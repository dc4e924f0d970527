"""Quadratic Gauss sums and the modulus identities behind the constructions.

The central object is

    S(a, b, d) = sum_{j=0}^{d-1} exp((i*pi/d) * (a*j**2 + b*j)),

evaluated exactly on the 2d-th roots of unity.  Landsberg-Schaar
reciprocity trades S(a, b, d), a > 0, for a sum of length a,

    S(a, b, d) = sqrt(d/a) * exp((i*pi/4) * (sgn(a*d) - b**2/(a*d)))
                 * S(-d, -b, a),

valid for a*d + b even.  gauss_sum_reciprocity takes this one step (for
a < 0, S(a, b, d) = conj(S(-a, -b, d))).  gauss_identity_sweep and
verify_even_gauss measure how far the moduli are from sqrt(d); for coprime
parameters they must vanish up to rounding, as must the batched
reciprocity_deviations, triangular_trace_deviations and power_sum_deviations.
shift_sums gives the sums behind the sweep at any multiplier.

_direct is the one row kernel: one sum per entry of the broadcast of a and
b, ints or int64 arrays (a 0-d row for two ints, which the scalar sums read
with complex()), gathered from the root table of d a block of _BLOCK
exponents at a time so that memory stays bounded.  _quarter_phase and
_one_step take b the same way.  Scalar parameters enter as Python ints
(GaussSumSpec stores int(a), int(b), int(d); _quarter_phase takes int(a),
int(d)), so no guard is computed in a numpy integer that can wrap.  The
arithmetic is exact: an int is reduced (mod 2d, mod 4ad for the quarter
phase) before it becomes an array, and int64 products are of residues.
reciprocity_deviations reduces each b mod 4ad as a Python int, which fixes
b mod 2d, b mod 2a and b**2 mod 8ad, since (b + 4ad)**2 = b**2 + 8ad*(b + 2ad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_ring import _check_dimension, _check_integers, root_table

_BLOCK = 1 << 16  # exponents gathered at once by a batched _direct


def smallest_nontrivial_divisor(n: int) -> int:
    """Least divisor of n that exceeds 1 (n itself when n is prime), by trial
    division over 2, 3 and the 6k +- 1 wheel."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    for f in (2, 3):
        if n % f == 0:
            return f
    f = 5
    while f * f <= n:
        if n % f == 0:
            return f
        if n % (f + 2) == 0:
            return f + 2
        f += 6
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_nontrivial_divisor(n) == n


@dataclass(frozen=True)
class GaussSumSpec:
    """Parameters of S(a, b, d); the modulus d must lie in 1..MAX_MODULUS."""

    a: int
    b: int
    d: int

    def __post_init__(self) -> None:
        _check_integers("coefficient a or b", self.a, self.b)
        _check_dimension(self.d, what="modulus d")
        for name in ("a", "b", "d"):  # a numpy integer would wrap in the reciprocity step
            object.__setattr__(self, name, int(getattr(self, name)))


def _direct(a, b, d: int):
    """One S(a, b, d) per entry of the broadcast of a and b (ints or int64
    arrays), with the shape of that broadcast: 0-d for an int a and b."""
    # each factor is reduced mod 2d before the next product (the phase_ring
    # order), so no int64 intermediate reaches 6*d**2
    _check_dimension(d)
    m = 2 * int(d)
    j = np.arange(d, dtype=np.int64)
    squares = j * j % m
    a, b = np.asarray(a % m), np.asarray(b % m)  # an int of any size enters as an int64 residue
    a_rows = a + 0 * b  # the broadcast of a and b, cheaper than broadcast_arrays
    b_flat = (b + 0 * a).reshape(-1, 1)
    a_flat = a_rows.reshape(-1, 1)
    sums = np.empty(a_flat.shape[0], dtype=np.complex128)
    step = max(1, _BLOCK // d)
    for lo in range(0, sums.size, step):
        t = a_flat[lo : lo + step] * squares
        t += b_flat[lo : lo + step] * j
        t %= m
        sums[lo : lo + step] = root_table(d)[t].sum(axis=-1)
    return sums.reshape(a_rows.shape)


def gauss_sum_direct(spec: GaussSumSpec) -> complex:
    """Sum the d phases exp((i*pi/d)(a*j**2 + b*j)) term by term."""
    return complex(_direct(spec.a, spec.b, spec.d))


def _quarter_phase(a: int, b, d: int):
    """exp((i*pi/4)(sgn(a*d) - b**2/(a*d))) for each entry of b, an int or an
    int64 array."""
    # the exponent (|a*d| - b**2) / n, n = 4*a*d, is reduced mod 2 as an
    # integer numerator mod 2n before any float rounding; b enters reduced
    # mod n, which keeps b**2 mod 2n, and as Python ints where the square of
    # a residue would not fit in int64
    a, d = int(a), int(d)
    n = 4 * a * d
    if n * n >= 2**63:
        b = np.asarray(b, dtype=object)
    frac = (abs(a * d) - (b % n) ** 2) % (2 * n) / n
    return np.exp(1j * np.pi * np.asarray(frac, dtype=np.float64))


def _one_step(a: int, b, d: int):
    """S(a, b, d) for a > 0 through one reciprocity step, as a length-a sum;
    b is an int or an int64 array, as for _direct."""
    return math.sqrt(d / a) * _quarter_phase(a, b, d) * _direct(-d, -b, a)


def gauss_sum_reciprocity(spec: GaussSumSpec) -> complex:
    """Evaluate S(a, b, d) through one reciprocity step: the identity
    converts the length-d sum into a length-|a| sum, which is evaluated
    directly.

    Requires a != 0 and a*d + b even; violations raise ValueError.
    """
    a, b, d = spec.a, spec.b, spec.d
    if a == 0:
        raise ValueError("reciprocity needs a != 0")
    if (a * d + b) % 2:
        raise ValueError(f"reciprocity needs a*d + b even, got a={a} b={b} d={d}")
    if a < 0:
        return complex(_one_step(-a, -b, d)).conjugate()
    return complex(_one_step(a, b, d))


def reciprocity_deviations(a: int, bs: range, d: int) -> np.ndarray:
    """|S(a, b, d) - one reciprocity step| for each b of the step-1 range bs
    with a*d + b even, the only b the identity covers: the length-d sum
    against the length-a sum it is traded for.  a and d must lie in
    1..MAX_MODULUS."""
    _check_dimension(a, what="leading coefficient a")
    _check_dimension(d, what="modulus d")
    if bs.step != 1:
        raise ValueError(f"bs must be a range of step 1, got step {bs.step}")
    n = 4 * a * d
    first = bs.start + (a * d + bs.start) % 2  # the least b with a*d + b even
    b = (first % n + np.arange(0, bs.stop - first, 2, dtype=np.int64)) % n
    return np.abs(_direct(a, b, d) - _one_step(a, b, d))


# ---------------------------------------------------------------------------
# modulus identities


def shift_sums(d: int, l: int) -> np.ndarray:
    """sum_k exp((2*i*pi/d)(l*k*(k+1)/2 + j*k)) = S(l, l + 2j, d) for every
    shift j = 0 .. d-1."""
    _check_dimension(d)
    _check_integers("multiplier l", l)
    a = l % (2 * d)
    return _direct(a, (a + 2 * np.arange(d, dtype=np.int64)) % (2 * d), d)


def gauss_identity_sweep(d: int, l: int) -> np.ndarray:
    """Deviations | |sum_k exp((2*i*pi/d)(l*k*(k+1)/2 + j*k))| - sqrt(d) |
    for every j = 0 .. d-1 at once.  Requires odd d and gcd(l, d) = 1."""
    _check_dimension(d, 3, "odd", "Gauss identity modulus")
    _check_integers("multiplier l", l)
    if math.gcd(l, d) != 1:
        raise ValueError(f"l={l} must be coprime with d={d}")
    return np.abs(np.abs(shift_sums(d, l)) - math.sqrt(d))


def triangular_trace_deviations(d: int, ks) -> np.ndarray:
    """| |tr(D**k)| - sqrt(d) | for the triangular diagonal
    D = diag(exp(i*pi*j*(j+1)/d)) and each int k in ks, as one batch of the
    sums tr(D**k) = S(k, k, d); a k beyond int64 enters reduced mod 2d.
    d must be odd, as for build_triangular_diagonal."""
    _check_dimension(d, 1, "odd", "triangular diagonal dimension")
    _check_integers("power k", *ks)
    powers = np.array([k % (2 * d) for k in ks], dtype=np.int64)
    return np.abs(np.abs(_direct(powers, powers, d)) - math.sqrt(d))


def verify_even_gauss(d: int) -> float:
    """| |S(1, 0, d)| - sqrt(d) | for even d."""
    _check_dimension(d, 2, "even", "even Gauss sum modulus")
    return abs(abs(complex(_direct(1, 0, d))) - math.sqrt(d))  # Python's abs: numpy's rounds otherwise


def power_sum_deviations(d: int, ks: list[int], ms: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The two reciprocity-linked moduli behind rotation powers, for odd
    prime d, 1 <= k <= d-1 and |m| <= d-1,

        | |S(k, k + 2m, d)| - sqrt(d) |   and   | |S(-d, -(k + 2m), k)| - sqrt(k) |

    as (k, m) arrays: the length-d sums in one batch, the length-k sums in
    one batch per k."""
    _check_dimension(d, 3, "odd", "power sum modulus")  # before the trial division of is_prime
    if not is_prime(d):
        raise ValueError(f"need an odd prime dimension, got {d}")
    _check_integers("each power k and offset m", *ks, *ms)
    for k in ks:
        if not 1 <= k <= d - 1:
            raise ValueError(f"need 1 <= k <= d-1, got k={k}")
    for m in ms:
        if abs(m) > d - 1:
            raise ValueError(f"need |m| <= d-1, got m={m}")
    k_col = np.array(ks, dtype=np.int64)[:, None]
    b = k_col + 2 * np.array(ms, dtype=np.int64)
    dev_d = np.abs(np.abs(_direct(k_col, b, d)) - math.sqrt(d))
    dev_k = np.array([np.abs(np.abs(_direct(-d, -b_row, k)) - math.sqrt(k)) for k, b_row in zip(ks, b)])
    return dev_d, dev_k.reshape(dev_d.shape)  # (0, len(ms)) too when ks is empty
