"""Finite complex sequences, their DFT, and bi-unimodularity.

A sequence c of length d is bi-unimodular when both c and its normalized
DFT have all entries on the unit circle.  Such sequences are exactly the
first columns (times d**0.5) of circulant unitary Hadamard matrices, which
is why they matter here.  The classical examples in odd dimension are the
Gauss sequences g(k)[j] = exp(i*pi*k*j*(j+1)/d).  exhaustive_biunimodular
tests every sequence over the m-th roots, adding two tabled half transforms per
candidate; group_orbits sorts its hits into orbits under shifts and a global
phase, and alphabet_exponents reads an orbit's key back as exponents of the roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _tolerance
from .phase_ring import _check_dimension, root_table, triangular_phase

# the largest length and alphabet order that exhaustive_biunimodular enumerates
MAX_SEARCH_DIMENSION = 6
MAX_SEARCH_ALPHABET = 12


@dataclass(frozen=True, eq=False)
class Sequence:
    dimension: int
    values: np.ndarray


def as_sequence(values) -> Sequence:
    if isinstance(values, Sequence):
        return values
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-d sequence, got shape {arr.shape}")
    arr.setflags(write=False)
    return Sequence(arr.size, arr)


@dataclass(frozen=True, eq=False)
class BiunimodularityReport:
    passed: bool
    time_deviation: float
    freq_deviation: float
    freq_moduli: np.ndarray

    @property
    def deviation(self) -> float:
        return max(self.time_deviation, self.freq_deviation)


def dft_sequence(c) -> Sequence:
    """Normalized DFT with positive exponent:
    hat(c)[l] = d**-0.5 * sum_k c[k] * exp(2*i*pi*k*l/d)."""
    c = as_sequence(c)
    values = np.fft.ifft(c.values) * math.sqrt(c.dimension)
    values.setflags(write=False)
    return Sequence(c.dimension, values)


def autocorrelation(c, j: int) -> complex:
    """sum_k conj(c[k]) * c[(j+k) mod d].  Equals, via Parseval, the sum
    sum_l |hat(c)[l]|**2 * exp(-2*i*pi*j*l/d)."""
    c = as_sequence(c)
    return complex(np.sum(np.conj(c.values) * np.roll(c.values, -j)))


def is_biunimodular(c, tol: float | None = None) -> BiunimodularityReport:
    """Check |c[j]| = 1 and |hat(c)[l]| = 1 for all j, l, within tol."""
    c = as_sequence(c)
    tol = _tolerance(c.dimension, tol)
    freq = dft_sequence(c)
    freq_moduli = np.abs(freq.values)
    freq_moduli.setflags(write=False)
    time_dev = float(np.abs(np.abs(c.values) - 1.0).max())
    freq_dev = float(np.abs(freq_moduli - 1.0).max())
    return BiunimodularityReport(
        passed=(time_dev <= tol and freq_dev <= tol),
        time_deviation=time_dev,
        freq_deviation=freq_dev,
        freq_moduli=freq_moduli,
    )


def gauss_sequence(d: int, k: int) -> Sequence:
    """g(k)[j] = exp(i*pi*k*j*(j+1)/d) for odd d.

    The exponent k*j*(j+1) is even, so g(k) lives on the d-th roots of
    unity; it is bi-unimodular exactly when gcd(k, d) = 1.
    """
    _check_dimension(d, 3, "odd", "Gauss sequence length")
    values = root_table(d)[triangular_phase(np.arange(d, dtype=np.int64), k, d)]
    values.setflags(write=False)
    return Sequence(d, values)


def exhaustive_biunimodular(
    d: int, alphabet_order: int, tol: float | None = None
) -> list[Sequence]:
    """Enumerate all alphabet_order**d sequences over the alphabet of
    alphabet_order-th roots of unity and keep the bi-unimodular ones, in
    the order of their base-alphabet_order exponent digits.

    Brute force by design: this is the ground-truth oracle the structured
    constructions are compared against, so it must not share code with
    them.  A unit multiple w*c has the moduli of c in time and frequency,
    so only the sequences with c[0] = 1 are tested and each hit stands for
    its alphabet_order phase multiples.  The transform is linear: each half
    of the digits (head 0..h, h = (d-1)//2; tail h+1..d-1) has its partial
    transforms tabled once, and a candidate's is a head row plus a tail row,
    tested 2**14 at a time (under 4 MB of temporaries at d = 6).  Capped at
    d <= MAX_SEARCH_DIMENSION, alphabet_order <= MAX_SEARCH_ALPHABET.
    """
    _check_dimension(d)
    if not 1 <= d <= MAX_SEARCH_DIMENSION:
        raise ValueError(f"exhaustive search supports 1 <= d <= {MAX_SEARCH_DIMENSION}, got d={d}")
    if not 1 <= alphabet_order <= MAX_SEARCH_ALPHABET:
        raise ValueError(
            f"exhaustive search supports alphabets up to order {MAX_SEARCH_ALPHABET}, got {alphabet_order}"
        )
    tol = _tolerance(d, tol)
    m = alphabet_order
    alphabet = np.exp(2j * np.pi * np.arange(m) / m)
    # positive-exponent DFT matrix, normalized; moduli of sum_k c[k] * dft[k] are |hat(c)|
    idx = np.arange(d)
    dft = np.exp(2j * np.pi * np.outer(idx, idx) / d) / math.sqrt(d)
    # each table: its digit rows in base-m order (head digit 0 is 0), their partial transforms
    h = (d - 1) // 2
    tables = []
    for first, shape in ((0, (1,) + (m,) * h), (h + 1, (m,) * (d - 1 - h))):
        digits = np.indices(shape).reshape(len(shape), math.prod(shape)).T
        sums = np.zeros((len(digits), d), dtype=np.complex128)
        for i in range(len(shape)):
            sums += alphabet[digits[:, i]][:, None] * dft[first + i]
        tables.append((digits, sums))
    (head_digits, head), (tail_digits, tail) = tables
    rows = (1 << 14) // len(tail)  # head rows per block; a tail has at most 12**3 rows
    accepted = []
    for start in range(0, len(head), rows):
        moduli = np.abs(head[start : start + rows, None, :] + tail[None, :, :])
        u, v = np.nonzero(np.abs(moduli - 1.0).max(axis=-1) <= tol)
        accepted.append(np.hstack((head_digits[start + u], tail_digits[v])))
    digits = (np.concatenate(accepted)[None] + np.arange(m)[:, None, None]) % m
    digits = digits.reshape(-1, d)
    values = alphabet[digits[np.lexsort(digits.T[::-1])]]
    values.setflags(write=False)
    return [Sequence(d, row) for row in values]


def shift_phase_equivalent(a, b) -> bool:
    """True when b equals a global unit phase times a cyclic shift of a, the
    entrywise ratios agreeing within 1e-9.

    Both sequences must be unimodular-ish (entries bounded away from zero);
    the test compares entrywise ratios across every shift.
    """
    a, b = as_sequence(a), as_sequence(b)
    if a.dimension != b.dimension:
        return False
    if np.abs(a.values).min() < 1e-12:
        raise ValueError("shift/phase comparison needs nonvanishing entries")
    for r in range(a.dimension):
        ratio = b.values / np.roll(a.values, -r)
        if np.abs(ratio - ratio[0]).max() <= 1e-9:
            return True
    return False


def canonical_form(c) -> tuple:
    """Hashable representative of the orbit of c under cyclic shifts and a
    global phase: normalize each shift by its leading entry, round to 9
    decimals, and take the lexicographically least tuple of (re, im) pairs
    (the first least, in shift order)."""
    c = as_sequence(c)
    if np.abs(c.values).min() < 1e-12:
        raise ValueError("canonical form needs nonvanishing entries")
    idx = np.arange(c.dimension)
    shifts = c.values[(idx[:, None] + idx[None, :]) % c.dimension]  # row r: c rolled by -r
    shifts = shifts / shifts[:, :1]
    pairs = np.stack((np.round(shifts.real, 9), np.round(shifts.imag, 9)), axis=-1)
    return min(tuple(map(tuple, key)) for key in pairs.tolist())


def group_orbits(sequences) -> list[tuple[tuple, list]]:
    """(canonical_form key, members) for each orbit among the sequences, in
    key order; the members of an orbit keep their given order."""
    orbits: dict[tuple, list] = {}
    for c in sequences:
        orbits.setdefault(canonical_form(c), []).append(c)
    return [(key, orbits[key]) for key in sorted(orbits)]


def alphabet_exponents(key: tuple, alphabet_order: int) -> list[int]:
    """The exponent e of the nearest root exp(2*i*pi*e/alphabet_order) for
    each (re, im) entry of a canonical_form key.  Every canonical entry of an
    exhaustive_biunimodular hit lies on such a root (tests/test_cli.py checks
    this over d <= 6, alphabet_order <= 12)."""
    turn = 2 * math.pi
    return [round(math.atan2(im, re) % turn * alphabet_order / turn) % alphabet_order for re, im in key]
