"""Exact arithmetic for roots of unity.

Every phase appearing in this package is an integer power of the primitive
2d-th root of unity exp(i*pi/d).  A phase is therefore stored as its
exponent t, an int (or an int64 array of them) reduced modulo 2d and
standing for exp(i*pi*t/d), and all phase algebra stays in the integers.
Complex numbers enter only at materialization time, by indexing the
per-dimension table of the 2d unit values with the exponents; the tables are
kept for the 64 most recently used d.

The convention ties the usual d-th root omega = exp(2*i*pi/d) to t = 2, and
its square root exp(i*pi/d) to t = 1, so half-integer powers of omega (which
show up for even dimensions) stay exact.

Exponent arrays are int64, so each helper reduces its inputs mod 2d before
multiplying them: every intermediate product then stays below (2d)**2 and
cannot overflow for d up to MAX_MODULUS = 10**9.  _check_dimension, the one
dimension guard of the package, refuses any d above it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_MODULUS = 10**9  # the largest d whose exponent products stay within int64


def _check_dimension(d: int, least: int = 1, parity: str | None = None, what: str = "dimension") -> None:
    """Refuse d unless it is an integer in least..MAX_MODULUS, and "even" or
    "odd" when parity asks for one; what names the object in the message."""
    if not isinstance(d, (int, np.integer)) or not least <= d <= MAX_MODULUS or (parity and d % 2 != (parity == "odd")):
        kind = f"{parity + ' ' if parity else ''}integer in {least}..{MAX_MODULUS}"
        raise ValueError(f"{what} must be an {kind}, got {d!r}")


def _check_integers(what: str, *values) -> None:
    """Refuse any value that is not an int or a numpy integer; what names them."""
    for value in values:
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{what} must be an integer, got {value!r}")


# Bounded: a plan over d = 2..16000 would otherwise hold 2 GB of tables.  64
# still holds the 50 tables that `gauss reciprocity --a 1..20 --d 1..50`
# cycles through for each value of a.
@lru_cache(maxsize=64)
def root_table(d: int) -> np.ndarray:
    """Read-only array of all 2d values exp(i*pi*t/d), t = 0 .. 2d-1,
    kept for the 64 most recently used d.

    Entries on the axes (t = 0, d/2, d, 3d/2) are set to 1, i, -1, -i
    exactly, and the second half of the circle is the complex conjugate of
    the first by construction, so conjugation symmetry holds bit for bit.
    """
    _check_dimension(d)
    half = np.exp(1j * np.pi * np.arange(d + 1) / d)
    half[0] = 1.0
    half[d] = -1.0
    if d % 2 == 0:
        half[d // 2] = 1.0j
    values = np.empty(2 * d, dtype=np.complex128)
    values[: d + 1] = half
    values[d + 1 :] = np.conj(half[1:d][::-1])
    values.setflags(write=False)
    return values


def phase_of_omega(power: int, d: int) -> int:
    """Exponent of omega**power where omega = exp(2*i*pi/d), for an integer power."""
    _check_dimension(d)
    _check_integers("power", power)
    return 2 * (int(power) % int(d))  # 2p mod 2d = 2 (p mod d)


def triangular_phase(j, l: int, d: int):
    """Exponent of omega**(l*j*(j+1)/2) = exp(i*pi*l*j*(j+1)/d), for an int
    or an int array j.

    The triangular number j*(j+1)/2 never needs a division here: the phase
    is exp(i*pi * l*j*(j+1) / d), an integer point on the 2d-grid.
    """
    _check_dimension(d)
    _check_integers("multiplier l", l)
    m = 2 * int(d)
    j = j % m
    return j * (j + 1) % m * (l % m) % m


def square_phase(j, d: int):
    """Exponent of omega**(-j**2/2) = exp(-i*pi*j*j/d), for even d only and
    an int or an int array j."""
    _check_dimension(d, 2, "even", "square_phase dimension")
    m = 2 * int(d)
    j = j % m
    return -(j * j) % m


def to_complex(t: int, d: int) -> complex:
    """Materialize the phase exp(i*pi*t/d), t an integer, through the table of dimension d."""
    _check_integers("exponent t", t)
    return complex(root_table(d)[t % (2 * int(d))])
