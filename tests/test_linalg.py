import cmath
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circulant_mub import (
    CheckResult,
    CirculantMatrix,
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
    gauss_sequence,
    is_unitary,
    is_unitary_hadamard,
    multiply,
    power,
    root_table,
    rotation_scalar,
)


def fourier_oracle(d):
    # independent construction straight from the definition
    return np.array(
        [[cmath.exp(2j * cmath.pi * j * k / d) for k in range(d)] for j in range(d)]
    ) / math.sqrt(d)


def random_circulant(d, rng):
    col = rng.normal(size=d) + 1j * rng.normal(size=d)
    return CirculantMatrix(d, col)


# ---------------------------------------------------------------------------
# builders


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
def test_fourier_matches_definition(d):
    built = build_fourier(d).entries
    assert np.abs(built - fourier_oracle(d)).max() < 1e-14


def test_fourier_d2_is_real_hadamard():
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    assert np.array_equal(build_fourier(2).entries, expected)


def test_shift_dense_display():
    expected = np.array(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(build_shift(4).to_dense(), expected)
    assert np.array_equal(build_shift(4).first_column, np.array([0, 0, 0, 1], dtype=complex))


def test_clock_values():
    d = 6
    expected = np.exp(2j * np.pi * np.arange(d) / d)
    assert np.abs(build_clock(d).values() - expected).max() < 1e-15


@pytest.mark.parametrize("d", range(2, 13))
def test_clock_shift_commutation(d):
    # V U = omega U V
    u = build_clock(d).to_dense()
    v = build_shift(d).to_dense()
    omega = cmath.exp(2j * cmath.pi / d)
    assert np.abs(v @ u - omega * (u @ v)).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 5, 9, 16])
def test_fourier_diagonalizes_shift(d):
    f = build_fourier(d)
    u = build_clock(d).to_dense()
    v = build_shift(d).to_dense()
    conjugated = adjoint(f).entries @ v @ f.entries
    assert np.abs(conjugated - u).max() < 1e-13


def test_triangular_diagonal_values():
    w3 = cmath.exp(2j * cmath.pi / 3)
    assert np.abs(build_triangular_diagonal(3).values() - [1, w3, 1]).max() < 1e-15
    w5 = cmath.exp(2j * cmath.pi / 5)
    expected = [1, w5, w5**3, w5, 1]  # exponents k(k+1)/2 mod 5: 0 1 3 1 0
    assert np.abs(build_triangular_diagonal(5).values() - expected).max() < 1e-14
    with pytest.raises(ValueError):
        build_triangular_diagonal(4)


def test_square_diagonal_values():
    assert np.array_equal(build_square_diagonal(2).values(), np.array([1, -1j]))
    d4 = build_square_diagonal(4).values()
    assert d4[2] == -1.0  # omega**-2 at d=4
    assert abs(d4[3] - cmath.exp(-1j * cmath.pi / 4)) < 1e-15
    with pytest.raises(ValueError):
        build_square_diagonal(5)


def gather(d, exponents):
    # exponents computed with Python ints, so no int64 arithmetic is involved
    return root_table(d)[np.array([t % (2 * d) for t in exponents], dtype=np.int64)]


@pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 31])
def test_builders_gather_exact_exponents(d):
    # no tolerance: each builder must index the shared table at the exact
    # exponent, so its floats are bit-identical to a gather of Python ints
    ks = range(d)
    if d % 2:
        rotation = [-k * (k + 1) for k in ks]
    else:
        rotation = [-k * k for k in ks]
    assert np.array_equal(build_rotation(d).first_column, gather(d, rotation) / math.sqrt(d))
    assert np.array_equal(build_clock(d).values(), gather(d, [2 * k for k in ks]))
    if d % 2 == 0:
        return
    assert np.array_equal(build_triangular_diagonal(d).values(), gather(d, [k * (k + 1) for k in ks]))
    for n in (-3, 1, 2, 10**20 + 1):
        triangular = gather(d, [n * k * (k + 1) for k in ks])
        assert np.array_equal(gauss_sequence(d, n), triangular)
    alpha = complex(gather(d, [-k * (k + 1) for k in ks]).sum() / math.sqrt(d))
    assert rotation_scalar(d) == alpha


def test_rotation_first_columns():
    w3 = cmath.exp(2j * cmath.pi / 3)
    col3 = build_rotation(3).first_column * math.sqrt(3)
    assert np.abs(col3 - [1, w3**-1, 1]).max() < 1e-15
    col2 = build_rotation(2).first_column * math.sqrt(2)
    assert np.array_equal(col2, np.array([1, -1j]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 12, 25])
def test_rotation_is_unitary_hadamard(d):
    check = is_unitary_hadamard(build_rotation(d))
    assert check.passed, check.deviation


@pytest.mark.parametrize("d", [2, 4, 6, 10])
def test_even_fourier_rotation_product_is_hadamard(d):
    product = multiply(adjoint(build_fourier(d)), build_rotation(d).to_dense())
    assert is_unitary_hadamard(product).passed


def test_phased_fourier_zero_is_fourier():
    assert np.array_equal(build_phased_fourier(7, 0).entries, build_fourier(7).entries)


def test_phased_fourier_matches_definition():
    d, k = 3, 1
    built = build_phased_fourier(d, k).entries
    expected = np.array(
        [
            [cmath.exp(1j * cmath.pi * (2 * j * m - k * j * (j + 1)) / d) for m in range(d)]
            for j in range(d)
        ]
    ) / math.sqrt(d)
    assert np.abs(built - expected).max() < 1e-14
    with pytest.raises(ValueError):
        build_phased_fourier(4, 1)


def test_phased_fourier_reduces_huge_powers():
    # k*j*(j+1) overflows int64 unless k is reduced mod 2d first
    huge = build_phased_fourier(7, 1 + 14 * 10**17).entries
    assert np.array_equal(huge, build_phased_fourier(7, 1).entries)


@pytest.mark.parametrize("d", [3, 5, 11])
def test_phased_fourier_is_unitary_hadamard(d):
    for k in range(d):
        assert is_unitary_hadamard(build_phased_fourier(d, k)).passed


def test_index_reversal():
    w = build_index_reversal(5).entries
    assert w[0, 0] == 1
    for j in range(1, 5):
        assert w[j, 5 - j] == 1
    assert np.abs(w @ w - np.eye(5)).max() == 0
    # in dimensions 1 and 2 the reversal fixes everything
    assert np.array_equal(build_index_reversal(2).entries, np.eye(2))


@pytest.mark.parametrize("d", [2, 3, 8, 13])
def test_fourier_square_is_index_reversal(d):
    f = build_fourier(d).entries
    assert np.abs(f @ f - build_index_reversal(d).entries).max() < 1e-13
    assert np.abs(f @ f @ f @ f - np.eye(d)).max() < 1e-13


def test_rotation_scalar_unit_modulus():
    for d in range(3, 100, 2):
        assert abs(abs(rotation_scalar(d)) - 1.0) < 1e-12


def test_rotation_scalar_matches_direct_sum():
    d = 7
    direct = sum(cmath.exp(-1j * cmath.pi * k * (k + 1) / d) for k in range(d)) / math.sqrt(d)
    assert abs(rotation_scalar(d) - direct) < 1e-14


def test_triangular_exponent_reduction_identity():
    # 2jk - j(j+1) - k(k-1) = -(j-k)(j-k+1) exactly in the integers,
    # which is what lets a dense entry table collapse to a first column
    for d in (2, 3, 10, 45, 100):
        j = np.arange(d, dtype=np.int64)[:, None]
        k = np.arange(d, dtype=np.int64)[None, :]
        lhs = 2 * j * k - j * (j + 1) - k * (k - 1)
        rhs = -(j - k) * (j - k + 1)
        assert np.array_equal(lhs, rhs)


def test_rotation_dense_entries_from_first_column():
    # R[j,k] must equal the first column at index (j-k) mod d
    for d in (3, 4, 7):
        r = build_rotation(d)
        dense = r.to_dense()
        for j in range(d):
            for k in range(d):
                assert dense[j, k] == r.first_column[(j - k) % d]
        assert circulant_deviation(dense) == 0.0


# ---------------------------------------------------------------------------
# products, powers, diagonalization


def test_multiply_adjoint_power_basics():
    d = 6
    f = build_fourier(d)
    assert np.abs(multiply(adjoint(f), f).entries - np.eye(d)).max() < 1e-14
    v = build_shift(d).to_dense()
    assert np.abs(power(v, d).entries - np.eye(d)).max() == 0
    assert np.abs(power(f, 4).entries - np.eye(d)).max() < 1e-13


def test_power_matches_matrix_power_oracle():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    q, _ = np.linalg.qr(m)
    for n in (0, 1, 2, 3, 7, 13):
        assert np.abs(power(q, n).entries - np.linalg.matrix_power(q, n)).max() < 1e-12


def test_negative_power_requires_unitarity():
    # no negative power is taken, of a unitary either: raise the adjoint
    for n in (-1, -3):
        for a in (2.0 * np.eye(3), build_fourier(3), build_rotation(5)):
            with pytest.raises(ValueError, match="exponent n must be an integer >= 0"):
                power(a, n)
        with pytest.raises(ValueError, match="exponent n must be an integer >= 0"):
            circulant_power(build_rotation(5), n)


def test_non_integer_exponents_are_refused():
    # circulant_power(R, 2.5) returned the spectrum to the power 2.5, and
    # power(R, 2.5) raised TypeError
    rotation = build_rotation(5)
    for n in (2.5, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="exponent n must be an integer"):
            power(rotation, n)
        with pytest.raises(ValueError, match="exponent n must be an integer"):
            circulant_power(rotation, n)
    assert np.array_equal(power(rotation, np.int64(2)).entries, power(rotation, 2).entries)


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(build_fourier(3), build_fourier(4))


def test_circulant_multiply_matches_dense_product():
    rng = np.random.default_rng(23)
    for d in (2, 3, 8, 17, 64):
        a, b = random_circulant(d, rng), random_circulant(d, rng)
        via_columns = circulant_multiply(a, b).to_dense()
        dense = a.to_dense() @ b.to_dense()
        assert np.abs(via_columns - dense).max() < 1e-10
        # circulants commute
        swapped = circulant_multiply(b, a).to_dense()
        assert np.abs(via_columns - swapped).max() < 1e-10


def test_circulant_power_matches_repeated_multiplication():
    rng = np.random.default_rng(5)
    c = random_circulant(9, rng)
    acc = c
    for n in range(2, 6):
        acc = circulant_multiply(acc, c)
        assert np.abs(circulant_power(c, n).first_column - acc.first_column).max() < 1e-9


def test_shift_squared_first_column():
    v = build_shift(5)
    v2 = circulant_multiply(v, v)
    expected = np.zeros(5)
    expected[3] = 1.0
    assert np.abs(v2.first_column - expected).max() < 1e-12


def test_diagonalize_shift():
    d = 7
    expected = np.exp(2j * np.pi * np.arange(d) / d)
    assert np.abs(diagonalize_circulant(build_shift(d)) - expected).max() < 1e-13


def test_diagonalize_rotation_gives_triangular_phases():
    for d in (3, 5, 9):
        diag = diagonalize_circulant(build_rotation(d))
        alpha = rotation_scalar(d)
        expected = alpha * build_triangular_diagonal(d).values()
        assert np.abs(diag - expected).max() < 1e-12


def test_diagonalize_matches_fourier_conjugation_oracle():
    rng = np.random.default_rng(3)
    for d in (2, 4, 6, 11):
        c = random_circulant(d, rng)
        f = fourier_oracle(d)
        conjugated = f.conj().T @ c.to_dense() @ f
        off_diagonal = conjugated - np.diag(np.diag(conjugated))
        assert np.abs(off_diagonal).max() < 1e-10
        assert np.abs(np.diag(conjugated) - diagonalize_circulant(c)).max() < 1e-10


# ---------------------------------------------------------------------------
# predicates, tolerances, caps


def test_is_unitary_verdicts():
    assert is_unitary(np.eye(4)).passed
    check = is_unitary(2.0 * np.eye(4))
    assert not check.passed
    assert check.deviation == pytest.approx(3.0)
    assert is_unitary(build_fourier(9)).passed


def test_is_unitary_hadamard_verdicts():
    assert is_unitary_hadamard(build_fourier(5)).passed
    identity_check = is_unitary_hadamard(np.eye(5))
    assert not identity_check.passed
    assert identity_check.deviation == pytest.approx(1 - 1 / math.sqrt(5))
    # is_unitary_hadamard leaves the shape check to is_unitary
    for check in (is_unitary, is_unitary_hadamard):
        for shape in ((2, 3), (3,), (2, 2, 2)):
            with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {shape}")):
                check(np.ones(shape))


def test_default_tolerance_scales_with_sqrt_d():
    assert default_tolerance(4) == pytest.approx(2e-9)
    assert default_tolerance(9, base=1e-6) == pytest.approx(3e-6)
    with pytest.raises(ValueError):
        default_tolerance(4, base=0.0)
    # the scaled budget itself must be positive and finite, so any d < 1 is refused:
    # the message names the base and d
    for d, base in ((4, 1e308), (0, 1e-9), (-1, 1e-9), (-4, 1e-9)):
        with pytest.raises(ValueError, match=re.escape(f"tolerance base {base} times sqrt({d}) is")):
            default_tolerance(d, base)
    # tol=None is default_tolerance(d), 2e-9 at d = 4, which this deviation of 1.5e-9 passes
    near = build_fourier(4).entries * math.sqrt(1 + 1.5e-9)
    for check in (is_unitary, is_unitary_hadamard):
        assert check(near) == check(near, default_tolerance(4)) == CheckResult(True, check(near).deviation)
        assert not check(near, 1e-9).passed


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_positive_and_finite(tol):
    # a NaN tolerance fails every check and an infinite one passes every check
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        default_tolerance(3, base=tol)
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        is_unitary(np.eye(3), tol=tol)
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        is_unitary_hadamard(build_fourier(3), tol=tol)


def test_builder_dimension_validation():
    for builder in (build_clock, build_shift, build_rotation):
        with pytest.raises(ValueError):
            builder(1)
    with pytest.raises(ValueError):
        build_fourier(0)
