import cmath

import numpy as np
import pytest

from circulant_mub import gauss, linalg, mub, sequences
from circulant_mub import (
    GaussSumSpec,
    gauss_sum_direct,
    phase_of_omega,
    root_table,
    square_phase,
    to_complex,
    triangular_phase,
)
from circulant_mub.phase_ring import MAX_MODULUS


def test_phase_of_omega_examples():
    assert phase_of_omega(0, 5) == 0
    assert phase_of_omega(5, 5) == 0  # omega**d wraps to 1
    assert phase_of_omega(-2, 5) == 6  # exponents are reduced into 0 .. 2d-1
    t = phase_of_omega(3, 5)
    assert t == 6
    assert to_complex(t, 5) == pytest.approx(cmath.exp(2j * cmath.pi * 3 / 5), abs=1e-15)


def test_phase_helpers_take_only_integers():
    """A numpy-integer power or exponent gives the Python-int result, with no
    int64 wrap in doubling the power; anything else is refused."""
    for power in (2**62, -(2**63), 3, -2):
        assert phase_of_omega(np.int64(power), 7) == phase_of_omega(power, 7) == 2 * (power % 7)
        assert to_complex(np.int64(power), 7) == to_complex(power, 7)
    assert phase_of_omega(2**62, 7) == 8 and phase_of_omega(-(2**63), 7) == 12
    for bad in (2.5, "3", None):
        with pytest.raises(ValueError, match="must be an integer"):
            phase_of_omega(bad, 7)
        with pytest.raises(ValueError, match="must be an integer"):
            to_complex(bad, 7)


def test_triangular_phase_examples():
    assert triangular_phase(0, 1, 7) == 0
    assert triangular_phase(2, 1, 3) == 0  # 1*2*3 = 6 wraps mod 6
    assert triangular_phase(1, 2, 5) == 4


def test_square_phase_examples():
    assert square_phase(0, 4) == 0
    assert square_phase(1, 4) == 7  # -1 mod 8
    assert square_phase(2, 6) == 8  # -4 mod 12
    with pytest.raises(ValueError):
        square_phase(1, 5)


def test_axis_entries_are_exact():
    for d in (1, 2, 3, 4, 6, 10):
        values = root_table(d)
        assert values[0] == 1.0
        assert values[d] == -1.0
        if d % 2 == 0:
            assert values[d // 2] == 1.0j
            assert values[d + d // 2] == -1.0j


def test_table_matches_direct_exponentials():
    for d in (1, 2, 3, 5, 8, 17, 100):
        values = root_table(d)
        for t in range(2 * d):
            assert abs(values[t] - cmath.exp(1j * cmath.pi * t / d)) < 1e-14


def test_unit_modulus_and_conjugation_symmetry():
    for d in (2, 3, 7, 24, 97):
        v = root_table(d)
        assert np.abs(np.abs(v) - 1.0).max() <= 3e-16
        # v[t] * v[2d-t] multiplies conjugate pairs, so it returns to 1
        assert np.abs(v[1:] * v[:0:-1] - 1.0).max() <= 5e-16


def test_products_of_phases_match_added_exponents():
    # exhaustive over all exponent pairs: the table is consistent with
    # itself to a few ulp under multiplication
    for d in (2, 3, 5, 12, 31):
        v = root_table(d)
        products = v[:, None] * v[None, :]
        wrapped = (np.arange(2 * d)[:, None] + np.arange(2 * d)[None, :]) % (2 * d)
        assert np.abs(products - v[wrapped]).max() <= 2e-15


def test_triangular_phase_is_even_for_odd_d():
    # j*(j+1) is even, so for odd d the phase sits on the d-th roots
    for d in (3, 5, 9, 15):
        for l in (-3, 1, 2, d):
            for j in range(2 * d + 2):
                assert triangular_phase(j, l, d) % 2 == 0


def test_triangular_phase_d_periodicity_for_odd_d():
    for d in (3, 7, 15):
        for j in range(d):
            assert triangular_phase(j + d, 1, d) == triangular_phase(j, 1, d)


def test_bad_dimension_rejected():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            root_table(bad)
        with pytest.raises(ValueError):
            phase_of_omega(1, bad)
        with pytest.raises(ValueError):
            triangular_phase(1, 1, bad)


# every guarded constructor of the package: (call of d, least d, parity)
DIMENSION_GUARDS = [
    pytest.param(lambda d: square_phase(1, d), 2, "even", id="square_phase"),
    pytest.param(linalg.build_clock, 2, None, id="build_clock"),
    pytest.param(linalg.build_shift, 2, None, id="build_shift"),
    pytest.param(linalg.build_triangular_diagonal, 1, "odd", id="build_triangular_diagonal"),
    pytest.param(linalg.build_square_diagonal, 2, "even", id="build_square_diagonal"),
    pytest.param(linalg.build_rotation, 2, None, id="build_rotation"),
    pytest.param(lambda d: linalg.build_phased_fourier(d, 1), 1, "odd", id="build_phased_fourier"),
    pytest.param(linalg.rotation_scalar, 1, "odd", id="rotation_scalar"),
    pytest.param(lambda d: sequences.gauss_sequence(d, 1), 3, "odd", id="gauss_sequence"),
    pytest.param(lambda d: gauss.gauss_identity_sweep(d, 1), 3, "odd", id="gauss_identity_sweep"),
    pytest.param(gauss.verify_even_gauss, 2, "even", id="verify_even_gauss"),
    pytest.param(mub.build_family, 2, None, id="build_family"),
    pytest.param(mub.negative_check_even, 4, "even", id="negative_check_even"),
]


@pytest.mark.parametrize("call, least, parity", DIMENSION_GUARDS)
def test_dimension_guards(call, least, parity):
    # below the least (keeping the parity), the wrong parity, not an integer,
    # and the least d of the parity above MAX_MODULUS, refused before anything
    # of that size is allocated
    above = MAX_MODULUS + (2 if parity == "even" else 1)
    for bad in (least - (2 if parity else 1), least + 1 if parity else None, float(least), above):
        if bad is not None:
            with pytest.raises(ValueError):
                call(bad)
    call(least)
    call(np.int64(least))


def test_phase_arithmetic_refuses_moduli_above_the_int64_bound():
    # above MAX_MODULUS the exponent products can wrap in int64, so the phase
    # helpers refuse d even on a one-entry array, where nothing is allocated
    odd, even = MAX_MODULUS + 1, MAX_MODULUS + 2
    for call in (
        lambda: triangular_phase(np.array([odd - 1], dtype=np.int64), 3, odd),
        lambda: square_phase(np.array([even - 1], dtype=np.int64), even),
        lambda: root_table(odd),
        lambda: gauss_sum_direct(GaussSumSpec(1, 0, odd)),
        lambda: gauss._direct(1, 0, odd),
        lambda: gauss.shift_sums(odd, 1),
        # refused before a trial division that would take about a minute
        lambda: gauss.power_sum_deviations(2**61 - 1, [1], [0]),
    ):
        with pytest.raises(ValueError):
            call()
    assert triangular_phase(np.array([MAX_MODULUS - 1], dtype=np.int64), 3, MAX_MODULUS)[0] == (
        (MAX_MODULUS - 1) * MAX_MODULUS * 3 % (2 * MAX_MODULUS)
    )


def test_shared_table_instance_per_dimension():
    # builders must see bit-identical phases, so the table is a singleton
    assert root_table(11) is root_table(11)
