import cmath
import math

import numpy as np
import pytest

from circulant_mub import (
    GaussSumSpec,
    MubFamily,
    Recipe,
    build_family,
    build_rotation,
    circulant_power,
    gauss_identity_sweep,
    gauss_sum_direct,
    gauss_sum_reciprocity,
    is_prime,
    root_table,
    smallest_nontrivial_divisor,
    verify_even_gauss,
    verify_family,
)
from circulant_mub.gauss import power_sum_deviations, reciprocity_deviations, shift_sums, triangular_trace_deviations
from circulant_mub.linalg import default_tolerance
from circulant_mub.mub import coprime_power_mismatches
from circulant_mub.sequences import gauss_sequence
from test_cli import verify_triangular_trace


def sum_oracle(a, b, d):
    # term-by-term reference straight from the definition, no phase table
    return sum(cmath.exp(1j * cmath.pi * (a * j * j + b * j) / d) for j in range(d))


def test_primality_helpers():
    primes_below_sixty = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(60):
        assert is_prime(n) == (n in primes_below_sixty)
    assert smallest_nontrivial_divisor(9) == 3
    assert smallest_nontrivial_divisor(15) == 3
    assert smallest_nontrivial_divisor(49) == 7
    assert smallest_nontrivial_divisor(77) == 7
    assert smallest_nontrivial_divisor(13) == 13
    with pytest.raises(ValueError):
        smallest_nontrivial_divisor(1)
    # the 6k +- 1 wheel against division by every f from 2 up
    for n in list(range(2, 3000)) + [997 * 997, 997 * 1009, 99991 * 99989]:
        expected = next(f for f in range(2, n + 1) if n % f == 0)
        assert smallest_nontrivial_divisor(n) == expected, n
        assert is_prime(n) == (expected == n), n
    assert not any(is_prime(n) for n in range(-5, 2))
    assert is_prime(2**31 - 1) and smallest_nontrivial_divisor(2**31 - 1) == 2**31 - 1


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussSumSpec(1, 0, 0)
    with pytest.raises(ValueError):
        GaussSumSpec(1.5, 0, 3)


def test_non_integer_multipliers_are_refused():
    # a float k or l used to be truncated (1.5 % 6 cast to int64 is 1) or to
    # fail with IndexError or TypeError; np.integer values stay accepted
    for call in (
        lambda k: triangular_trace_deviations(3, [1, k]),
        lambda k: gauss_sequence(5, k),
        lambda k: shift_sums(5, k),
        lambda k: gauss_identity_sweep(5, k),
        lambda k: power_sum_deviations(7, [k], [0]),
        lambda k: power_sum_deviations(7, [1], [0, k]),
        lambda k: GaussSumSpec(1, k, 3),
    ):
        for bad in (1.5, 2.0, np.float64(2.0), "2", None):
            with pytest.raises(ValueError, match="must be an integer"):
                call(bad)
        call(2)
        call(np.int32(2))


def test_numpy_integer_parameters_match_python_ints_bit_for_bit():
    # with np.int64 a and d, the quarter phase's guard n*n >= 2**63 wrapped
    # in int64 (n = 4ad is about 4.0e9 here), and so did (b % n)**2 after it
    a, d = 1_000_003, 1001
    as_numpy = reciprocity_deviations(np.int64(a), range(-6, 7), np.int64(d))
    assert as_numpy.tolist() == reciprocity_deviations(a, range(-6, 7), d).tolist()
    assert as_numpy.max() < 1e-9
    params = (7, 123456789013, 999_999_999)
    spec = GaussSumSpec(*map(np.int64, params))
    assert type(spec.a) is type(spec.b) is type(spec.d) is int
    assert gauss_sum_reciprocity(spec) == gauss_sum_reciprocity(GaussSumSpec(*params))


def test_direct_sum_matches_oracle():
    for d in (1, 2, 3, 5, 8, 13, 40):
        for a in (-3, -1, 0, 1, 2, 5, 2 * d + 1):
            for b in (-2, 0, 1, 7):
                spec = GaussSumSpec(a, b, d)
                assert abs(gauss_sum_direct(spec) - sum_oracle(a, b, d)) < 1e-12 * d


def test_direct_sum_frozen_values():
    # S(2, 0, 3) = 1 + 2*exp(2*i*pi/3) = i*sqrt(3)
    assert abs(gauss_sum_direct(GaussSumSpec(2, 0, 3)) - 1.7320508075688772j) < 1e-14
    # S(1, 0, 4) = 2*exp(i*pi/4)
    assert abs(gauss_sum_direct(GaussSumSpec(1, 0, 4)) - 2 * cmath.exp(0.25j * cmath.pi)) < 1e-14
    # S(1, 1, 3) = 2 + exp(2*i*pi/3), modulus sqrt(3)
    s = gauss_sum_direct(GaussSumSpec(1, 1, 3))
    assert abs(s - (1.5 + 0.8660254037844386j)) < 1e-14
    assert abs(abs(s) - math.sqrt(3)) < 1e-14


def test_direct_sum_vectorized_at_large_modulus():
    # d = 1,321,123 is the least d with 2*d**3 >= 2**62; the exponents must
    # still match a gather of exponents formed with Python ints
    d = 1_321_123
    a, b = 2 * d - 1, -(10**20 + 3)
    t = np.array([(a * j * j + b * j) % (2 * d) for j in range(d)], dtype=np.int64)
    assert gauss_sum_direct(GaussSumSpec(a, b, d)) == complex(root_table(d)[t].sum())


def test_reciprocity_single_step_matches_direct():
    for a in range(1, 9):
        for d in range(1, 21):
            for b in range(-4, 5):
                if (a * d + b) % 2:
                    continue
                spec = GaussSumSpec(a, b, d)
                direct = gauss_sum_direct(spec)
                assert abs(gauss_sum_reciprocity(spec) - direct) < 1e-10, (a, b, d)


def test_reciprocity_negative_a():
    for (a, b, d) in [(-1, 1, 3), (-2, 0, 5), (-3, -1, 7), (-5, 2, 8)]:
        if (a * d + b) % 2:
            continue
        spec = GaussSumSpec(a, b, d)
        assert abs(gauss_sum_reciprocity(spec) - gauss_sum_direct(spec)) < 1e-10


def test_reciprocity_hypotheses_enforced():
    with pytest.raises(ValueError):
        gauss_sum_reciprocity(GaussSumSpec(0, 0, 5))
    with pytest.raises(ValueError):
        gauss_sum_reciprocity(GaussSumSpec(1, 0, 5))  # a*d + b odd


def test_reciprocity_deviations_measure_only_where_the_identity_holds():
    # of a step-1 b range, exactly the b with a*d + b even are measured
    for a, bs, d in [(1, range(-10, 11), 5), (2, range(-3, 4), 7), (3, range(-5, 6), 4), (3, range(5, 6), 4)]:
        valid = [b for b in bs if (a * d + b) % 2 == 0]
        deviations = reciprocity_deviations(a, bs, d)
        assert deviations.shape == (len(valid),), (a, bs, d)
        for deviation, b in zip(deviations, valid):
            spec = GaussSumSpec(a, b, d)
            assert deviation == pytest.approx(abs(gauss_sum_direct(spec) - gauss_sum_reciprocity(spec)), abs=1e-13)
        assert deviations.max(initial=0.0) < 1e-12
    # a and d outside 1..MAX_MODULUS, and any other step, are refused
    refused = [
        (0, range(3), 5),
        (-1, range(3), 5),
        (1, range(3), 0),
        (1, range(3), 10**9 + 1),
        (10**9 + 1, range(3), 1),
        (1, range(-10, 11, 2), 5),
        (1, range(3, 0, -1), 5),
    ]
    for a, bs, d in refused:
        with pytest.raises(ValueError):
            reciprocity_deviations(a, bs, d)


def identity_oracle(d, l, j):
    # | |sum_k exp((2*i*pi/d)(l*k*(k+1)/2 + j*k))| - sqrt(d) | term by term
    total = sum(
        cmath.exp(2j * cmath.pi * (l * k * (k + 1) / 2 + j * k) / d) for k in range(d)
    )
    return abs(abs(total) - math.sqrt(d))


def test_identity_sweep_values():
    devs = gauss_identity_sweep(5, 2)
    assert devs.shape == (5,)
    assert devs.max() < 1e-12
    for j in range(5):
        assert devs[j] == pytest.approx(identity_oracle(5, 2, j), abs=1e-13)


def test_identity_sweep_matches_cmath_oracle():
    d, l, j = 7, 3, 2
    assert gauss_identity_sweep(d, l)[j] == pytest.approx(identity_oracle(d, l, j), abs=1e-13)


def test_identity_sweep_reduces_huge_multipliers():
    # l = 1 + 14 * 10**17 fits int64, but l*k*(k+1) does not: l must be
    # reduced mod 2d before the exponent array is formed
    l = 1 + 14 * 10**17
    assert np.array_equal(gauss_identity_sweep(7, l), gauss_identity_sweep(7, 1))
    assert gauss_identity_sweep(7, l).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7, 9, 15, 21, 25, 33])
def test_identity_sweep_all_coprime_shifts(d):
    for l in range(1, d):
        if math.gcd(l, d) != 1:
            continue
        assert gauss_identity_sweep(d, l).max() < 1e-11, (d, l)


def test_identity_sweep_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gauss_identity_sweep(6, 1)
    with pytest.raises(ValueError):
        gauss_identity_sweep(9, 3)


def test_triangular_trace_identity():
    for d in (3, 5, 7, 9, 15):
        for k in range(1, d):
            if math.gcd(k, d) != 1:
                continue
            assert verify_triangular_trace(d, k) < 1e-11, (d, k)
    # independent trace oracle at one point
    d, k = 9, 2
    trace = sum(cmath.exp(2j * cmath.pi * k * (j * (j + 1) // 2) / d) for j in range(d))
    assert verify_triangular_trace(d, k) == pytest.approx(abs(abs(trace) - 3.0), abs=1e-13)
    with pytest.raises(ValueError):
        verify_triangular_trace(9, 3)


def test_triangular_trace_deviations_refuse_what_the_diagonal_refuses():
    assert triangular_trace_deviations(1, [1]).tolist() == [0.0]
    for d in (0, -3, 4, 10**9 + 1):
        with pytest.raises(ValueError, match="triangular diagonal dimension"):
            triangular_trace_deviations(d, [1])


def test_even_dimension_identity():
    for d in range(2, 51, 2):
        assert verify_even_gauss(d) < 1e-11, d
    with pytest.raises(ValueError):
        verify_even_gauss(5)


def test_rotation_power_sums():
    for d in (3, 5, 7, 11, 13):
        for k in range(1, d):
            for m in (0, 1, 2):
                dev_d, dev_k = power_sum_deviations(d, [k], [m])
                assert dev_d.shape == dev_k.shape == (1, 1)
                assert dev_d[0, 0] < 1e-11, (d, k, m)
                assert dev_k[0, 0] < 1e-11, (d, k, m)
    # both are (k, m) arrays on empty spans too
    for ks, ms in (([], [0]), ([1, 2], []), ([], [])):
        dev_d, dev_k = power_sum_deviations(5, ks, ms)
        assert dev_d.shape == dev_k.shape == (len(ks), len(ms)), (ks, ms)


def test_rotation_power_sums_validation():
    with pytest.raises(ValueError):
        power_sum_deviations(9, [1], [0])
    with pytest.raises(ValueError):
        power_sum_deviations(7, [0], [0])
    with pytest.raises(ValueError):
        power_sum_deviations(7, [2], [7])


def cyclotomic(d):
    """The integer coefficients of Phi_d, constant term first: x**d - 1
    divided exactly by Phi_e for every proper divisor e of d."""
    quotient = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            divisor = cyclotomic(e)  # monic
            remainder, quotient = quotient, [0] * (len(quotient) - len(divisor) + 1)
            for i in reversed(range(len(quotient))):
                quotient[i] = remainder[i + len(divisor) - 1]
                for j, coefficient in enumerate(divisor):
                    remainder[i + j] -= quotient[i] * coefficient
            assert not any(remainder), (d, e)
    return quotient


def power_basis(d):
    """The d x phi(d) integer matrix whose row s holds the coefficients of
    x**s mod Phi_d, that is of zeta_d**s in the basis 1, zeta_d, ...,
    zeta_d**(phi(d) - 1) of Q(zeta_d) over Q."""
    phi = cyclotomic(d)
    rows = [[1] + [0] * (len(phi) - 2)]
    for _ in range(1, d):
        row = [0] + rows[-1]
        top = row.pop()  # x**deg(Phi_d) = -(the lower terms of Phi_d)
        rows.append([r - top * p for r, p in zip(row, phi)])
    return np.array(rows, dtype=np.int64)


def exact_certificates(d, ks):
    """certified[i, m]: |S(k, k + 2m, d)|**2 = d exactly, k = ks[i].  The
    histogram h of t_j = k*j*(j+1)/2 + m*j mod d has the integer
    autocorrelation c with |S|**2 = sum_s c_s zeta_d**s, so |S|**2 = d exactly
    when c @ power_basis(d) = (d, 0, ..., 0); for prime d that reads
    c_s = c_0 - d for every s != 0.  Integers only."""
    k = np.asarray(ks, dtype=np.int64)[:, None, None]
    m = np.arange(d, dtype=np.int64)[None, :, None]
    j = np.arange(d, dtype=np.int64)
    t = (k * (j * (j + 1) // 2) + m * j) % d
    h = np.zeros(t.shape, dtype=np.int64)
    k_index, m_index, _ = np.indices(t.shape)
    np.add.at(h, (k_index, m_index, t), 1)
    c = np.stack([np.einsum("kma,kma->km", np.roll(h, -s, axis=-1), h) for s in range(d)], axis=-1)
    assert (c.sum(axis=-1) == d * d).all() and (c[..., 0] == (h * h).sum(axis=-1)).all()
    reduced = c @ power_basis(d)
    return (reduced[..., 0] == d) & (reduced[..., 1:] == 0).all(axis=-1)


def test_rotation_power_sums_have_exact_certificates_at_every_prime():
    primes = [p for p in range(3, 62) if is_prime(p)]
    assert len(primes) == 17
    for p in primes:
        ks, ms = list(range(1, p)), list(range(p))
        assert exact_certificates(p, ks).all(), p
        # the float path agrees on the same (k, m)
        dev_d, dev_k = power_sum_deviations(p, ks, ms)
        assert dev_d.shape == dev_k.shape == (p - 1, p)
        assert dev_d.max() <= 1e-9 and dev_k.max() <= 1e-9, p


@pytest.mark.parametrize("d", [9, 15, 21, 25, 27])
def test_exact_certificate_refuses_every_noncoprime_power(d):
    ks = [k for k in range(1, d) if math.gcd(k, d) > 1]
    assert not exact_certificates(d, ks).any()


@pytest.mark.parametrize("d", range(3, 62, 2))
def test_exact_certificates_at_odd_d_certify_exactly_the_coprime_powers(d):
    ks = list(range(1, d))
    certified = exact_certificates(d, ks)
    coprime = np.array([math.gcd(k, d) == 1 for k in ks])
    assert (certified == coprime[:, None]).all()
    # the float sums reach sqrt(d) on exactly the certified (k, m)
    near = np.array([np.abs(np.abs(shift_sums(d, k)) - math.sqrt(d)) <= 1e-9 for k in ks])
    assert (near == certified).all()
    assert coprime_power_mismatches(d, default_tolerance(d)) == []


@pytest.mark.parametrize("d", [9, 15, 21, 25])
def test_exact_certificates_predict_every_power_pair_verdict(d):
    # R**j* R**k = R**(k - j), so the pair R^j|R^k is unbiased exactly when
    # R**(k - j) is certified, and I|R^k exactly when R**k is
    rotation = build_rotation(d)
    powers = [(f"R^{k}", circulant_power(rotation, k)) for k in range(1, d)]
    family = MubFamily(d, (*build_family(d).bases[:2], *powers), Recipe.ODD_COMPOSITE)
    report = verify_family(family)
    verdict = dict(zip(report.pairs, (report.deviations <= default_tolerance(d)).tolist()))
    certified = [None, *exact_certificates(d, range(1, d)).all(axis=-1).tolist()]  # certified[k] for R**k
    assert certified.count(True) == sum(math.gcd(k, d) == 1 for k in range(1, d))
    for k in range(1, d):
        assert verdict["I", f"R^{k}"] == certified[k], (d, k)
        for j in range(1, k):
            assert verdict[f"R^{j}", f"R^{k}"] == certified[k - j], (d, j, k)
