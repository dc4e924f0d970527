import cmath
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest

from circulant_mub import (
    DiagonalUnitary,
    as_sequence,
    autocorrelation,
    build_clock,
    build_square_diagonal,
    build_triangular_diagonal,
    canonical_form,
    dft_sequence,
    exhaustive_biunimodular,
    gauss_sequence,
    is_biunimodular,
)
from circulant_mub.linalg import default_tolerance
from circulant_mub.sequences import group_orbits


def dft_oracle(values):
    d = len(values)
    return np.array(
        [
            sum(values[k] * cmath.exp(2j * cmath.pi * k * l / d) for k in range(d))
            / math.sqrt(d)
            for l in range(d)
        ]
    )


def random_unimodular(d, rng):
    return np.exp(2j * np.pi * rng.random(d))


def exhaustive_oracle(d, m, tols):
    """Every one of the m**d sequences over the m-th roots of unity, in
    base-m digit order, each tested on its own DFT moduli; one hit list per
    tolerance."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    k = np.arange(d)
    dft = np.exp(2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)
    rows = roots[np.array(list(itertools.product(range(m), repeat=d)), dtype=np.int64)]
    chunk = 1 << 16
    deviation = np.concatenate(
        [
            np.abs(np.abs(rows[start : start + chunk] @ dft) - 1.0).max(axis=1)
            for start in range(0, len(rows), chunk)
        ]
    )
    return [rows[deviation <= tol] for tol in tols]


def gemm_oracle(d, m, tols):
    """Every row with c[0] = 1, in base-m digit order, tested on the matrix
    product rows @ dft in chunks of 2**14, where the search adds two half
    transforms; each hit stands for its m phase multiples, sorted by base-m
    number.  The deviations are computed once; one hit list per tolerance."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    k = np.arange(d)
    dft = np.exp(2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)
    place = m ** np.arange(d - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(m ** (d - 1), dtype=np.int64)[:, None] // place) % m
    chunk = 1 << 14
    deviation = np.concatenate(
        [
            np.abs(np.abs(roots[digits[start : start + chunk]] @ dft) - 1.0).max(axis=1)
            for start in range(0, len(digits), chunk)
        ]
    )
    hits = []
    for tol in tols:
        rows = ((digits[deviation <= tol][None] + np.arange(m)[:, None, None]) % m).reshape(-1, d)
        hits.append(roots[rows[np.argsort(rows @ place)]])
    return hits


def canonical_oracle(values):
    """Least (re, im) key over the cyclic shifts, each divided by its first
    entry and rounded to 9 decimals, a negative zero made positive; the
    first least key wins a tie."""
    best = None
    for r in range(len(values)):
        w = np.roll(values, -r)
        w = w / w[0]
        key = tuple((round(z.real, 9) + 0.0, round(z.imag, 9) + 0.0) for z in w)
        if best is None or key < best:
            best = key
    return best


def key_bits(key):
    # struct tells -0.0 from 0.0, which == does not
    return [struct.pack("<d", x) for pair in key for x in pair]


def test_as_sequence_shapes():
    s = as_sequence([1.0, 1j])
    assert type(s) is np.ndarray and s.dtype == np.complex128 and s.shape == (2,)
    c = np.array([1.0, 1j])
    assert as_sequence(c) is c
    for bad in (1j, np.ones((2, 2)), []):
        with pytest.raises(ValueError):
            as_sequence(bad)


def test_callers_arrays_stay_writable_and_built_arrays_are_read_only():
    """No call writes to or freezes the array it is handed, and what
    gauss_sequence, dft_sequence, exhaustive_biunimodular and the diagonal
    builders return is read-only."""
    calls = {
        "is_biunimodular": is_biunimodular,
        "dft_sequence": dft_sequence,
        "autocorrelation": lambda c: autocorrelation(c, 2),
        "canonical_form": canonical_form,
        "group_orbits": lambda c: group_orbits([c]),
        "DiagonalUnitary": lambda e: DiagonalUnitary(5, e),
    }
    rng = np.random.default_rng(23)
    for name, call in calls.items():
        c = np.arange(5, dtype=np.int64) if name == "DiagonalUnitary" else random_unimodular(5, rng)
        before = c.tobytes()
        call(c)
        assert c.flags.writeable and c.tobytes() == before, name
        c[0] = 1  # raises ValueError on a frozen array
    e = np.arange(5, dtype=np.int64)
    diagonal = DiagonalUnitary(5, e)
    e[0] = 3
    assert diagonal.exponents[0] == 0
    built = {
        "gauss_sequence": gauss_sequence(5, 1),
        "dft_sequence": dft_sequence([1.0, 1j, -1.0]),
        "DiagonalUnitary": diagonal.exponents,
        "build_clock": build_clock(5).exponents,
        "build_triangular_diagonal": build_triangular_diagonal(5).exponents,
        "build_square_diagonal": build_square_diagonal(4).exponents,
    }
    built.update((f"exhaustive_biunimodular[{i}]", hit) for i, hit in enumerate(exhaustive_biunimodular(3, 3)))
    for name, array in built.items():
        assert isinstance(array, np.ndarray) and not array.flags.writeable, name


@pytest.mark.parametrize("d", [1, 2, 3, 5, 12])
def test_dft_matches_definition(d):
    rng = np.random.default_rng(d)
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    assert np.abs(dft_sequence(c) - dft_oracle(c)).max() < 1e-12


def test_dft_preserves_norm():
    rng = np.random.default_rng(8)
    c = rng.normal(size=10) + 1j * rng.normal(size=10)
    assert np.linalg.norm(dft_sequence(c)) == pytest.approx(np.linalg.norm(c))


def test_dft_twice_reverses_indices():
    rng = np.random.default_rng(2)
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    twice = dft_sequence(dft_sequence(c))
    reversed_c = np.concatenate(([c[0]], c[1:][::-1]))
    assert np.abs(twice - reversed_c).max() < 1e-12


def test_autocorrelation_matches_definition():
    rng = np.random.default_rng(17)
    d = 9
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    for j in range(d):
        direct = sum(c[k].conjugate() * c[(j + k) % d] for k in range(d))
        assert abs(autocorrelation(c, j) - direct) < 1e-12


def test_autocorrelation_parseval_route():
    # sum_l |hat(c)[l]|^2 exp(-2 i pi j l / d) recovers the autocorrelation
    rng = np.random.default_rng(29)
    d = 8
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    hat = dft_oracle(c)
    for j in range(d):
        spectral = sum(
            abs(hat[l]) ** 2 * cmath.exp(-2j * cmath.pi * j * l / d) for l in range(d)
        )
        assert abs(autocorrelation(c, j) - spectral) < 1e-10


def test_biunimodular_vanishing_autocorrelation():
    # off-peak autocorrelations of a bi-unimodular sequence vanish
    g = gauss_sequence(7, 1)
    assert abs(autocorrelation(g, 0) - 7.0) < 1e-12
    for j in range(1, 7):
        assert abs(autocorrelation(g, j)) < 1e-12


def test_gauss_sequence_values():
    d, k = 5, 2
    g = gauss_sequence(d, k)
    expected = [cmath.exp(1j * cmath.pi * k * j * (j + 1) / d) for j in range(d)]
    assert np.abs(g - np.array(expected)).max() < 1e-14
    with pytest.raises(ValueError):
        gauss_sequence(4, 1)
    with pytest.raises(ValueError):
        gauss_sequence(1, 1)


@pytest.mark.parametrize("d", [3, 5, 7, 9, 15, 21])
def test_gauss_sequence_biunimodular_iff_coprime(d):
    for k in range(1, d):
        report = is_biunimodular(gauss_sequence(d, k))
        assert report.passed == (math.gcd(k, d) == 1), (d, k, report.deviation)


def test_biunimodular_report_fields():
    report = is_biunimodular(gauss_sequence(9, 3))
    assert not report.passed
    assert report.time_deviation < 1e-12  # the sequence itself is unimodular
    assert report.freq_deviation > 0.1
    assert report.deviation == report.freq_deviation
    assert report.freq_moduli.shape == (9,)
    # tol=None is default_tolerance(d): 3e-9 at d = 9 admits moduli off by 1.5e-9
    near = gauss_sequence(9, 1) * (1 + 1.5e-9)
    default, scaled = is_biunimodular(near), is_biunimodular(near, default_tolerance(9))
    assert (default.passed, default.deviation) == (scaled.passed, scaled.deviation)
    assert default.passed and not is_biunimodular(near, 1e-9).passed


def test_constant_sequence_fails_on_frequency_side():
    report = is_biunimodular(np.ones(4))
    assert not report.passed
    assert report.time_deviation == 0.0
    # DFT concentrates everything in one bin: moduli (2, 0, 0, 0)
    assert report.freq_moduli[0] == pytest.approx(2.0)
    assert np.abs(report.freq_moduli[1:]).max() < 1e-12


def test_exhaustive_search_dimension_two():
    hits = exhaustive_biunimodular(2, 4)
    assert len(hits) == 8
    tuples = {tuple(np.round(h, 9)) for h in hits}
    assert (1 + 0j, 1j) in tuples
    assert (1 + 0j, -1j) in tuples
    for h in hits:
        assert is_biunimodular(h).passed


def test_exhaustive_search_dimension_three():
    hits = exhaustive_biunimodular(3, 3)
    assert len(hits) == 18
    forms = {canonical_form(h) for h in hits}
    assert canonical_form(gauss_sequence(3, 1)) in forms
    assert canonical_form(gauss_sequence(3, 2)) in forms


def test_exhaustive_search_bounds():
    with pytest.raises(ValueError):
        exhaustive_biunimodular(7, 2)
    with pytest.raises(ValueError):
        exhaustive_biunimodular(2, 13)


@pytest.mark.parametrize("d", range(1, 7))
def test_exhaustive_search_matches_full_enumeration(d):
    # testing only c[0] = 1 and expanding each hit by the m phases must
    # return the full enumeration's hits, in its order, bit for bit
    bases = (1e-9, 1e-6, 1e-3)
    for m in range(1, 13 if d <= 5 else 9):
        tols = [default_tolerance(d, base) for base in bases]
        oracle = exhaustive_oracle(d, m, tols)
        # tol=None is default_tolerance(d), the first of tols
        for tol, expected in zip([None, *tols], [oracle[0], *oracle]):
            hits = exhaustive_biunimodular(d, m, tol)
            assert len(hits) == len(expected), (d, m, tol)
            for hit, row in zip(hits, expected):
                assert hit.tobytes() == row.tobytes(), (d, m, tol)


def test_exhaustive_search_matches_the_gemm_loop_at_d6():
    # the full enumeration above stops at m = 8 for d = 6; the c[0] = 1 GEMM
    # loop covers the larger alphabets, bit for bit, at every base
    d = 6
    for m in range(9, 13):
        tols = [default_tolerance(d, base) for base in (1e-9, 1e-6, 1e-3)]
        for tol, expected in zip(tols, gemm_oracle(d, m, tols)):
            hits = exhaustive_biunimodular(d, m, tol)
            assert len(hits) == len(expected), (m, tol)
            for hit, row in zip(hits, expected):
                assert hit.tobytes() == row.tobytes(), (m, tol)


def test_exhaustive_search_temporaries_stay_under_4_mb():
    # the docstring's bound at the largest search, d = 6 and m = 12
    tracemalloc.start()
    try:
        exhaustive_biunimodular(6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        exhaustive_biunimodular(2, 4, tol)
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        is_biunimodular(gauss_sequence(3, 1), tol)


def test_canonical_form_decides_shift_phase_equivalence():
    """canonical_form is the package's one shift-and-phase test: two sequences
    are equivalent exactly when their canonical forms are equal."""
    key = canonical_form(np.array([1.0, 1j]))
    assert canonical_form(np.array([1j, 1.0])) == key
    assert canonical_form(np.array([1.0, -1j])) == key  # -i times the swap
    assert canonical_form(cmath.exp(0.3j) * np.array([1.0, 1j])) == key
    assert canonical_form(np.array([1.0, 1.0])) != key
    assert canonical_form(np.array([1.0, 1j, 1.0])) != key


def test_canonical_form_collapses_orbit():
    rng = np.random.default_rng(31)
    c = random_unimodular(6, rng)
    base = canonical_form(c)
    for shift in range(6):
        moved = np.roll(c, shift) * cmath.exp(2j * cmath.pi * rng.random())
        assert canonical_form(moved) == base
    assert canonical_form(random_unimodular(6, rng)) != base


def test_canonical_form_separates_gauss_orbits():
    assert canonical_form(gauss_sequence(5, 1)) != canonical_form(gauss_sequence(5, 2))


def test_canonical_form_matches_the_per_shift_loop():
    # every search hit for d <= 6, m <= 12, plus random unimodular sequences
    cases = []
    for d in range(1, 7):
        for m in range(1, 13):
            cases += exhaustive_biunimodular(d, m)
    rng = np.random.default_rng(47)
    for d in range(1, 9):
        cases += [random_unimodular(d, rng) for _ in range(40)]
    for values in cases:
        assert key_bits(canonical_form(values)) == key_bits(canonical_oracle(values))
