import math

import numpy as np
import pytest

from circulant_mub import (
    MubFamily,
    Recipe,
    build_family,
    build_fourier,
    negative_check_even,
    verify_family,
)
from circulant_mub.mub import _identity


def test_recipe_labels_are_stable():
    # these strings appear verbatim in emitted reports
    assert Recipe.PRIME.value == "Prime"
    assert Recipe.D_TWO.value == "DTwo"
    assert Recipe.ODD_COMPOSITE.value == "OddComposite"
    assert Recipe.EVEN.value == "Even"


def test_family_dimension_two():
    family = build_family(2)
    assert family.recipe is Recipe.D_TWO
    assert family.labels() == ("I", "F", "Y")
    y = dict(family.bases)["Y"].entries
    expected = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2)
    assert np.array_equal(y, expected)
    report = verify_family(family, tol=1e-12)
    assert report.passed
    assert report.worst < 1e-15


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_family_odd_prime(d):
    family = build_family(d)
    assert family.recipe is Recipe.PRIME
    assert len(family.bases) == d + 1
    assert family.labels()[:3] == ("I", "F", "R")
    assert family.labels()[-1] == f"R^{d - 1}"
    report = verify_family(family)
    assert report.passed
    assert len(report.pairs) == (d + 1) * d // 2
    assert report.worst < 1e-12


@pytest.mark.parametrize("d,size", [(9, 4), (15, 4), (21, 4), (25, 6), (49, 8)])
def test_family_odd_composite(d, size):
    # smallest divisor s gives bases I, F, R, ..., R**(s-1)
    family = build_family(d)
    assert family.recipe is Recipe.ODD_COMPOSITE
    assert len(family.bases) == size
    report = verify_family(family)
    assert report.passed, report.worst


@pytest.mark.parametrize("d", [4, 6, 8, 10, 12])
def test_family_even(d):
    family = build_family(d)
    assert family.recipe is Recipe.EVEN
    assert family.labels() == ("I", "F", "R")
    report = verify_family(family)
    assert report.passed, report.worst


def test_family_validation():
    with pytest.raises(ValueError):
        build_family(1)
    with pytest.raises(ValueError):
        build_family(0)
    # an impossible tolerance trips the construction-time unitarity gate
    with pytest.raises(RuntimeError):
        build_family(3, tol=1e-30)


def test_pairwise_moduli_direct_oracle():
    # check the defining property by hand for one pair: every scalar
    # product between basis vectors of F and R has modulus d**-0.5
    family = build_family(5)
    bases = dict(family.bases)
    f, r = bases["F"].entries, bases["R"].entries
    for i in range(5):
        for j in range(5):
            inner = np.vdot(f[:, i], r[:, j])
            assert abs(abs(inner) - 5**-0.5) < 1e-14


def test_verifier_flags_biased_pair():
    d = 4
    duplicated = MubFamily(
        dimension=d,
        bases=(("I", _identity(d)), ("J", _identity(d))),
        recipe=Recipe.EVEN,
    )
    report = verify_family(duplicated)
    assert not report.passed
    assert report.pairs[0].deviation == pytest.approx(1 - 0.5)
    with pytest.raises(ValueError):
        verify_family(duplicated, tol=-1.0)


@pytest.mark.parametrize("d", [4, 6, 8, 10, 14, 16])
def test_even_rotation_square_defect(d):
    check = negative_check_even(d)
    assert check.passed  # passed means the defect is present as expected
    assert check.unitary.passed
    assert check.circulant_dev < 1e-12
    assert not check.hadamard.passed
    # half the entries vanish, the rest carry modulus sqrt(2/d)
    assert check.modulus_min == pytest.approx(0.0, abs=1e-12)
    assert check.modulus_max == pytest.approx(math.sqrt(2 / d), abs=1e-12)


def test_even_rotation_square_validation():
    with pytest.raises(ValueError):
        negative_check_even(2)
    with pytest.raises(ValueError):
        negative_check_even(5)


def test_fourier_unbiased_against_identity():
    # the (I, F) pair is the classic position/momentum example
    report = verify_family(build_family(7))
    first = report.pairs[0]
    assert {first.label_a, first.label_b} == {"I", "F"}
    product = build_fourier(7).entries
    assert np.abs(np.abs(product) - 7**-0.5).max() < 1e-14
