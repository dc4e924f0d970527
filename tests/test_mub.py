import math

import numpy as np
import pytest

from circulant_mub import (
    CirculantMatrix,
    DenseUnitary,
    MubFamily,
    Recipe,
    adjoint,
    build_family,
    build_fourier,
    build_rotation,
    circulant_deviation,
    circulant_multiply,
    circulant_power,
    default_tolerance,
    diagonalize_circulant,
    is_prime,
    is_unitary,
    is_unitary_hadamard,
    multiply,
    negative_check_even,
    smallest_nontrivial_divisor,
    verify_family,
)
from circulant_mub import mub
from circulant_mub.linalg import (
    FourierMatrix,
    _modulus_deviation,
    as_matrix,
    build_clock,
    build_index_reversal,
    build_phased_fourier,
    build_shift,
    build_triangular_diagonal,
    power,
    rotation_scalar,
)
from circulant_mub.mub import coprime_power_mismatches, structural_identities


def test_recipe_labels_are_stable():
    # these strings appear verbatim in emitted reports
    assert Recipe.PRIME.value == "Prime"
    assert Recipe.D_TWO.value == "DTwo"
    assert Recipe.ODD_COMPOSITE.value == "OddComposite"
    assert Recipe.EVEN.value == "Even"


def test_family_dimension_two():
    family = build_family(2)
    assert family.recipe is Recipe.D_TWO
    assert tuple(label for label, _ in family.bases) == ("I", "F", "Y")
    y = as_matrix(dict(family.bases)["Y"])
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
    labels = tuple(label for label, _ in family.bases)
    assert labels[:3] == ("I", "F", "R")
    assert labels[-1] == f"R^{d - 1}"
    report = verify_family(family)
    assert report.passed
    assert len(report.pairs) == len(report.deviations) == (d + 1) * d // 2
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
    assert tuple(label for label, _ in family.bases) == ("I", "F", "R")
    report = verify_family(family)
    assert report.passed, report.worst


def test_family_validation():
    with pytest.raises(ValueError):
        build_family(1)
    with pytest.raises(ValueError):
        build_family(0)


def test_pairwise_moduli_direct_oracle():
    # check the defining property by hand for one pair: every scalar
    # product between basis vectors of F and R has modulus d**-0.5
    family = build_family(5)
    bases = dict(family.bases)
    f, r = as_matrix(bases["F"]), as_matrix(bases["R"])
    for i in range(5):
        for j in range(5):
            inner = np.vdot(f[:, i], r[:, j])
            assert abs(abs(inner) - 5**-0.5) < 1e-14


def test_verifier_flags_biased_pair():
    d = 4
    identity = DenseUnitary(d, np.eye(d, dtype=np.complex128))
    duplicated = MubFamily(
        dimension=d,
        bases=(("I", identity), ("J", identity)),
        recipe=Recipe.EVEN,
    )
    report = verify_family(duplicated)
    assert not report.passed
    assert report.pairs == (("I", "J"),)
    assert report.deviations[0] == pytest.approx(1 - 0.5)
    # a family of one basis has no pair: nothing to fail, and a worst of 0
    single = verify_family(MubFamily(3, build_family(3).bases[:1], Recipe.PRIME))
    assert single.passed and single.pairs == () and single.deviations.shape == (0,)
    assert single.worst == 0.0
    with pytest.raises(ValueError):
        verify_family(duplicated, tol=-1.0)
    # tol=None is default_tolerance(d): 2e-9 at d = 4 admits an F off unitarity by 1.5e-9
    skew = math.sqrt(1 + 1.5e-9)
    bases = [(label, DenseUnitary(d, b.entries * skew) if label == "F" else b) for label, b in build_family(d).bases]
    near = MubFamily(d, tuple(bases), Recipe.EVEN)
    default, explicit = verify_family(near), verify_family(near, default_tolerance(d))
    assert default.pairs == explicit.pairs and np.array_equal(default.deviations, explicit.deviations)
    assert default.passed and explicit.passed and not verify_family(near, 1e-9).passed


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        verify_family(build_family(3), tol=tol)
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        negative_check_even(4, tol=tol)


@pytest.mark.parametrize("d", [4, 6, 8, 10, 14, 16])
def test_even_rotation_square_defect(d):
    # the probe reads R**2 from its spectrum; the oracle squares R densely
    dense = build_rotation(d).to_dense()
    square = dense @ dense
    assert is_unitary(square).passed
    assert circulant_deviation(square) < 1e-12
    # half the entries vanish, the rest carry modulus sqrt(2/d)
    moduli = np.sort(np.abs(square).ravel())
    half = moduli.size // 2
    assert moduli[:half].max() < 1e-12
    assert np.abs(moduli[half:] - math.sqrt(2 / d)).max() < 1e-12
    check = negative_check_even(d)
    assert negative_check_even(d, default_tolerance(d)) == check  # tol=None is default_tolerance(d)
    assert check.passed  # passed means the defect is present as expected
    assert abs(check.deviation - is_unitary_hadamard(square).deviation) <= 1e-14


def test_even_rotation_square_validation():
    with pytest.raises(ValueError):
        negative_check_even(2)
    with pytest.raises(ValueError):
        negative_check_even(5)


def test_fourier_unbiased_against_identity():
    # the (I, F) pair is the classic position/momentum example
    report = verify_family(build_family(7))
    assert report.pairs[0] == ("I", "F")
    product = build_fourier(7).entries
    assert np.abs(np.abs(product) - 7**-0.5).max() < 1e-14


def _dense_oracle(family, tol):
    """The dense pair loop: A* B formed as a matrix product and checked by
    is_unitary_hadamard, for every unordered pair in family order."""
    pairs = []
    for i, (label_a, a) in enumerate(family.bases):
        a_adj = adjoint(a)
        for label_b, b in family.bases[i + 1 :]:
            check = is_unitary_hadamard(multiply(a_adj, b), tol)
            pairs.append((label_a, label_b, check.passed, check.deviation))
    return pairs


def _assert_matches_oracle(family):
    tol = default_tolerance(family.dimension)
    report = verify_family(family, tol)
    oracle = _dense_oracle(family, tol)
    bases = dict(family.bases)
    verdicts = (report.deviations <= tol).tolist()
    assert [(*pair, ok) for pair, ok in zip(report.pairs, verdicts)] == [o[:3] for o in oracle]
    assert report.passed == all(o[2] for o in oracle)
    # two circulants, or build_fourier's F and a circulant, are read from
    # spectra, within rounding of the dense product; a pair with any other
    # dense member is the oracle's own computation
    for pair, value, (*_, deviation) in zip(report.pairs, report.deviations.tolist(), oracle):
        members = bases[pair[0]], bases[pair[1]]
        circulants = sum(isinstance(m, CirculantMatrix) for m in members)
        if circulants == 2 or (circulants == 1 and any(isinstance(m, FourierMatrix) for m in members)):
            assert abs(value - deviation) <= 1e-14, (pair, value, deviation)
        else:
            assert value == deviation, (pair, value, deviation)
    return report


@pytest.mark.parametrize("d", [*range(2, 32), 49])
def test_structured_verifier_matches_dense_oracle(d):
    _assert_matches_oracle(build_family(d))


def test_structured_verifier_matches_dense_oracle_on_biased_families(monkeypatch):
    r7 = build_rotation(7)
    r7_dense = DenseUnitary(7, as_matrix(r7))
    i9 = dict(build_family(9).bases)["I"]
    r9_cube = circulant_power(build_rotation(9), 3)
    rng = np.random.default_rng(0)
    gaussian = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    twice_r7 = CirculantMatrix(7, 2 * r7.first_column)
    # R's spectrum scaled unevenly, so that |s|**2 - 1 is O(1) and not constant:
    # the bound w_a w_b on the cross term of A* B's Gram is far above its true size
    frequencies = 2 * np.pi * np.arange(7) / 7
    skew_a = CirculantMatrix(7, np.fft.ifft(diagonalize_circulant(r7) * (1 + 0.5 * np.cos(frequencies))))
    skew_b = CirculantMatrix(7, np.fft.ifft(diagonalize_circulant(r7) * (1 - 0.3 * np.sin(2 * frequencies))))
    skewed = MubFamily(7, (("I", dict(build_family(7).bases)["I"]), ("A", skew_a), ("B", skew_b)), Recipe.ODD_COMPOSITE)
    families = [
        # two copies of one circulant: R* R = I, as far from Hadamard as it gets
        (7, (("R", r7), ("R'", r7))),
        # gcd(3, 9) = 3, so R**3 is unitary but not Hadamard
        (9, (("I", i9), ("R^3", r9_cube))),
        # a dense member equal to a circulant one, on either side of it
        (7, (("R", r7), ("D", r7_dense), ("F", build_fourier(7)), ("R'", r7))),
        # members that are not even unitary, so that A A* is no identity
        (7, (("R", r7), ("G", DenseUnitary(7, gaussian)), ("2R", twice_r7), ("F", build_fourier(7)))),
    ]
    reports = [_assert_matches_oracle(MubFamily(d, bases, Recipe.ODD_COMPOSITE)) for d, bases in families]
    reports.append(_assert_matches_oracle(skewed))
    assert not any(report.passed for report in reports)
    assert reports[0].deviations[0] == pytest.approx(1 - 7**-0.5)
    # A|B transforms its cross term; the bound alone is an upper bound that
    # misses the dense oracle
    assert reports[-1].pairs[2] == ("A", "B")
    monkeypatch.setattr(mub, "_CROSS_TERM_LIMIT", math.inf)
    bounded = verify_family(skewed).deviations[2]
    assert bounded - reports[-1].deviations[2] > 1e-14
    assert bounded >= _dense_oracle(skewed, default_tolerance(7))[2][3]


def test_power_members_match_the_circulant_multiply_chain():
    # R is build_rotation's, bit for bit; each later R**k is within the
    # tolerance of k - 1 circulant products, the chain the members replaced
    for d in range(3, 100, 2):
        bases, rotation = dict(build_family(d).bases), build_rotation(d)
        assert np.array_equal(bases["R"].first_column, rotation.first_column), d
        chain, tol = rotation, default_tolerance(d)
        for k in range(2, smallest_nontrivial_divisor(d)):
            chain = circulant_multiply(chain, rotation)
            assert np.abs(bases[f"R^{k}"].first_column - chain.first_column).max() <= tol, (d, k)


def test_family_members_keep_their_structure():
    for d in (2, 3, 4, 9):
        bases = dict(build_family(d).bases)
        assert isinstance(bases["F"], FourierMatrix)
        assert all(isinstance(b, CirculantMatrix) for label, b in bases.items() if label != "F")
        assert np.array_equal(as_matrix(bases["I"]), np.eye(d))


def test_circulant_pairs_need_no_dense_product(monkeypatch):
    # two circulants, and build_fourier's F with a circulant, are read from
    # spectra; every shipped family is circulants plus that one F
    products = []
    monkeypatch.setattr(mub, "multiply", lambda a, b: products.append("multiply"))
    monkeypatch.setattr(mub, "adjoint", lambda a: products.append("adjoint"))
    for d in range(2, 41):
        assert verify_family(build_family(d)).passed, d
    assert products == []


def test_fourier_held_as_plain_dense_takes_the_dense_product(monkeypatch):
    # the spectral F rule follows build_fourier's type, never the label "F":
    # the same entries as a plain DenseUnitary, or a random G, are multiplied
    d = 13
    calls = []

    def counting(a, b):
        calls.append(b)
        return multiply(a, b)

    monkeypatch.setattr(mub, "multiply", counting)
    family = build_family(d)
    plain = tuple((label, DenseUnitary(d, b.entries) if label == "F" else b) for label, b in family.bases)
    assert verify_family(MubFamily(d, plain, family.recipe)).passed
    assert len(calls) == d  # I|F and F|R^k for k = 1..12
    rng = np.random.default_rng(1)
    gaussian = DenseUnitary(d, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    calls.clear()
    report = verify_family(MubFamily(d, (*family.bases, ("G", gaussian)), family.recipe))
    assert calls == [gaussian] * (d + 1)  # every member against G
    verdicts = list(zip(report.pairs, (report.deviations <= default_tolerance(d)).tolist()))
    assert [ok for (_, label_b), ok in verdicts if label_b == "G"] == [False] * (d + 1)
    assert all(ok for (_, label_b), ok in verdicts if label_b != "G")


def test_prime_family_beyond_the_dense_verifier():
    # the dense pair loop takes seconds here, the structured one a fraction of one
    d = 127
    family = build_family(d)
    report = verify_family(family)
    assert len(report.pairs) == (d + 1) * d // 2
    assert report.passed, report.worst
    assert report.worst < 1e-12


def test_identity_row_measures_each_member_unitary():
    # verify_family's pair I|X is I* X = X, so its deviation covers X's own
    # Gram defect: a circulant's from its spectrum, a dense member's from X* X
    for d in [*range(2, 98), 127]:
        family = build_family(d)
        report = verify_family(family)
        identity_row = {b: dev for (a, b), dev in zip(report.pairs, report.deviations.tolist()) if a == "I"}
        assert list(identity_row) == [label for label, _ in family.bases[1:]]
        for label, member in family.bases[1:]:
            if isinstance(member, CirculantMatrix):
                gram = np.fft.ifft(np.abs(diagonalize_circulant(member)) ** 2)
                gram[0] -= 1.0
                defect = float(np.abs(gram).max())
            else:
                defect = is_unitary(member).deviation
            assert identity_row[label] >= defect - 1e-15, (d, label)


def test_structural_identities_hold_within_the_default_tolerance():
    for d in range(2, 32):
        found = structural_identities(d)
        expected = [
            ("clock-shift-commutation", {"d": d}),
            ("fourier-diagonalizes-shift", {"d": d}),
            ("fourier-square-is-reversal", {"d": d}),
            ("fourier-order-four", {"d": d}),
        ]
        if d % 2 and is_prime(d):
            expected += [(name, {"d": d}) for name in ("rotation-diagonalization", "rotation-clock-conjugation")]
            expected.append(("rotation-order", {"d": d}))
            for k in sorted({1, 2, d - 2, d - 1}):
                expected += [("rotation-power-clock", {"d": d, "k": k}), ("phased-fourier-identity", {"d": d, "k": k})]
        assert [(check, case) for check, case, _ in found] == expected
        assert all(deviation <= default_tolerance(d) for _, _, deviation in found), (d, found)


def square_and_multiply_rows(d):
    """structural_identities(d) as each power was once computed, from scratch
    by linalg.power's square-and-multiply: R**d, and R**k, V**k and (R*)**k
    for k in {1, 2, d-2, d-1}; an odd prime d only."""
    omega = np.exp(2j * np.pi / d)
    fourier = build_fourier(d)
    fourier_adj = adjoint(fourier)
    clock, shift = build_clock(d).to_dense(), build_shift(d).to_dense()
    f2 = multiply(fourier, fourier).entries
    alpha = rotation_scalar(d)
    rotation = build_rotation(d).to_dense()
    diag = build_triangular_diagonal(d)
    rows = [
        ("clock-shift-commutation", {}, shift @ clock, omega * (clock @ shift)),
        ("fourier-diagonalizes-shift", {}, multiply(multiply(fourier_adj, shift), fourier).entries, clock),
        ("fourier-square-is-reversal", {}, f2, build_index_reversal(d).entries),
        ("fourier-order-four", {}, f2 @ f2, np.eye(d)),
        ("rotation-diagonalization", {}, rotation, alpha * multiply(multiply(fourier, diag), fourier_adj).entries),
        ("rotation-clock-conjugation", {}, rotation @ clock @ rotation.conj().T, shift @ clock),
        ("rotation-order", {}, power(rotation, d).entries, alpha**d * np.eye(d)),
    ]
    for k in sorted({1, 2, d - 2, d - 1}):
        r_k = power(rotation, k).entries
        rows.append(("rotation-power-clock", {"k": k}, r_k @ clock @ r_k.conj().T, power(shift, k).entries @ clock))
        rhs = alpha**k * (fourier_adj.entries @ power(rotation.conj().T, k).entries @ f2)
        rows.append(("phased-fourier-identity", {"k": k}, build_phased_fourier(d, k).entries, rhs))
    return [(check, {"d": d, **case}, float(np.abs(lhs - rhs).max())) for check, case, lhs, rhs in rows]


@pytest.mark.parametrize("d", [d for d in range(3, 98, 2) if is_prime(d)])
def test_identity_power_chain_matches_square_and_multiply(d):
    found, oracle = structural_identities(d), square_and_multiply_rows(d)
    assert [(check, case) for check, case, _ in found] == [(check, case) for check, case, _ in oracle]
    for (check, case, deviation), (*_, expected) in zip(found, oracle):
        assert abs(deviation - expected) <= 1e-15, (check, case, deviation, expected)


def power_hadamard_deviations(d):
    """The per-power loop coprime_power_mismatches replaced: each R**k built
    as a circulant power and measured from its own first column and
    spectrum, for k = 1..d-1, by is_unitary_hadamard's deviation as the
    former linalg helper wrote it: R**k* R**k is the circulant of spectrum
    |s|**2, whose first column minus e_0 holds every entry of its Gram - I."""
    rotation = build_rotation(d)
    deviations = []
    for k in range(1, d):
        r_k = circulant_power(rotation, k)
        gram = np.fft.ifft(np.abs(diagonalize_circulant(r_k)) ** 2)
        gram[0] -= 1.0
        deviations.append(float(np.maximum(np.abs(gram).max(), _modulus_deviation(np.abs(r_k.first_column)))))
    return deviations


def test_coprime_power_mismatches_match_the_per_power_loop():
    for d in [d for d in range(9, 400, 2) if not is_prime(d)]:
        deviations = power_hadamard_deviations(d)
        for base in (1e-9, 1e-6, 1e-14):
            tol = default_tolerance(d, base)
            wrong = [k for k, dev in enumerate(deviations, 1) if (dev <= tol) != (math.gcd(k, d) == 1)]
            assert coprime_power_mismatches(d, tol) == wrong, (d, base)
    # below the rounding of the powers the rule fails, and the list says where
    assert coprime_power_mismatches(81, default_tolerance(81, 1e-16)) != []


def test_coprime_power_rule_holds_for_even_dimensions():
    # k = 2 is never coprime with an even d, so the rule contains the
    # rotation-square probe
    for d in range(4, 129, 2):
        assert coprime_power_mismatches(d, default_tolerance(d)) == [], d


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_member_fails_every_pair_it_is_in(bad):
    # one family holds every pair kind: C|C, C|F, F|C and dense; Python's
    # max(x, nan) is x, so a rule that took it would pass a NaN member
    d = 7
    r = build_rotation(d)
    spoiled = np.array(r.first_column)
    spoiled[0] = bad
    dense = as_matrix(r).copy()
    dense[3, 2] = bad
    family = MubFamily(
        d,
        (
            ("C", CirculantMatrix(d, spoiled)),
            ("F", build_fourier(d)),
            ("R", r),
            ("C'", circulant_power(CirculantMatrix(d, spoiled), 2)),
            ("D", DenseUnitary(d, dense)),
        ),
        Recipe.PRIME,
    )
    report = verify_family(family)
    assert not report.passed
    for (label_a, label_b), deviation in zip(report.pairs, report.deviations.tolist()):
        if {label_a, label_b} & {"C", "C'", "D"}:
            assert not math.isfinite(deviation), (label_a, label_b, deviation)
            assert not deviation <= default_tolerance(d), (label_a, label_b)
        else:
            assert deviation <= default_tolerance(d), (label_a, label_b)
    assert len(report.pairs) == 10


def test_coprime_power_mismatches_match_the_dense_check():
    # an oracle that shares no FFT path with the rule: each power densified
    # and checked by is_unitary_hadamard itself
    for d in [d for d in range(9, 100, 2) if not is_prime(d)]:
        rotation, tols = build_rotation(d), [default_tolerance(d, base) for base in (1e-9, 1e-6)]
        wrong = [[] for _ in tols]
        for k in range(1, d):
            power_k = circulant_power(rotation, k).to_dense()
            for tol, found in zip(tols, wrong):
                if is_unitary_hadamard(power_k, tol).passed != (math.gcd(k, d) == 1):
                    found.append(k)
        assert [coprime_power_mismatches(d, tol) for tol in tols] == wrong, d
