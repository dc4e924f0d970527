"""Acceptance suite: the contract the package promises, checked end to end.

Each test prints one CRITERION line (run with -s to see them all) and fails
loudly if the promise is broken.  Tolerances: matrix identities allow
1e-9 * sqrt(d) absolute entrywise error, scalar sum identities 1e-9 or
tighter as stated, and the dimension-two family is held to 1e-12.
"""

import cmath
import math
import time

import numpy as np

from circulant_mub import (
    adjoint,
    autocorrelation,
    build_family,
    build_fourier,
    build_phased_fourier,
    build_rotation,
    build_shift,
    build_triangular_diagonal,
    build_clock,
    canonical_form,
    circulant_multiply,
    circulant_power,
    dft_sequence,
    exhaustive_biunimodular,
    gauss_identity_sweep,
    gauss_sequence,
    gauss_sum_direct,
    gauss_sum_reciprocity,
    GaussSumSpec,
    is_prime,
    is_unitary_hadamard,
    multiply,
    negative_check_even,
    rotation_scalar,
    verify_even_gauss,
    verify_family,
)
from circulant_mub.linalg import as_matrix

PRIMES_TO_97 = [p for p in range(2, 98) if is_prime(p)]


def _report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_prime_families():
    worst = 0.0
    ok = True
    for p in PRIMES_TO_97:
        family = build_family(p)
        if len(family.bases) != p + 1:
            ok = False
            break
        report = verify_family(family, tol=1e-9 * math.sqrt(p))
        worst = max(worst, report.worst)
        ok = ok and report.passed
    _report(
        1,
        "prime-families",
        ok,
        f"{len(PRIMES_TO_97)} primes up to 97, d+1 bases each, worst deviation {worst:.3e}",
    )


def test_criterion_02_dimension_two_exact():
    family = build_family(2)
    bases = dict(family.bases)
    rt2 = math.sqrt(2)
    targets = {
        "I": np.eye(2),
        "F": np.array([[1, 1], [1, -1]]) / rt2,
        "Y": np.array([[1, 1j], [1j, 1]]) / rt2,
    }
    worst = max(
        np.abs(as_matrix(bases[label]) - target).max() for label, target in targets.items()
    )
    # the one cross product that is not itself a basis member, with its
    # global phase exp(i*pi/4) pinned down
    product = multiply(adjoint(bases["F"]), bases["Y"]).entries
    expected = cmath.exp(0.25j * cmath.pi) / rt2 * np.array([[1, 1], [-1j, 1j]])
    worst = max(worst, np.abs(product - expected).max())
    _report(2, "dimension-two-exact", worst <= 1e-12, f"worst entry error {worst:.3e}")


def test_criterion_03_odd_gauss_identity():
    worst = 0.0
    cases = 0
    for d in range(3, 100, 2):
        for l in range(1, d):
            if math.gcd(l, d) != 1:
                continue
            worst = max(worst, float(gauss_identity_sweep(d, l).max()))
            cases += 1
    _report(
        3,
        "odd-gauss-identity",
        worst <= 1e-9,
        f"{cases} (d, l) sweeps over odd d in 3..99, worst deviation {worst:.3e}",
    )


def test_criterion_04_even_dimensions():
    worst_sum = 0.0
    worst_pair = 0.0
    ok = True
    for d in range(2, 101, 2):
        worst_sum = max(worst_sum, verify_even_gauss(d))
        # the three-member family I, F, R exists in every even dimension
        tol = 1e-9 * math.sqrt(d)
        members = [np.eye(d), build_fourier(d).entries, build_rotation(d).to_dense()]
        for i in range(3):
            for j in range(i + 1, 3):
                check = is_unitary_hadamard(members[i].conj().T @ members[j], tol)
                worst_pair = max(worst_pair, check.deviation)
                ok = ok and check.passed
        if d >= 4:
            ok = ok and negative_check_even(d).passed
    ok = ok and worst_sum <= 1e-9
    _report(
        4,
        "even-dimension-family-and-sums",
        ok,
        f"even d in 2..100: sum deviation {worst_sum:.3e}, pair deviation {worst_pair:.3e}, "
        "rotation-square defect detected for every d >= 4",
    )


def test_criterion_05_odd_composite_coprimality():
    ok = True
    detail_parts = []
    for d in (9, 15, 21, 25, 27, 33):
        family = build_family(d)
        report = verify_family(family)
        ok = ok and report.passed
        rotation = build_rotation(d)
        mismatches = []
        for k in range(1, d):
            verdict = is_unitary_hadamard(circulant_power(rotation, k).to_dense()).passed
            if verdict != (math.gcd(k, d) == 1):
                mismatches.append(k)
        ok = ok and not mismatches
        detail_parts.append(f"d={d}:{len(family.bases)} bases")
    _report(
        5,
        "odd-composite-coprimality",
        ok,
        "power k Hadamard iff gcd(k, d)=1 for " + ", ".join(detail_parts),
    )


def test_criterion_06_structural_identities():
    worst = 0.0
    for d in [p for p in PRIMES_TO_97 if p % 2 and p <= 31]:
        tol = 1e-9 * math.sqrt(d)
        omega = cmath.exp(2j * cmath.pi / d)
        alpha = rotation_scalar(d)
        f = build_fourier(d).entries
        u = build_clock(d).to_dense()
        v = build_shift(d).to_dense()
        r = build_rotation(d).to_dense()
        diag = build_triangular_diagonal(d).to_dense()
        eye = np.eye(d)
        f2 = f @ f

        devs = [
            np.abs(v @ u - omega * (u @ v)).max(),
            np.abs(f.conj().T @ v @ f - u).max(),
            np.abs(f2 @ f2 - eye).max(),
            np.abs(r - alpha * (f @ diag @ f.conj().T)).max(),
            np.abs(r @ u @ r.conj().T - v @ u).max(),
            np.abs(np.linalg.matrix_power(r, d) - alpha**d * eye).max(),
        ]
        for k in range(1, d):
            r_k = np.linalg.matrix_power(r, k)
            r_minus_k = np.linalg.matrix_power(r.conj().T, k)
            devs.append(np.abs(r_k @ u @ r_minus_k - np.linalg.matrix_power(v, k) @ u).max())
            devs.append(
                np.abs(
                    build_phased_fourier(d, k).entries
                    - alpha**k * (f.conj().T @ r_minus_k @ f2)
                ).max()
            )
        worst = max(worst, max(devs))
        assert max(devs) <= tol, (d, max(devs))
    _report(
        6,
        "structural-identities",
        True,
        f"odd primes up to 31, every power exponent, worst deviation {worst:.3e}",
    )


def test_criterion_07_autocorrelation_spectrum():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for d in range(2, 33):
        j = np.arange(d)
        spectral_kernel = np.exp(-2j * np.pi * np.outer(j, j) / d)
        for _ in range(200):
            c = rng.normal(size=d) + 1j * rng.normal(size=d)
            lhs = np.array([autocorrelation(c, shift) for shift in range(d)])
            rhs = spectral_kernel @ (np.abs(dft_sequence(c)) ** 2)
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
            worst = max(worst, float((np.abs(lhs - rhs) / scale).max()))
    _report(
        7,
        "autocorrelation-spectrum",
        worst <= 1e-10,
        f"200 random sequences per dimension 2..32, worst relative error {worst:.3e}",
    )


def test_criterion_08_reciprocity_agreement():
    worst = 0.0
    cases = 0
    for a in range(1, 21):
        for d in range(1, 51):
            for b in range(-2 * d, 2 * d + 1):
                if (a * d + b) % 2:
                    continue
                spec = GaussSumSpec(a, b, d)
                dev = abs(gauss_sum_reciprocity(spec) - gauss_sum_direct(spec))
                worst = max(worst, dev)
                cases += 1
    _report(
        8,
        "reciprocity-agreement",
        worst <= 1e-10,
        f"{cases} parameter triples with 1<=a<=20, 1<=d<=50, |b|<=2d, worst {worst:.3e}",
    )


def test_criterion_09_exhaustive_search_content():
    hits3 = exhaustive_biunimodular(3, 3)
    forms3 = {canonical_form(h) for h in hits3}
    found_gauss = all(canonical_form(gauss_sequence(3, k)) in forms3 for k in (1, 2))

    hits2 = exhaustive_biunimodular(2, 4)
    plus = np.array([1.0, 1j])
    minus = np.array([1.0, -1j])
    forms2 = {canonical_form(h) for h in hits2}
    found_pair = canonical_form(plus) in forms2 and canonical_form(minus) in forms2
    ok = found_gauss and found_pair
    _report(
        9,
        "exhaustive-search-content",
        ok,
        f"{len(hits3)} cubic-alphabet hits cover both Gauss orbits; "
        f"{len(hits2)} quartic-alphabet hits cover (1, i) and (1, -i)",
    )


def test_criterion_10_circulant_fast_path():
    d = 512
    rotation = build_rotation(d)
    dense = rotation.to_dense()

    def best_of(fn, repeats):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    dense_time = best_of(lambda: dense @ dense, 5)
    fast_time = best_of(lambda: circulant_multiply(rotation, rotation), 50)
    product = circulant_multiply(rotation, rotation).to_dense()
    agreement = np.abs(product - dense @ dense).max()
    factor = dense_time / fast_time
    ok = factor >= 2.0 and agreement < 1e-9
    _report(
        10,
        "circulant-fast-path",
        ok,
        f"d={d}: column route {factor:.0f}x faster than dense ({fast_time*1e6:.0f}us vs "
        f"{dense_time*1e3:.2f}ms), products agree to {agreement:.3e}",
    )
