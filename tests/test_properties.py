"""Property tests: the int64 exponent arithmetic against Python-int formulas,
reciprocity against the direct Gauss sum on random parameters, every Gauss
sum path against a 30-digit mpmath oracle, the matrix <-> sequence
equivalence for rotation powers, the streaming json writer against
json.dump, and the pair-table expansion against the per-pair loop it
replaced."""

import cmath
import io
import json
import math
from fractions import Fraction
from functools import partial
from unittest import mock

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circulant_mub import (
    GaussSumSpec,
    build_rotation,
    circulant_power,
    gauss_sum_direct,
    gauss_sum_reciprocity,
    is_biunimodular,
    is_unitary_hadamard,
    square_phase,
    triangular_phase,
)
from circulant_mub import cli, gauss, mub
from circulant_mub.gauss import _direct, _one_step, _quarter_phase

PROPERTY = settings(deadline=None, derandomize=True, max_examples=100)
HUGE = 10**30


def indices(d):
    # every residue class twice over, negative indices included
    return np.arange(-2 * d, 2 * d, dtype=np.int64)


@PROPERTY
@given(d=st.integers(1, 500), l=st.integers(-HUGE, HUGE))
def test_vectorized_triangular_phase_matches_python_ints(d, l):
    j = indices(d)
    expected = [l * int(x) * (int(x) + 1) % (2 * d) for x in j]
    assert triangular_phase(j, l, d).tolist() == expected


@PROPERTY
@given(half=st.integers(1, 250))
def test_vectorized_square_phase_matches_python_ints(half):
    d = 2 * half
    j = indices(d)
    assert square_phase(j, d).tolist() == [-int(x) * int(x) % (2 * d) for x in j]


@PROPERTY
@given(
    d=st.integers(1, 10**9),
    offset=st.integers(1, 4),
    l=st.integers(-HUGE, HUGE),
)
def test_scalar_phase_near_the_modulus_does_not_overflow(d, offset, l):
    # j close to 2d makes j*(j+1) close to (2d)**2: multiplying by l before
    # reducing would wrap int64 for d near 10**9
    j = 2 * d - offset
    expected = l * j * (j + 1) % (2 * d)
    assert triangular_phase(j, l, d) == expected
    assert triangular_phase(np.array([j], dtype=np.int64), l, d)[0] == expected
    assert triangular_phase(np.int64(j), l, d) == expected


def parity_valid(a, b, d):
    # reciprocity needs a*d + b even
    return a, b + (a * d + b) % 2, d


nonzero = st.integers(1, 300) | st.integers(-300, -1)


@PROPERTY
@given(a=nonzero, b=st.integers(-HUGE, HUGE), d=st.integers(1, 300))
def test_single_step_reciprocity_matches_direct(a, b, d):
    spec = GaussSumSpec(*parity_valid(a, b, d))
    direct = gauss_sum_direct(spec)
    assert abs(gauss_sum_reciprocity(spec) - direct) < 1e-10 * math.sqrt(d)


def mpmath_gauss_sum(a, b, d):
    # 30-digit oracle: each exponent a*j**2 + b*j is reduced mod 2d exactly
    # in Python ints before it becomes a high-precision phase
    with mpmath.workdps(30):
        total = mpmath.fsum(mpmath.expjpi(mpmath.mpf((a * j * j + b * j) % (2 * d)) / d) for j in range(d))
        return complex(total)


@PROPERTY
@given(a=nonzero, b=st.integers(-10**6, 10**6), d=st.integers(1, 300))
def test_gauss_sums_match_a_high_precision_oracle(a, b, d):
    spec = GaussSumSpec(*parity_valid(a, b, d))
    exact = mpmath_gauss_sum(spec.a, spec.b, spec.d)
    bound = 1e-13 * math.sqrt(d)
    assert abs(gauss_sum_direct(spec) - exact) < bound
    assert abs(gauss_sum_reciprocity(spec) - exact) < bound


@PROPERTY
@given(
    a=st.integers(1, HUGE) | st.integers(-HUGE, -1),
    b=st.integers(-HUGE, HUGE),
    d=st.integers(1, HUGE),
)
# np.asarray of an int b in [2**63, 2**64) is a uint64 array, whose square
# wraps; d = 10**9 puts (4ad)**2 past int64, and d = 3 keeps it inside
@example(a=1, b=2**63 + 5, d=10**9)
@example(a=-1, b=2**63 + 5, d=10**9)
@example(a=1, b=2**63 + 5, d=3)
@example(a=1, b=-(2**64) - 7, d=10**9)
def test_quarter_phase_matches_fraction_formula(a, b, d):
    # reference: (|a*d| - b**2) / (4*a*d) reduced mod 2 as an exact rational
    frac = Fraction(abs(a * d) - b * b, 4 * a * d) % 2
    assert _quarter_phase(a, b, d) == cmath.exp(1j * math.pi * float(frac))


INT64 = st.integers(-(2**63), 2**63 - 1)
coefficient = INT64 | st.integers(-HUGE, HUGE)


def as_int64(values, n):
    # a Python int beyond int64 enters a batch reduced mod n, as the CLI does
    return np.array([v if -(2**63) <= v < 2**63 else v % n for v in values], dtype=np.int64)


def assert_rows_match_scalar(a_values, b_values, d):
    m = 2 * d
    rows = _direct(as_int64(a_values, m)[:, None], as_int64(b_values, m), d)
    assert rows.shape == (len(a_values), len(b_values))
    assert rows.tolist() == [[_direct(a, b, d) for b in b_values] for a in a_values]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    d=st.integers(1, 300),
    a_values=st.lists(coefficient, min_size=1, max_size=4),
    b_values=st.lists(coefficient, min_size=1, max_size=8),
)
def test_batched_direct_rows_equal_the_scalar_sum_bit_for_bit(d, a_values, b_values):
    assert_rows_match_scalar(a_values, b_values, d)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    a=st.integers(1, 10**5),
    d=st.integers(1, 10**5),
    b_values=st.lists(coefficient, min_size=1, max_size=8),
)
def test_batched_reciprocity_rows_match_the_scalar_step(a, d, b_values):
    # b mod 4ad fixes b mod 2d, b mod 2a and b**2 mod 8ad; the quarter phases
    # agree bit for bit, the product of the three factors up to its rounding
    b_values = [b - (a * d + b) % 2 for b in b_values]
    b = as_int64(b_values, 4 * a * d)
    assert _quarter_phase(a, b, d).tolist() == [_quarter_phase(a, v, d) for v in b_values]
    if a <= 300:
        scalar = np.array([_one_step(a, v, d) for v in b_values])
        assert np.abs(_one_step(a, b, d) - scalar).max() <= 1e-14 * math.sqrt(d)


def test_batched_direct_rows_across_block_seams(monkeypatch):
    # a block of a few exponents holds at most one or two rows, so every
    # batch below is cut into many blocks
    monkeypatch.setattr(gauss, "_BLOCK", 5)
    for d in (1, 2, 3, 7):
        assert_rows_match_scalar([-(10**25), -3, 0, 1, 2 * d + 1], [-(2**63), -5, 0, 4, 10**30, 2**63 - 1], d)


def test_quarter_phase_rows_beyond_int64_squares():
    # (4ad)**2 exceeds int64 here, so the residues are squared as Python ints
    a, d = 10**6, 10**5
    b_values = [-(10**25), -7, 0, 3, 10**30 + 1]
    b = np.array([v % (4 * a * d) for v in b_values], dtype=np.int64)
    assert _quarter_phase(a, b, d).tolist() == [_quarter_phase(a, v, d) for v in b_values]


@st.composite
def odd_dimension_and_power(draw):
    d = 2 * draw(st.integers(1, 49)) + 1
    return d, draw(st.integers(1, d - 1))


@PROPERTY
@given(odd_dimension_and_power())
def test_rotation_power_is_hadamard_iff_biunimodular_iff_coprime(dk):
    # R**k is a unitary Hadamard matrix exactly when sqrt(d) times its first
    # column is a bi-unimodular sequence, exactly when gcd(k, d) = 1
    d, k = dk
    power = circulant_power(build_rotation(d), k)
    hadamard = is_unitary_hadamard(power.to_dense()).passed
    biunimodular = is_biunimodular(math.sqrt(d) * power.first_column).passed
    assert hadamard == biunimodular == (math.gcd(k, d) == 1)


# floats json spells out (signed zeros, NaN, infinities, subnormals and
# 17-digit values) plus any other double
json_float = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225073858507201e-308, 0.1 + 0.2, 1 / 3, 1e16]
) | st.floats()
json_string = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d11e ab') | st.characters(), max_size=6)
json_scalar = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | json_float | json_string


@st.composite
def complex_matrix(draw):
    # entries drawn from a small pool repeat, from the whole of json_float
    # they are mostly distinct
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.sampled_from([st.sampled_from([0.0, -0.0, 1.0, 0.5]), json_float]))
    values = draw(st.lists(parts, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(values, dtype=np.float64).view(np.complex128).reshape(rows, cols)


# the values a report holds besides its records and family: scalars, flat
# dicts of scalars (config, summary) and matrices
report_value = json_scalar | st.dictionaries(json_string, json_scalar, max_size=3) | complex_matrix()
# a record's case: a flat dict of ints and strs, {} included
record_case = st.dictionaries(json_string, st.integers(-(2**70), 2**70) | json_string, max_size=3)

# values that compare equal but print differently (0.0 / -0.0, 1 / 1.0 /
# True), values equal to nothing (NaN), the infinities and None: the float
# texts _write_json reuses from one record to the next must never cross them
NEIGHBOURS = [0.0, -0.0, 0.0, 1.0, 1, 1.0, True, 1.0, False, 0, -0.0, math.nan, math.nan, math.inf, math.inf]
NEIGHBOURS += [-math.inf, -math.inf, None, 2.5e-13, 2.5e-13, 2.5e-13, 1e-9]
record_number = st.sampled_from(NEIGHBOURS) | json_float


@st.composite
def report_record(draw):
    """A cli._record: any text in check and detail, a flat case, passed True,
    False or None, and neighbouring numbers in the float fields."""
    record = cli._record(
        draw(json_string),
        draw(record_case),
        draw(st.sampled_from([True, False, None])),
        draw(record_number),
        draw(record_number),
        draw(json_string),
    )
    record["elapsed_s"] = draw(record_number)
    return record


def json_dump_default(obj):
    """The json.dump hook for matrices that the streaming writer replaced."""
    return np.stack([obj.real, obj.imag], axis=-1).tolist()


@settings(deadline=None, derandomize=True, max_examples=60)
@given(doc=st.dictionaries(json_string, report_value, max_size=3), records=st.lists(report_record(), max_size=3))
def test_json_writer_matches_json_dump(doc, records):
    doc["records"] = records
    expected = io.StringIO()
    json.dump(doc, expected, indent=2, default=json_dump_default)
    written = io.StringIO()
    cli._write_json(doc, written.write)
    assert written.getvalue() == expected.getvalue()


def neighbour_records():
    # deviation, tolerance and elapsed_s step through NEIGHBOURS one record at
    # a time, passed through True, False and None, and the case alternates
    # between flat and empty
    records = []
    for i, value in enumerate(NEIGHBOURS):
        case = {"d": 7, "pair": "é|\x00 ", "k": 2**70} if i % 2 else {}
        record = cli._record("pair-unbiased", case, [True, False, None][i % 3], value, value, "\x1fé\U0001d11e")
        record["elapsed_s"] = value
        records.append(record)
    return records


@settings(deadline=None, derandomize=True, max_examples=60)
@given(records=st.lists(report_record(), max_size=6))
@example(records=neighbour_records())
def test_json_writer_matches_json_dump_on_record_shaped_dicts(records):
    for doc in ({"schema": "mub-report/1", "records": records}, records):
        expected = io.StringIO()
        json.dump(doc, expected, indent=2, default=json_dump_default)
        written = io.StringIO()
        cli._write_json(doc, written.write)
        assert written.getvalue() == expected.getvalue()


def per_pair_records(d, tol, report, elapsed_s):
    """The pair-unbiased records of one family as the CLI made them before pair
    tables, one _bounded dict per pair, stamped as _run stamps them: with
    run_order's sort, the oracle of cli._records."""
    records = []
    for (label_a, label_b), deviation in zip(report.pairs, report.deviations.tolist()):
        records.append(cli._bounded("pair-unbiased", {"d": d, "pair": f"{label_a}|{label_b}"}, deviation, tol))
    for record in records:
        record["elapsed_s"] = elapsed_s
    return records


def run_order(record):
    return record["check"], *record["case"].values()


# labels whose pair texts sort apart from their tuples ("R^2|F" before "R|F",
# though ("R", "F") < ("R^2", "F")), a "|" that makes two label pairs one text,
# and a "%" and a "{" that the json writer's filled pair template must not read
pair_label = st.sampled_from(["I", "F", "Y", "R", "R^2", "R^9", "R^10", "|", "\u00e9", "%", "%s", "{"])


@st.composite
def pair_reports(draw):
    """{d: (tolerance, UnbiasednessReport)} for a few dimensions, with
    deviations at, just past and just inside the tolerance, NaN, -0.0 and the
    infinities among any other float."""
    reports = {}
    for d in draw(st.lists(st.integers(2, 9), unique=True, max_size=3)):
        tol = draw(st.sampled_from([1e-9 * math.sqrt(d), 5e-324]) | st.floats(0.0, 1e300))
        edge = [tol, math.nextafter(tol, math.inf), math.nextafter(tol, 0.0), math.nan, -0.0, 0.0, math.inf, -math.inf]
        size = draw(st.integers(0, 8))
        pairs = tuple(draw(st.lists(st.tuples(pair_label, pair_label), min_size=size, max_size=size)))
        values = draw(st.lists(st.sampled_from(edge) | st.floats(), min_size=size, max_size=size))
        deviations = np.array(values, dtype=np.float64)
        deviations.setflags(write=False)
        reports[d] = tol, mub.UnbiasednessReport(pairs, deviations, bool(np.all(deviations <= tol)))
    return reports


@PROPERTY
@given(reports=pair_reports())
def test_pair_tables_expand_as_the_per_pair_loop_and_count_without_it(reports):
    def verify_family(family, tol):
        return reports[family.dimension][1]

    with mock.patch.object(cli, "verify_family", verify_family):
        held = cli._run([partial(cli._family_records, d, tol, {}) for d, (tol, _) in reports.items()])
    elapsed = {r["case"]["d"]: r["elapsed_s"] for r in held}
    expected = [r for r in held if r["check"] != "pair-unbiased"]
    for d, (tol, report) in reports.items():
        expected += per_pair_records(d, tol, report, elapsed[d])
    expected.sort(key=run_order)
    records = list(cli._records(held))
    assert repr(records) == repr(expected)  # repr keeps -0.0 apart from 0.0 and compares NaN
    assert cli._summary(held) == {
        "total": len(expected),
        "passed": sum(r["passed"] is True for r in expected),
        "failed": sum(r["passed"] is False for r in expected),
        "informational": sum(r["passed"] is None for r in expected),
    }
    # every renderer writes the held records as it writes the expanded ones
    for fmt in ("json", "text", "csv"):
        doc = {"schema": cli.SCHEMA, "version": "0", "command": "verify", "config": {"format": fmt}}
        doc.update(summary=cli._summary(held), elapsed_s=0.0)
        written, oracle = io.StringIO(), io.StringIO()
        cli._emit({**doc, "records": held}, written)
        cli._emit({**doc, "records": expected}, oracle)
        assert written.getvalue() == oracle.getvalue()
