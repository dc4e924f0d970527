import ast
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from circulant_mub import (
    DenseUnitary,
    GaussSumSpec,
    build_family,
    canonical_form,
    default_tolerance,
    exhaustive_biunimodular,
    gauss_sum_direct,
    gauss_sum_reciprocity,
)
from circulant_mub import mub
from circulant_mub.__main__ import _THREAD_VARIABLES
from circulant_mub import cli
from circulant_mub.gauss import power_sum_deviations
from circulant_mub.sequences import alphabet_exponents, group_orbits
from circulant_mub.cli import (
    EXIT_FAILURES,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA,
    main,
    parse_span,
)
from circulant_mub.linalg import CirculantMatrix, as_matrix, build_triangular_diagonal
from circulant_mub.phase_ring import root_table


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_same_text(written: str, expected: str, context: int = 60) -> None:
    """written == expected, failing fast: pytest's own diff of two whole
    reports (23 MB for build --dim 61) runs for minutes, so a mismatch is
    reported by the lengths and the first differing offset, with a short
    window of context, and the whole texts never reach an assert."""
    if written == expected:
        return
    offset = next((i for i, (a, b) in enumerate(zip(written, expected)) if a != b), None)
    offset = min(len(written), len(expected)) if offset is None else offset
    window = slice(max(offset - context, 0), offset + context)
    message = f"first difference at offset {offset}: written {written[window]!r}, expected {expected[window]!r}"
    lengths = len(written), len(expected)
    assert lengths[0] == lengths[1], message
    pytest.fail(message)


def strip_timing(doc):
    doc = dict(doc)
    doc.pop("elapsed_s", None)
    doc["records"] = [
        {k: v for k, v in record.items() if k != "elapsed_s"} for record in doc["records"]
    ]
    return doc


def test_parse_span():
    assert list(parse_span("7")) == [7]
    assert list(parse_span("2..5")) == [2, 3, 4, 5]
    assert list(parse_span("-3..-1")) == [-3, -2, -1]
    from circulant_mub.cli import UsageError

    with pytest.raises(UsageError):
        parse_span("5..2")
    with pytest.raises(UsageError):
        parse_span("abc")
    # bounds and length: each refusal names the flag
    assert parse_span("2..10", "--d", lo=2, hi=10) == range(2, 11)
    assert len(parse_span(f"1..{cli.MAX_SPAN}", "--k")) == cli.MAX_SPAN
    for args, message in (
        (("1..5", "--dims", 2), "--dims must be >= 2, got 1..5"),
        (("3..11", "--d", None, 10), "--d must be at most 10, got 3..11"),
        (("0", "--a", 1, 10), "--a must lie in 1..10, got 0"),
        (("11", "--a", 1, 10), "--a must lie in 1..10, got 11"),
        ((f"1..{cli.MAX_SPAN + 1}", "--k"), f"--k may span at most {cli.MAX_SPAN} values, got {cli.MAX_SPAN + 1}"),
        ((f"-{10**20}..0", "--b"), f"--b may span at most {cli.MAX_SPAN} values, got {10**20 + 1}"),
    ):
        with pytest.raises(UsageError) as excinfo:
            parse_span(*args)
        assert str(excinfo.value) == message


def test_build_document(capsys):
    code, doc = run_json(capsys, ["build", "--dim", "2"])
    assert code == EXIT_OK
    assert doc["schema"] == SCHEMA
    assert doc["command"] == "build"
    assert doc["config"]["dim"] == 2
    family = doc["family"]
    assert family["dimension"] == 2
    assert family["recipe"] == "DTwo"
    assert [b["label"] for b in family["bases"]] == ["I", "F", "Y"]
    by_label = {b["label"]: b for b in family["bases"]}
    assert by_label["I"]["scale"] == 1.0
    # Hadamard members are serialized as scale * unimodular entries
    y = by_label["Y"]
    assert y["scale"] == pytest.approx(1 / math.sqrt(2))
    dense = np.array([[complex(re, im) for re, im in row] for row in y["entries"]])
    assert np.abs(dense * y["scale"] - np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)).max() < 1e-12
    checks = {r["check"] for r in doc["records"]}
    assert checks == {"family-size", "pair-unbiased"}
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == 1 + 3


def test_build_records_are_sorted_by_check_and_case(capsys):
    code, doc = run_json(capsys, ["build", "--dim", "7"])
    assert code == EXIT_OK
    keys = [(r["check"], r["case"].get("pair", "")) for r in doc["records"]]
    assert keys == sorted(keys)
    assert keys[0] == ("family-size", "")
    assert len(keys) == 1 + 8 * 7 // 2
    assert doc["records"][0]["detail"] == "recipe=Prime bases=8 expected=8"


def sort_key(record: dict):
    """The record order of the reports before the one-tuple sort of _run, kept
    as its oracle: each case item as (key, 0, float(value), "") for a number
    and (key, 1, 0.0, str(value)) otherwise."""
    parts = []
    for key, value in record["case"].items():
        if isinstance(value, (int, float)):
            parts.append((key, 0, float(value), ""))
        else:
            parts.append((key, 1, 0.0, str(value)))
    return (record["check"], tuple(parts))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dims", "61..97"],
        ["sweep", "--dims", "2..40"],
        ["gauss", "identity", "--d", "3..15", "--l", "1400000000000000001"],
        ["gauss", "reciprocity", "--a", "1..5", "--d", "1..12"],
        ["seq", "gauss", "--d", "3..15"],
        ["search", "--d", "4", "--alphabet", "6"],
        ["build", "--dim", "13"],
        ["gauss", "trace", "--d", "3..31"],
        ["gauss", "powersums", "--d", "3..31"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_run_orders_records_as_the_per_item_sort_key(argv):
    # within one check every case has the same keys and value types, so the
    # case values compare as they are; a shuffle before the oracle's stable
    # sort also fails the test where the oracle would leave a tie
    # the oracle runs over the expanded records, so it also orders the pair
    # records inside each pair table
    checks, _ = cli._plan(cli._build_parser().parse_args(argv), cli.DEFAULT_TOL_BASE)
    records = list(cli._records(cli._run(checks)))
    assert len(records) > 1
    assert sorted(random.Random(0).sample(records, len(records)), key=sort_key) == records


def test_verify_holds_one_pair_table_per_family_until_the_report_is_written():
    # the 25,021 pair verdicts of 61..97 stay in 37 deviation arrays while the
    # checks run; only the renderers expand them, one record at a time
    checks, _ = cli._plan(cli._build_parser().parse_args(["verify", "--dims", "61..97"]), cli.DEFAULT_TOL_BASE)
    held = cli._run(checks)
    tables = [r for r in held if r["check"] == "pair-unbiased"]
    assert [r["case"] for r in tables] == [{"d": d} for d in range(61, 98)]
    records = list(cli._records(held))
    pairs = [r for r in records if r["check"] == "pair-unbiased"]
    assert len(pairs) == 25_021
    assert len(records) - len(pairs) == len(held) - len(tables)
    assert cli._summary(held) == {
        "total": len(records),
        "passed": sum(r["passed"] is True for r in records),
        "failed": sum(r["passed"] is False for r in records),
        "informational": sum(r["passed"] is None for r in records),
    }


def test_build_rejects_dimension_one(capsys):
    assert main(["build", "--dim", "1"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_verify_span(capsys):
    code, doc = run_json(capsys, ["verify", "--dims", "2..8"])
    assert code == EXIT_OK
    assert doc["summary"]["failed"] == 0
    checks = {r["check"] for r in doc["records"]}
    assert {
        "family-size",
        "pair-unbiased",
        "clock-shift-commutation",
        "fourier-diagonalizes-shift",
        "fourier-square-is-reversal",
        "fourier-order-four",
        "rotation-diagonalization",
        "rotation-clock-conjugation",
        "rotation-order",
        "rotation-power-clock",
        "phased-fourier-identity",
        "rotation-square-not-hadamard",
    } <= checks
    negatives = [r for r in doc["records"] if r["check"] == "rotation-square-not-hadamard"]
    assert sorted(r["case"]["d"] for r in negatives) == [4, 6, 8]
    assert all(r["passed"] for r in negatives)


BASE_IDENTITIES = {
    "clock-shift-commutation",
    "fourier-diagonalizes-shift",
    "fourier-square-is-reversal",
    "fourier-order-four",
}
PRIME_IDENTITIES = {
    "rotation-diagonalization",
    "rotation-clock-conjugation",
    "rotation-order",
    "rotation-power-clock",
    "phased-fourier-identity",
}


def test_verify_claims_follow_the_dimension_class(capsys):
    # every d gets the family and the base identities; odd primes add the
    # prime identities, odd composites the coprimality rule and even d >= 4 the
    # failing rotation square.  The least divisor comes from plain trial
    # division here, shared with nothing in the package.
    for d in range(2, 41):
        least = next(f for f in range(2, d + 1) if d % f == 0)
        code, doc = run_json(capsys, ["verify", "--dims", str(d)])
        assert code == EXIT_OK, d
        assert {r["case"]["d"] for r in doc["records"]} == {d}
        expected = {"family-size", "pair-unbiased"} | BASE_IDENTITIES
        if d % 2 and least == d:
            expected |= PRIME_IDENTITIES
        elif d % 2:
            expected.add("rotation-power-hadamard-iff-coprime")
        elif d >= 4:
            expected.add("rotation-square-not-hadamard")
        assert {r["check"] for r in doc["records"]} == expected, d
        size = 3 if d % 2 == 0 else d + 1 if least == d else least + 1
        (record,) = [r for r in doc["records"] if r["check"] == "family-size"]
        assert re.search(r"\bbases=(\d+) expected=(\d+)$", record["detail"]).groups() == (str(size), str(size)), d
        pairs = [r for r in doc["records"] if r["check"] == "pair-unbiased"]
        assert len(pairs) == size * (size - 1) // 2, d


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dims", "2..6"],
        ["sweep", "--dims", "2..9"],
        ["gauss", "identity", "--d", "3..15"],
        ["gauss", "identity", "--d", "7..9", "--l", "1..4"],
        ["gauss", "reciprocity", "--a", "1..3", "--d", "1..6"],
        ["gauss", "even", "--d", "2..12"],
        ["gauss", "trace", "--d", "3..15"],
        ["gauss", "powersums", "--d", "3..13"],
        ["seq", "gauss", "--d", "3..11"],
    ],
    ids=[
        "verify",
        "sweep",
        "gauss-identity",
        "gauss-identity-probe",
        "gauss-reciprocity",
        "gauss-even",
        "gauss-trace",
        "gauss-powersums",
        "seq-gauss",
    ],
)
def test_verify_is_deterministic_and_parallel_safe(capsys, argv):
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    assert strip_timing(first)["records"] == strip_timing(second)["records"]
    assert second["summary"] == first["summary"]


def test_verify_rejects_dimensions_below_two(capsys):
    assert main(["verify", "--dims", "0..3"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_gauss_identity(capsys):
    code, doc = run_json(capsys, ["gauss", "identity", "--d", "3..15"])
    assert code == EXIT_OK
    assert doc["summary"]["failed"] == 0
    assert all(r["check"] == "gauss-identity" for r in doc["records"])
    dims = {r["case"]["d"] for r in doc["records"]}
    assert dims == {3, 5, 7, 9, 11, 13, 15}


def test_gauss_identity_huge_multiplier(capsys):
    # 1 + 14 * 10**17 is 1 mod 14: the identity holds, with no int64 overflow
    code, doc = run_json(capsys, ["gauss", "identity", "--d", "7", "--l", "1400000000000000001"])
    assert code == EXIT_OK
    assert doc["records"][0]["deviation"] < 1e-12


def test_gauss_identity_noncoprime_multiplier(capsys):
    # a multiplier that shares a factor with d is measured, by the probe
    code, doc = run_json(capsys, ["gauss", "identity", "--d", "9", "--l", "3"])
    assert code == EXIT_OK
    [record] = doc["records"]
    assert record["check"] == "gauss-identity-probe"
    assert record["passed"] is None
    assert "sqrt(d)" in record["detail"]
    assert doc["summary"]["informational"] == 1
    # probing is not an option
    with pytest.raises(SystemExit) as excinfo:
        main(["gauss", "identity", "--d", "9", "--l", "3", "--allow-noncoprime"])
    assert excinfo.value.code == EXIT_USAGE
    assert "unrecognized arguments: --allow-noncoprime" in capsys.readouterr().err


def test_gauss_requires_modulus_span(capsys):
    assert main(["gauss", "identity"]) == EXIT_USAGE


def test_gauss_reciprocity(capsys):
    code, doc = run_json(capsys, ["gauss", "reciprocity", "--a", "1..4", "--d", "1..8"])
    assert code == EXIT_OK
    assert doc["summary"]["failed"] == 0
    assert len(doc["records"]) == 4 * 8
    assert all("parity-valid" in r["detail"] for r in doc["records"])


def test_reciprocity_without_parity_valid_b_is_informational(capsys):
    # a*d + b is odd for every b in the span: no triple is tested, so the
    # record neither passes nor fails
    code, doc = run_json(capsys, ["gauss", "reciprocity", "--a", "1..2", "--d", "1..2", "--b=1"])
    assert code == EXIT_OK
    by_case = {(r["case"]["a"], r["case"]["d"]): r for r in doc["records"]}
    for case in [(1, 2), (2, 1), (2, 2)]:
        record = by_case[case]
        assert record["passed"] is None
        assert record["deviation"] is None and record["tolerance"] is None
        assert record["detail"] == "0 parity-valid b values"
    assert by_case[1, 1]["passed"] is True
    assert by_case[1, 1]["detail"] == "1 parity-valid b values"
    assert doc["summary"] == {"total": 4, "passed": 1, "failed": 0, "informational": 3}


def test_gauss_even_trace_powersums(capsys):
    assert run_json(capsys, ["gauss", "even", "--d", "2..12"])[0] == EXIT_OK
    assert run_json(capsys, ["gauss", "trace", "--d", "3..15"])[0] == EXIT_OK
    assert run_json(capsys, ["gauss", "powersums", "--d", "3..7"])[0] == EXIT_OK
    assert main(["gauss", "even", "--d", "3"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["gauss", "powersums", "--d", "9"]) == EXIT_USAGE


# The Gauss checks evaluate whole batches of sums at once; these oracles are
# the per-triple loops they replaced, written against the scalar API.


def scalar_reciprocity(a, d, b_span):
    b_range = b_span if b_span is not None else range(-2 * d, 2 * d + 1)
    b_values = [b for b in b_range if (a * d + b) % 2 == 0]
    worst = 0.0
    for b in b_values:
        spec = GaussSumSpec(a, b, d)
        worst = max(worst, abs(gauss_sum_direct(spec) - gauss_sum_reciprocity(spec)))
    return len(b_values), worst


def assert_matches_oracle(record, deviation, detail, tol=1e-9):
    assert record["detail"] == detail
    assert record["passed"] == (deviation <= tol)
    assert abs(record["deviation"] - deviation) <= 1e-14


HUGE_B = range(-(10**20), -(10**20) + 11)  # beyond int64, as --b=-100000000000000000000..-99999999999999999990


@pytest.mark.parametrize(
    "cases, b_span",
    [
        ([(a, d) for a in range(1, 21) for d in range(1, 51)], None),  # the benchmark workload
        ([(1, 1), (5, 1), (20, 1)], None),  # d = 1
        ([(7, 3), (30, 4), (100, 9)], None),  # a > d
        ([(2, 5), (7, 3), (3, 8)], HUGE_B),
        ([(1, 1), (3, 5)], range(-7, 8, 1)),
    ],
    ids=["a1-20-d1-50", "d-one", "a-above-d", "b-beyond-int64", "b-span"],
)
def test_reciprocity_check_matches_the_scalar_loop(cases, b_span):
    for a, d in cases:
        [record] = cli._reciprocity_check(a, d, b_span, 1e-9)
        count, worst = scalar_reciprocity(a, d, b_span)
        assert count > 0
        assert_matches_oracle(record, worst, f"{count} parity-valid b values")


def test_reciprocity_check_without_parity_valid_b_matches_the_scalar_loop():
    for a, d, b_span in [(1, 2, range(1, 2)), (2, 1, range(1, 2)), (1, 1, range(-(10**20), -(10**20) + 1))]:
        assert scalar_reciprocity(a, d, b_span)[0] == 0
        [record] = cli._reciprocity_check(a, d, b_span, 1e-9)
        assert record["passed"] is None and record["deviation"] is None
        assert record["detail"] == "0 parity-valid b values"


def test_huge_b_span_runs_end_to_end(capsys):
    code, doc = run_json(
        capsys, ["gauss", "reciprocity", "--a", "1..3", "--d", "1..4", "--b=-100000000000000000000..-99999999999999999990"]
    )
    assert code == EXIT_OK
    assert doc["summary"] == {"total": 12, "passed": 12, "failed": 0, "informational": 0}


def scalar_power_sums(d, ks, ms):
    worst = 0.0
    for k in ks:
        for m in ms:
            b = k + 2 * m
            worst = max(
                worst,
                abs(abs(gauss_sum_direct(GaussSumSpec(k, b, d))) - math.sqrt(d)),
                abs(abs(gauss_sum_direct(GaussSumSpec(-d, -b, k))) - math.sqrt(k)),
            )
    return worst


def test_powersums_check_matches_the_scalar_loop():
    for d in (3, 5, 7, 11, 13, 31, 61, 97, 113):
        [record] = cli._powersums_check(d, None, None, 1e-9)
        assert_matches_oracle(record, scalar_power_sums(d, range(1, d), range(-2, 3)), f"{d - 1} powers x 5 offsets, both moduli")
    [record] = cli._powersums_check(13, range(3, 7), range(-12, 13), 1e-9)
    assert_matches_oracle(record, scalar_power_sums(13, range(3, 7), range(-12, 13)), "4 powers x 25 offsets, both moduli")
    dev_d, dev_k = power_sum_deviations(13, list(range(3, 7)), list(range(-12, 13)))
    assert max(dev_d.max(), dev_k.max()) == record["deviation"]
    with pytest.raises(ValueError, match="k=13"):
        power_sum_deviations(13, list(range(1, 14)), list(range(-2, 3)))
    with pytest.raises(ValueError, match="m=13"):
        power_sum_deviations(13, list(range(1, 13)), [13])


def verify_triangular_trace(d, k):
    """| |trace(D**k)| - sqrt(d) | for the triangular diagonal D, odd d >= 3
    and gcd(k, d) = 1: the oracle of cli._trace_check, which gathers the
    exponents k*t mod 2d of D**k, computed here as Python ints from D's own
    exponents t (k beyond int64 included), instead of the Gauss-sum row kernel."""
    if d % 2 == 0 or d < 3 or math.gcd(k, d) != 1:
        raise ValueError(f"need odd d >= 3 coprime with k, got d={d} k={k}")
    exponents = [k * t % (2 * d) for t in build_triangular_diagonal(d).exponents.tolist()]
    return float(abs(abs(root_table(d)[exponents].sum()) - math.sqrt(d)))


def test_trace_check_matches_the_scalar_loop():
    for d in range(3, 200, 2):
        ks = [k for k in range(1, d) if math.gcd(k, d) == 1]
        [record] = cli._trace_check(d, ks, 1e-9)
        worst = max(verify_triangular_trace(d, k) for k in ks)
        assert_matches_oracle(record, worst, f"max over {len(ks)} coprime powers")
    # multipliers beyond int64 enter reduced mod 2d
    ks = [k for k in range(-(10**20), -(10**20) + 40) if math.gcd(k, 21) == 1]
    [record] = cli._trace_check(21, ks, 1e-9)
    assert_matches_oracle(record, max(verify_triangular_trace(21, k) for k in ks), f"max over {len(ks)} coprime powers")


def test_seq_gauss_verdicts(capsys):
    code, doc = run_json(capsys, ["seq", "gauss", "--d", "9"])
    assert code == EXIT_OK
    by_k = {r["case"]["k"]: r for r in doc["records"]}
    assert set(by_k) == set(range(1, 9))
    assert all(r["passed"] for r in doc["records"])
    assert "expected not bi-unimodular" in by_k[3]["detail"]
    assert "expected bi-unimodular" in by_k[1]["detail"]


def test_search_dimension_two(capsys):
    code, doc = run_json(capsys, ["search", "--d", "2", "--alphabet", "4"])
    assert code == EXIT_OK
    total = [r for r in doc["records"] if r["check"] == "search-total"][0]
    assert "8 bi-unimodular sequences in 1 orbits out of 16 candidates" in total["detail"]
    orbits = [r for r in doc["records"] if r["check"] == "search-orbit"]
    assert len(orbits) == 1
    assert "exponents of e(2*pi*i/4)" in orbits[0]["detail"]


def test_search_dimension_three(capsys):
    code, doc = run_json(capsys, ["search", "--d", "3", "--alphabet", "3"])
    assert code == EXIT_OK
    total = [r for r in doc["records"] if r["check"] == "search-total"][0]
    assert "18 bi-unimodular sequences in 2 orbits out of 27 candidates" in total["detail"]


def test_search_orbits_match_exact_exponent_canonicalization():
    # over every accepted search with d <= 6: each canonical entry lies within
    # 1e-6 of the alphabet root whose exponent the report prints, and grouping
    # hits by the float canonical form finds as many orbits as canonicalizing
    # the integer exponent vectors exactly (rotate, then subtract the first
    # exponent mod m)
    for d in range(1, 7):
        for m in range(1, 13):
            hits = exhaustive_biunimodular(d, m, default_tolerance(d, cli.DEFAULT_TOL_BASE))
            roots = np.exp(2j * np.pi * np.arange(m) / m)
            exact = set()
            for hit in hits:
                exps = np.rint(np.angle(hit) * m / (2 * np.pi)).astype(int) % m
                assert np.abs(roots[exps] - hit).max() < 1e-12
                exact.add(min(tuple((np.roll(exps, -r) - exps[r]) % m) for r in range(d)))
            orbits = group_orbits(hits)
            assert len(orbits) == len(exact), (d, m)
            assert sum(len(members) for _, members in orbits) == len(hits)
            for key, members in orbits:
                assert all(canonical_form(member) == key for member in members)
                exps = alphabet_exponents(key, m)
                assert max(abs(complex(*z) - roots[e]) for z, e in zip(key, exps)) <= 1e-6


def test_search_bounds(capsys):
    assert main(["search", "--d", "7", "--alphabet", "2"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["search", "--d", "2", "--alphabet", "13"]) == EXIT_USAGE


def test_sweep_combines_batteries(capsys):
    code, doc = run_json(capsys, ["sweep", "--dims", "2..6"])
    assert code == EXIT_OK
    assert doc["summary"]["failed"] == 0
    checks = {r["check"] for r in doc["records"]}
    assert {"pair-unbiased", "gauss-identity", "triangular-trace", "even-gauss-sum"} <= checks


def test_text_and_csv_formats(capsys):
    assert main(["verify", "--dims", "3", "--format", "text"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "summary:" in text
    assert "pass" in text
    assert main(["verify", "--dims", "3", "--format", "csv"]) == EXIT_OK
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "check,case,passed,deviation,tolerance,elapsed_s,detail"
    assert main(["build", "--dim", "3", "--format", "csv"]) == EXIT_OK
    build_csv = capsys.readouterr().out
    header, *rows = build_csv.splitlines()
    assert header == "basis,row,col,re,im"
    # every cell is a plain float literal that reads back as the family's own
    # entry exactly (scaling by the json scale and back would not round-trip:
    # 0.49999999999999983 came out as 0.4999999999999998 at d=3)
    bases = dict(build_family(3).bases)
    assert len(rows) == len(bases) * 9
    for row in rows:
        label, i, j, re, im = row.split(",")
        entry = as_matrix(bases[label])[int(i), int(j)]
        assert (float(re), float(im)) == (entry.real, entry.imag)


def test_output_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    code = main(["verify", "--dims", "2", "--format", "json", "--output", str(target)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == SCHEMA
    # with the clock frozen, a report written through --output and the same
    # report on stdout differ only in the echoed config.output value
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    for argv in (["verify", "--dims", "2..5"], ["build", "--dim", "3"]):
        for fmt in ("json", "csv", "text"):
            target = tmp_path / f"{argv[0]}.{fmt}"
            assert main(argv + ["--format", fmt]) == EXIT_OK
            stdout = capsys.readouterr().out
            assert main(argv + ["--format", fmt, "--output", str(target)]) == EXIT_OK
            assert capsys.readouterr().out == ""
            written = target.read_bytes().decode("utf-8")
            if fmt == "json":
                written = written.replace(json.dumps(str(target)), "null")
            elif fmt == "text":
                written = written.replace(f" output={target}", "")
            else:  # csv rows end in \r\n, in the file as on stdout
                assert written.count("\r\n") == len(written.splitlines()) > 1
            assert_same_text(written, stdout)


def report_doc(monkeypatch, argv):
    """The report dict main() hands to its renderer, with _emit restored."""
    docs = []
    monkeypatch.setattr(cli, "_emit", lambda doc, handle: docs.append(doc))
    main(argv)
    monkeypatch.undo()
    return docs[0]


def expanded(doc):
    """The report dict with its records expanded as the renderers read them."""
    return {**doc, "records": list(cli._records(doc["records"]))}


def json_dump_default(obj):
    """The json.dump hook the streaming writer replaced: the oracle's half.
    Each member goes through the dense path of _matrix_payload, never through
    the first-column path the writer takes for a circulant."""
    if isinstance(obj, mub.MubFamily):
        d = obj.dimension
        bases = [cli._matrix_payload(label, as_matrix(basis), d) for label, basis in obj.bases]
        return {"dimension": d, "recipe": obj.recipe.value, "bases": bases}
    if isinstance(obj, np.ndarray):
        return np.stack([obj.real, obj.imag], axis=-1).tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--dim", "2"],
        ["build", "--dim", "7"],
        ["build", "--dim", "9"],
        ["build", "--dim", "61"],
        ["verify", "--dims", "2..8"],
        ["gauss", "reciprocity", "--a", "1..4", "--d", "1..8"],
        ["search", "--d", "3", "--alphabet", "3"],
    ],
    ids=" ".join,
)
def test_json_writer_matches_json_dump(monkeypatch, argv):
    doc = report_doc(monkeypatch, argv + ["--format", "json"])
    expected = io.StringIO()
    json.dump(expanded(doc), expected, indent=2, default=json_dump_default)
    expected.write("\n")
    written = io.StringIO()
    cli._emit(doc, written)
    assert_same_text(written.getvalue(), expected.getvalue())


def test_json_writer_streams_one_matrix_row_or_record_at_a_time(monkeypatch):
    # a member's entries sit at depth 4 (report, family, bases, member), so a
    # row opens at depth 5 with its first [re, im] cell at depth 6
    row_start = "[\n" + " " * 12 + "[\n" + " " * 14
    for argv, rows in ((["build", "--dim", "13"], 14 * 13), (["verify", "--dims", "2..8"], 0)):
        doc = report_doc(monkeypatch, argv + ["--format", "json"])
        chunks = []
        cli._write_json(doc, chunks.append)
        full = expanded(doc)
        assert_same_text("".join(chunks), json.dumps(full, indent=2, default=json_dump_default))
        # no write holds more than one matrix row or one record
        assert max(chunk.count(row_start) for chunk in chunks) <= 1
        assert max(chunk.count('"check": ') for chunk in chunks) <= 1
        assert sum(chunk.count(row_start) for chunk in chunks) == rows
        assert sum(chunk.count('"check": ') for chunk in chunks) == len(full["records"])


def test_record_keys_are_the_json_template_keys():
    # the json writer fills its record template only for dicts with exactly
    # these keys in this order, so a field added to _record must be added there
    assert tuple(cli._record("c", {}, None)) == cli._RECORD_KEYS


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_build_report_scales_one_member_at_a_time(monkeypatch, fmt):
    # the 62 scaled members of d = 61 take 3.7 MB when they are held at once
    doc = report_doc(monkeypatch, ["build", "--dim", "61", "--format", fmt])
    tracemalloc.start()
    try:
        cli._emit(doc, types.SimpleNamespace(write=len))  # a handle that discards the report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("dim", [2, 7, 9, 61])
def test_family_csv_matches_the_csv_writer_loop(monkeypatch, dim):
    doc = report_doc(monkeypatch, ["build", "--dim", str(dim), "--format", "csv"])
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["basis", "row", "col", "re", "im"])
    for label, basis in doc["family"].bases:
        entries = as_matrix(basis)
        for i, (re_row, im_row) in enumerate(zip(entries.real.tolist(), entries.imag.tolist())):
            for j, cell in enumerate(zip(re_row, im_row)):
                writer.writerow([label, i, j, *cell])
    written = io.StringIO()
    cli._emit(doc, written)
    assert_same_text(written.getvalue(), expected.getvalue())


def _bits(re: float, im: float) -> bytes:
    return np.array([re, im]).tobytes()


# a quiet NaN with a payload other than numpy's own
_OTHER_NAN = float(np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0])


@pytest.mark.parametrize(
    "members",
    [
        *(pytest.param(build_family(d).bases, id=f"family-{d}") for d in (2, 7, 9, 61)),
        pytest.param(
            [("hand-made", CirculantMatrix(6, np.array([0.0, -0.0, np.nan, _OTHER_NAN, np.inf, -np.inf])))],
            id="signed-zeros-nan-payloads-infinities",
        ),
    ],
)
def test_entry_texts_of_a_circulant_match_its_dense_entries(members):
    # a circulant's grid comes from its first column alone, any other
    # member's from all its entries; both must equal the dense grid bit for bit
    for label, member in members:
        dense = cli._entry_texts(as_matrix(member), _bits)
        assert cli._entry_texts(member, _bits).tolist() == dense.tolist(), label


@pytest.mark.parametrize(
    "entries",
    [
        np.array([[0.0, -0.0], [complex(0.0, -0.0), complex(-0.0, -0.0)]]),
        np.array([[complex(np.nan, 1.0), complex(_OTHER_NAN, 1.0)], [complex(np.nan, _OTHER_NAN), np.nan]]),
        np.array([[np.inf, -np.inf], [complex(0.0, np.inf), complex(-np.inf, -np.inf)]]),
        np.full((3, 4), complex(0.5, -0.5)),
        np.arange(12, dtype=np.complex128).reshape(4, 3) * complex(1.0, -2.0),
        build_family(7).bases[2][1].to_dense() * math.sqrt(7),
        # inputs that are not C-contiguous: each is keyed through a contiguous copy
        as_matrix(build_family(7).bases[1][1]).T,
        np.asfortranarray(np.arange(12, dtype=np.complex128).reshape(4, 3) * complex(1.0, -2.0)),
        (as_matrix(build_family(7).bases[1][1]) * 2)[::2, 1::2],
        np.array([[0.0], [-0.0]], dtype=np.complex128),
    ],
    ids=[
        "signed-zeros",
        "nan-payloads",
        "infinities",
        "all-equal",
        "all-distinct",
        "rotation-7",
        "fourier-7-transposed",
        "fortran-order",
        "strided-slice",
        "one-column-signed-zeros",
    ],
)
def test_entry_texts_formats_each_distinct_bit_pattern_once(entries):
    calls = []

    def cell(re, im):
        calls.append(_bits(re, im))
        return calls[-1]

    grid = cli._entry_texts(entries, cell)
    # the 2-D row unique of the (re, im) bits is the oracle for the distinct
    # patterns and for which of them each entry maps to
    pairs = np.ascontiguousarray(entries).view(np.uint64).reshape(-1, 2)
    distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
    expected = [row.tobytes() for row in distinct]
    assert sorted(calls) == sorted(expected)
    assert grid.shape == entries.shape
    assert grid.ravel().tolist() == [expected[i] for i in inverse.ravel()]


def test_tolerance_flag_and_environment(capsys, monkeypatch, tmp_path):
    assert main(["verify", "--dims", "5", "--tol", "1e-30"]) == EXIT_FAILURES
    capsys.readouterr()
    # --tol is the one source of the tolerance base: the environment variable
    # that once set it is ignored, even when it is malformed
    for env in ("not-a-number", "1e-2", "-1.0"):
        monkeypatch.setenv("MUB_DEFAULT_TOL", env)
        code, doc = run_json(capsys, ["verify", "--dims", "5"])
        assert code == EXIT_OK
        assert doc["config"]["tolerance_base"] == cli.DEFAULT_TOL_BASE
    code, doc = run_json(capsys, ["verify", "--dims", "5", "--tol", "1e-8"])
    assert doc["config"]["tolerance_base"] == pytest.approx(1e-8)
    assert main(["verify", "--dims", "5", "--tol", "-1.0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: tolerance must be a positive finite number, got -1.0\n"
    # a base whose scaled tolerance overflows at a planned d is a usage error,
    # found before --output is opened and before any family is built
    target = tmp_path / "report.txt"
    monkeypatch.setattr(cli, "build_family", lambda d: pytest.fail(f"built a family at d={d}"))
    for argv, d in (
        (["verify", "--dims", "4", "--tol", "1e308"], 4),
        (["sweep", "--dims", "4", "--tol", "1e308"], 4),
        (["build", "--dim", "5", "--tol", "1e308"], 5),
        (["seq", "gauss", "--d", "9", "--tol", "1e308"], 9),
        (["search", "--d", "4", "--alphabet", "4", "--tol", "1e308"], 4),
        (["verify", "--dims", "2..400", "--tol", "1e307"], 324),
    ):
        target.write_text("an earlier report\n")
        assert main(argv + ["--output", str(target)]) == EXIT_USAGE, argv
        base = float(argv[-1])
        expected = f"error: tolerance base {base} times sqrt({d}) is inf, not a positive finite number\n"
        assert capsys.readouterr().err == expected
        assert target.read_text() == "an earlier report\n"
    # scalar Gauss sum checks apply the base as it is
    assert main(["gauss", "even", "--d", "4", "--tol", "1e308"]) == EXIT_OK


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    # a ValueError raised inside a check is a defect too: usage errors are
    # all found in _plan, before any check runs
    for error in (RuntimeError, ValueError):

        def broken(d):
            raise error("construction broke")

        monkeypatch.setattr(cli, "build_family", broken)
        assert main(["verify", "--dims", "3"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"internal error: {error.__name__}: construction broke" in captured.err
        assert "Traceback" in captured.err
    assert EXIT_INTERNAL not in (EXIT_OK, EXIT_FAILURES, EXIT_USAGE)


def test_construction_check_uses_the_run_tolerance(capsys, monkeypatch):
    # a Fourier member off unitarity by about 2e-7: the family is built
    # unchecked, and the pair-unbiased records that hold F fail at the run's
    # tolerance, I|F with F's own unitarity defect (only the member is skewed;
    # the structural identities build their own F)
    def skewed(d):
        family = build_family(d)
        bases = [(label, DenseUnitary(d, b.entries * (1 + 1e-7)) if label == "F" else b) for label, b in family.bases]
        return mub.MubFamily(d, tuple(bases), family.recipe)

    monkeypatch.setattr(cli, "build_family", skewed)
    for argv in (["verify", "--dims", "5"], ["build", "--dim", "5"]):
        code, doc = run_json(capsys, argv)
        assert code == EXIT_FAILURES
        pairs = {r["case"]["pair"]: r for r in doc["records"] if r["check"] == "pair-unbiased"}
        assert len(pairs) == 15
        failed = [r for r in doc["records"] if r["passed"] is False]
        assert sorted(r["case"]["pair"] for r in failed) == sorted(p for p in pairs if "F" in p.split("|"))
        assert pairs["I|F"]["deviation"] == pytest.approx(2e-7, rel=1e-3)
        assert pairs["I|F"]["tolerance"] == default_tolerance(5, 1e-9)
    assert doc["family"]["bases"][1]["label"] == "F"
    # a looser --tol admits the member as it does everywhere else
    code, doc = run_json(capsys, ["verify", "--dims", "5", "--tol", "1e-3"])
    assert code == EXIT_OK
    assert run_json(capsys, ["build", "--dim", "5", "--tol", "1e-3"])[1]["family"]["dimension"] == 5


def test_check_arguments_are_usage_errors_found_before_the_output_is_opened(tmp_path, capsys):
    target = tmp_path / "report.json"
    refused = [
        ["gauss", "powersums", "--d", "3..31", "--k", "1..5"],
        ["gauss", "powersums", "--d", "5..7", "--k", "0..2"],
        ["gauss", "powersums", "--d", "5..7", "--m=-5..0"],
        ["search", "--d", "7", "--alphabet", "3"],
        ["search", "--d", "0", "--alphabet", "3"],
        ["search", "--d", "2", "--alphabet", "13"],
        # gauss and seq lengths above 10**9, where the exponent products could
        # overflow int64 and multipliers would be listed one by one
        ["seq", "gauss", "--d", "100000000000000000001", "--k", "1"],
        ["gauss", "identity", "--d", "100000000000000000001", "--l", "1"],
        ["gauss", "reciprocity", "--a", "1", "--d", "100000000000000000001"],
        ["gauss", "reciprocity", "--a", "100000000000000000001", "--d", "3"],
        ["gauss", "even", "--d", str(10**20)],
        ["gauss", "trace", "--d", "100000000000000000001", "--k", "1"],
        ["gauss", "trace", "--d", "1000000001", "--k", "1"],
        # explicit multiplier and offset spans of more than 10**6 values, which
        # would be listed one by one
        ["seq", "gauss", "--d", "3", "--k", "1..100000000000"],
        ["gauss", "trace", "--d", "3", "--k", "1..100000000000"],
        ["gauss", "identity", "--d", "3", "--l", "1..100000000000"],
        ["gauss", "reciprocity", "--a", "1", "--d", "3", "--b", "0..100000000000"],
        ["gauss", "reciprocity", "--a", "1", "--d", "3", "--b", "0..1000000"],
        # --d and --a spans of more than 10**6 values, and reciprocity plans of
        # more than 10**6 (a, d) pairs, which would be listed one by one
        ["seq", "gauss", "--d", "3..999999999"],
        ["gauss", "reciprocity", "--a", "1..1000000000", "--d", "1..1000000000"],
        ["gauss", "reciprocity", "--a", "1..1000", "--d", "1..1001"],
    ]
    for argv in refused:
        target.write_text("an earlier report\n")
        assert main(argv + ["--output", str(target)]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert target.read_text() == "an earlier report\n"
    # the bounds come from the least prime in --d
    assert main(["gauss", "powersums", "--d", "5..7", "--k", "1..4", "--m=-4..4"]) == EXIT_OK
    assert main(["search", "--d", "1", "--alphabet", "1"]) == EXIT_OK
    # a length of 10**9 itself, and a span of 10**6 values, is planned;
    # running a check that long would allocate gigabytes, so only _plan is called
    for argv in (
        ["seq", "gauss", "--d", "3", "--k", "1..1000000"],
        ["gauss", "identity", "--d", "3", "--l", "1..1000000"],
        ["gauss", "reciprocity", "--a", "1", "--d", "3", "--b=-1000000..-1"],
        ["seq", "gauss", "--d", "999999999", "--k", "1"],
        ["gauss", "identity", "--d", "999999999", "--l", "1"],
        ["gauss", "reciprocity", "--a", "1000000000", "--d", "1000000000"],
        ["gauss", "even", "--d", "1000000000"],
        ["gauss", "trace", "--d", "999999999", "--k", "1"],
    ):
        checks, _ = cli._plan(cli._build_parser().parse_args(argv), 1e-9)
        assert len(checks) == 1, argv


def test_every_span_flag_is_bounded_in_length():
    # every span option of every subcommand and gauss mode, those a mode
    # ignores included, refuses MAX_SPAN + 1 values in _plan
    parser = cli._build_parser()
    valid = {"verify": ["--dims", "2"], "sweep": ["--dims", "2"], "even": ["--d", "2"]}
    long_span = f"2..{2 + cli.MAX_SPAN}"
    flags_seen = set()
    for command, subparser in parser._subparsers._group_actions[0].choices.items():
        modes = next((a.choices for a in subparser._actions if a.dest == "mode"), [None])
        flags = [
            a.option_strings[0] for a in subparser._actions if a.dest.endswith("_span") or a.dest == "dims"
        ]
        for mode in modes if flags else []:
            base = [command, *([mode] if mode else []), *valid.get(mode, valid.get(command, ["--d", "3"]))]
            assert cli._plan(parser.parse_args(base), 1e-9)[0], base
            for flag in flags:
                with pytest.raises(cli.UsageError, match=f"^{flag} may span at most"):
                    cli._plan(parser.parse_args(base + [flag, long_span]), 1e-9)
                flags_seen.add(flag)
    assert flags_seen == {"--dims", "--d", "--a", "--b", "--k", "--l", "--m"}


def test_unwritable_output_is_a_usage_error_found_before_any_check(tmp_path, capsys, monkeypatch):
    def never(d):
        raise AssertionError("a check ran before the destination was opened")

    monkeypatch.setattr(cli, "build_family", never)
    target = tmp_path / "missing-dir" / "x.json"
    assert main(["verify", "--dims", "2", "--output", str(target)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --output")
    assert "internal error" not in captured.err
    assert not target.parent.exists()
    # a directory is not a writable report file either
    assert main(["build", "--dim", "3", "--output", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot write --output")


def test_dense_dimensions_are_capped_before_any_check(capsys, monkeypatch, tmp_path):
    # build, verify and sweep materialize d x d matrices, so a dimension above
    # MAX_DENSE is refused before any check is built or run, and before the
    # report file is opened
    def never(d):
        raise RuntimeError("a check ran despite the cap")

    monkeypatch.setattr(cli, "build_family", never)
    target = tmp_path / "capped.json"
    refused = {
        ("verify", "--dims", "2..513"): "--dims must be at most 512, got 2..513",
        ("sweep", "--dims", "2..513"): "--dims must be at most 512, got 2..513",
        ("build", "--dim", "513"): "--dim must lie in 2..512, got 513",
    }
    for argv, message in refused.items():
        target.write_text("an earlier report\n")
        assert main([*argv, "--output", str(target)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert target.read_text() == "an earlier report\n"
    # the cap is a constant, not an option
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--dims", "3", "--dense-cap", "8"])
    assert excinfo.value.code == EXIT_USAGE
    assert "unrecognized arguments: --dense-cap 8" in capsys.readouterr().err


def test_readme_names_every_option_and_no_removed_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parser = cli._build_parser()
    options = {
        option
        for p in (parser, *parser._subparsers._group_actions[0].choices.values())
        for action in p._actions
        for option in action.option_strings
    }
    assert {"--tol", "--version"} <= options
    assert [o for o in sorted(options) if not re.search(re.escape(o) + r"(?![\w-])", readme)] == []
    for removed in ("--dense-cap", "--parallelism", "MUB_DEFAULT_TOL", "--allow-noncoprime"):
        assert removed not in readme


def test_missing_required_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify"])
    assert excinfo.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "circulant-mub" in capsys.readouterr().out


def test_module_entry_point():
    # the child imports the package from where this process found it, which
    # from a checkout is src/ through pytest's pythonpath, not the environment
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "circulant_mub", "verify", "--dims", "2..3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "summary:" in proc.stdout


def test_cli_imports_only_public_library_names_and_traced_layers_resolve(monkeypatch):
    # the paper's claims live in the library, so the CLI needs no private name
    # of a sibling module
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and (node.level or node.module.startswith("circulant_mub"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    # perfbench/tracer.py rebinds each LAYER_OF name throughout the package,
    # so every one must still name a function of the package
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for name in tracer.LAYER_OF:
        module, *path = name.split(".")
        target = importlib.import_module(f"circulant_mub.{module}")
        for attribute in path:
            target = getattr(target, attribute, None)
        assert callable(target), name


def test_traced_pair_count_is_one_per_pair(monkeypatch):
    # perfbench/tracer.py books mub.pairs as len(report.pairs) of each
    # verify_family call, so renaming that field would zero the count
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    family = build_family(7)
    report = mub.verify_family(family)
    counters = {"mub.pairs": 0}
    tracer._count_pairs(counters, (family,), report)
    assert counters["mub.pairs"] == math.comb(8, 2) == len(report.deviations)


def test_report_snapshot_writes_code_stderr_and_stdout_per_format(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "report_snapshot", Path(__file__).resolve().parents[1] / "tools" / "report_snapshot.py"
    )
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    commands = [["verify", "--dims", "2..3"], ["verify", "--dims", "0..3"]]
    clock = time.perf_counter
    written = snapshot.snapshot(tmp_path / "a", commands)
    assert time.perf_counter is clock
    assert len(written) == 2 * 3 * 3
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(p.name for p in written)
    read = lambda name: (tmp_path / "a" / name).read_bytes().decode("utf-8")
    for fmt in ("json", "text", "csv"):
        assert read(f"verify_dims_2..3.{fmt}.code") == "0\n"
        assert read(f"verify_dims_2..3.{fmt}.err") == ""
        assert read(f"verify_dims_0..3.{fmt}.code") == f"{EXIT_USAGE}\n"
        assert read(f"verify_dims_0..3.{fmt}.err") == "error: --dims must be >= 2, got 0..3\n"
        assert read(f"verify_dims_0..3.{fmt}.out") == ""
    doc = json.loads(read("verify_dims_2..3.json.out"))
    assert doc["elapsed_s"] == 0.0 and {r["elapsed_s"] for r in doc["records"]} == {0.0}
    assert read("verify_dims_2..3.csv.out").startswith("check,case,passed,deviation,tolerance,elapsed_s,detail\r\n")
    # with the clock frozen a second snapshot has the same bytes
    snapshot.snapshot(tmp_path / "b", commands)
    assert all((tmp_path / "b" / p.name).read_bytes() == p.read_bytes() for p in written)
    # the digest holds the sha256 of each file's bytes
    assert snapshot.digest(commands)["sha256"] == {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    # a digest written over an older one first names the outputs that moved from it
    path = tmp_path / "digest.json"
    fresh = snapshot.write_digest(path, commands)
    assert json.loads(path.read_text(encoding="utf-8")) == fresh and capsys.readouterr().out == ""
    older = {**fresh["sha256"], "verify_dims_2..3.text.out": "0" * 64, "gone.json.out": "0" * 64}
    del older["verify_dims_0..3.csv.err"]
    path.write_text(json.dumps({**fresh, "sha256": older}), encoding="utf-8")
    assert snapshot.write_digest(path, commands) == fresh
    assert json.loads(path.read_text(encoding="utf-8")) == fresh
    assert capsys.readouterr().out.splitlines() == [
        f"3 of 19 outputs moved from {path}",
        "  gone.json.out",
        "  verify_dims_0..3.csv.err",
        "  verify_dims_2..3.text.out",
    ]
    snapshot.write_digest(path, commands)
    assert capsys.readouterr().out == f"0 of 18 outputs moved from {path}\n"


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def one_thread_child(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run python argv in a fresh interpreter that sets none of the BLAS thread
    variables, with this process's package first on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
    assert proc.returncode in (EXIT_OK, EXIT_FAILURES), proc.stderr
    return proc


def test_report_snapshot_runs_on_the_clis_one_blas_thread(tmp_path):
    # from d >= 128 the dense identity deviations change in their low bits
    # with the thread count, so the in-process snapshot must choose it as
    # python -m circulant_mub does
    code = (
        f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import report_snapshot as tool\n"
        "tool.COMMANDS[:] = [['verify', '--dims', '131']]; tool.FORMATS = ('text',)\n"
        "sys.exit(tool.main(['.']))"
    )
    one_thread_child("-c", code, cwd=tmp_path)
    snapshot = (tmp_path / "verify_dims_131.text.out").read_text(encoding="utf-8")
    printed = one_thread_child("-m", "circulant_mub", "verify", "--dims", "131", "--format", "text", cwd=tmp_path)
    # all but the summary line, whose elapsed time the snapshot freezes
    assert_same_text(snapshot.rsplit("summary:", 1)[0], printed.stdout.rsplit("summary:", 1)[0])


def test_reports_keep_the_bytes_of_the_committed_digest(tmp_path):
    # a change that moves a report on purpose regenerates the digest with
    # python tools/report_snapshot.py --digest tools/report_digest.json
    committed = json.loads((TOOLS / "report_digest.json").read_text(encoding="utf-8"))
    one_thread_child(str(TOOLS / "report_snapshot.py"), "--digest", "digest.json", cwd=tmp_path)
    fresh = json.loads((tmp_path / "digest.json").read_text(encoding="utf-8"))
    names = committed["sha256"].keys() | fresh["sha256"].keys()
    moved = sorted(name for name in names if committed["sha256"].get(name) != fresh["sha256"].get(name))
    assert fresh["environment"] == committed["environment"], (
        f"the digest was made on {committed['environment']}, this run on {fresh['environment']}; "
        f"{len(moved)} outputs differ: {', '.join(moved)}"
    )
    assert not moved, f"{len(moved)} of {len(names)} outputs differ from the digest: {', '.join(moved)}"
