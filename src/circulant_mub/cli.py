"""Verification command line.

Subcommands
    build    construct a mutually unbiased family and serialize it
    verify   family unbiasedness plus the structural matrix identities
    gauss    Gauss sum identities: identity | reciprocity | even | trace | powersums
    seq      bi-unimodularity verdicts for Gauss sequences
    search   exhaustive bi-unimodular search over a root-of-unity alphabet
    sweep    the full battery (verify + gauss identities) over a range

The CLI owns parsing, planning, running and rendering; the paper's claims are
measured by mub, gauss and sequences, whose functions return deviations or the
cases that disagree.  _plan turns the arguments into checks, one per case:
plain functions of the case and its final tolerance, which _plan computes,
that build records from those results.  A verify check builds the family and
asks its recipe which claim the dimension class adds.  A record is a plain dict
(check, case, passed, deviation, tolerance, detail, elapsed_s); _within
holds the one pass rule, deviation <= tolerance, for _bounded's records and
the pair tables alike, and passed is None on an informational record (gauss
identity probes each --l not coprime with d this way).  A family's pair
verdicts stay one pair table (its UnbiasednessReport) while the checks run;
every renderer reads the records through _records, which expands each table
one pair-unbiased record at a time from _pair_rows, the json writer's one
source of a table's pairs too.  _run times each check
in turn and sorts records and tables by (check, case), so reports are
deterministic.  main() then puts the report together once, as one plain
mub-report/1 dict (config, records, summary and,
for build, the MubFamily itself), and the json, text and csv renderers write
that dict straight into the --output file or stdout, which is opened before
any check runs.  json and text scale each member only as they write it
(scale * entries), csv writes the member's own entries.  The json writer
writes only what a report holds: scalars, flat dicts of scalars, the records,
the family and its matrices.  It emits the bytes of json.dump(doc, indent=2)
one top-level key, record and matrix row at a time, fills each record and its
case into one template of encoded keys (a pair table fills it once, and each of
its pairs only with its pair text, verdict and deviation), and formats a
circulant member from its first column.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error
(a bad argument or an --output path that cannot be opened), 3 internal error
(an unexpected exception, reported with its traceback on stderr).

The --tol flag sets the tolerance base; _plan scales it by sqrt(d) for the
matrix and sequence checks and hands scalar Gauss sum checks the base itself.
A family is built unchecked and measured once, by its pair-unbiased records:
the pair of the identity with a member measures that member's own unitarity.
Every span goes through parse_span and every other bound through
_check_bounds, so _plan refuses a build, verify or sweep dimension above
MAX_DENSE, a gauss or seq length above phase_ring's MAX_MODULUS, any span of
more than MAX_SPAN values, a reciprocity plan of more (a, d) pairs, powersums
and search arguments outside what their checks accept, and a base that
overflows once scaled, as a usage error before any check is built.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
import traceback
from contextlib import nullcontext
from functools import partial
from json.encoder import encode_basestring_ascii
from types import GeneratorType

import numpy as np

from . import __version__
from .gauss import (
    gauss_identity_sweep,
    is_prime,
    power_sum_deviations,
    reciprocity_deviations,
    shift_sums,
    smallest_nontrivial_divisor,
    triangular_trace_deviations,
    verify_even_gauss,
)
from .linalg import DEFAULT_TOL_BASE, CirculantMatrix, as_matrix, default_tolerance
from .mub import (
    MubFamily,
    Recipe,
    build_family,
    coprime_power_mismatches,
    negative_check_even,
    structural_identities,
    verify_family,
)
from .phase_ring import MAX_MODULUS
from .sequences import (
    MAX_SEARCH_ALPHABET,
    MAX_SEARCH_DIMENSION,
    alphabet_exponents,
    exhaustive_biunimodular,
    gauss_sequence,
    group_orbits,
    is_biunimodular,
)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCHEMA = "mub-report/1"
MAX_DENSE = 512  # the largest build, verify or sweep dimension: their checks materialize d x d matrices
MAX_SPAN = 10**6  # the most values a span may list, and the most (a, d) pairs reciprocity plans


class UsageError(Exception):
    pass


def _record(check: str, case: dict, passed, deviation=None, tolerance=None, detail: str = "") -> dict:
    """One report record; passed is None for an informational record."""
    return {
        "check": check,
        "case": case,
        "passed": passed,
        "deviation": deviation,
        "tolerance": tolerance,
        "detail": detail,
        "elapsed_s": 0.0,
    }


def _within(deviation, tolerance):
    """The one pass rule, deviation <= tolerance (NaN fails), of one deviation
    or elementwise of an array of them."""
    return deviation <= tolerance


def _bounded(check: str, case: dict, deviation: float, tolerance: float, detail: str = "") -> dict:
    """A record that passes exactly when the deviation is within the tolerance."""
    return _record(check, case, _within(deviation, tolerance), deviation, tolerance, detail)


def case_text(record: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in record["case"].items())


def _pair_rows(record: dict):
    """The fields of the _bounded record a pair table's pairs share (its
    passed, deviation and case's pair are theirs), and a generator of each
    pair's (text A|B, passed, deviation) in text order; the sort is stable,
    so equal texts keep family order."""
    table, tolerance = record["table"], record["tolerance"]
    shared = _bounded(record["check"], record["case"], 0.0, tolerance)
    shared["elapsed_s"] = record["elapsed_s"]
    texts = [f"{label_a}|{label_b}" for label_a, label_b in table.pairs]
    passes, deviations = _within(table.deviations, tolerance).tolist(), table.deviations.tolist()
    order = sorted(range(len(texts)), key=texts.__getitem__)
    return shared, ((texts[i], passes[i], deviations[i]) for i in order)


def _records(records: list[dict]):
    """Each record in turn, with every pair table expanded, in pair-text order,
    into the pair-unbiased records _bounded makes, stamped with its elapsed_s."""
    for record in records:
        if "table" not in record:
            yield record
            continue
        shared, rows = _pair_rows(record)
        for text, passed, deviation in rows:
            yield {**shared, "case": {**record["case"], "pair": text}, "passed": passed, "deviation": deviation}


def _summary(records: list[dict]) -> dict:
    """Counts over _records(records); a pair table counts _within over its
    deviation array and makes no record."""
    verdicts = [r["passed"] for r in records if "table" not in r]
    within = [_within(r["table"].deviations, r["tolerance"]) for r in records if "table" in r]
    pairs, passed = sum(w.size for w in within), sum(int(w.sum()) for w in within)
    return {
        "total": len(verdicts) + pairs,
        "passed": sum(v is True for v in verdicts) + passed,
        "failed": sum(v is False for v in verdicts) + pairs - passed,
        "informational": sum(v is None for v in verdicts),
    }


# ---------------------------------------------------------------------------
# argument handling


def _check_bounds(flag: str, values, lo: int | None = None, hi: int | None = None) -> None:
    """Refuse an int, or a span's first..last, that reaches below lo or above hi."""
    first, last = (values[0], values[-1]) if isinstance(values, range) else (values, values)
    if (lo is None or first >= lo) and (hi is None or last <= hi):
        return
    bound = f"be >= {lo}" if hi is None else f"be at most {hi}" if lo is None else f"lie in {lo}..{hi}"
    raise UsageError(f"{flag} must {bound}, got {first if first == last else f'{first}..{last}'}")


def parse_span(text: str, flag: str = "span", lo: int | None = None, hi: int | None = None) -> range:
    """'7' -> 7..7, '2..30' -> 2..30 (inclusive bounds); a malformed or empty span,
    or one that reaches outside lo..hi or lists more than MAX_SPAN values, is a UsageError."""
    try:
        if ".." in text:
            first_text, last_text = text.split("..", 1)
            first, last = int(first_text), int(last_text)
        else:
            first = last = int(text)
    except ValueError as exc:
        raise UsageError(f"malformed span {text!r}, expected N or A..B") from exc
    if first > last:
        raise UsageError(f"empty span {text!r} (lower bound exceeds upper)")
    span = range(first, last + 1)
    _check_bounds(flag, span, lo, hi)
    if last - first >= MAX_SPAN:
        raise UsageError(f"{flag} may span at most {MAX_SPAN} values, got {last - first + 1}")
    return span


def _scaled(d: int, base: float) -> float:
    """default_tolerance(d, base), whose refusal of the base is a usage error."""
    try:
        return default_tolerance(d, base)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL_BASE, help="tolerance base (default 1e-9)")
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="text")
    common.add_argument("--output", default=None, help="write the report to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="circulant-mub",
        description="Construct and verify mutually unbiased bases built from circulant matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common], help="construct one family and serialize it")
    p.add_argument("--dim", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="verify families and matrix identities")
    p.add_argument("--dims", required=True, help="dimension span, e.g. 2..30")

    p = sub.add_parser("gauss", parents=[common], help="Gauss sum identities; identity probes a non-coprime --l")
    p.add_argument("mode", choices=("identity", "reciprocity", "even", "trace", "powersums"))
    p.add_argument("--d", dest="d_span", default=None, help="modulus/dimension span")
    p.add_argument("--l", dest="l_span", default=None, help="multiplier span (identity mode; default the l coprime with d)")
    p.add_argument("--a", dest="a_span", default=None, help="leading coefficient span (reciprocity mode)")
    p.add_argument("--b", dest="b_span", default=None, help="linear coefficient span (reciprocity mode)")
    p.add_argument("--k", dest="k_span", default=None, help="power span (trace and powersums modes)")
    p.add_argument("--m", dest="m_span", default=None, help="offset span (powersums mode)")

    p = sub.add_parser("seq", parents=[common], help="sequence-level checks")
    p.add_argument("mode", choices=("gauss",))
    p.add_argument("--d", dest="d_span", required=True, help="odd dimension span")
    p.add_argument("--k", dest="k_span", default=None, help="multiplier span (default 1..d-1)")

    p = sub.add_parser("search", parents=[common], help="exhaustive bi-unimodular search")
    p.add_argument("--d", dest="dim", type=int, required=True)
    p.add_argument("--alphabet", type=int, required=True, help="order of the root-of-unity alphabet")

    p = sub.add_parser("sweep", parents=[common], help="full battery over a dimension span")
    p.add_argument("--dims", required=True, help="dimension span, e.g. 2..20")

    return parser


# ---------------------------------------------------------------------------
# checks: each takes one case and its final tolerance and returns its records


def _family_records(d: int, tol: float, payload: dict) -> list[dict]:
    """Build the family of dimension d, put it into payload and verify it at the scaled
    tol: its family-size record, and its pair table for _records to expand."""
    family = payload["family"] = build_family(d)
    if family.recipe in (Recipe.D_TWO, Recipe.EVEN):
        expected = 3
    elif family.recipe is Recipe.PRIME:
        expected = d + 1
    else:
        expected = smallest_nontrivial_divisor(d) + 1
    detail = f"recipe={family.recipe.value} bases={len(family.bases)} expected={expected}"
    table = {"check": "pair-unbiased", "case": {"d": d}, "tolerance": tol, "table": verify_family(family, tol)}
    return [_record("family-size", {"d": d}, len(family.bases) == expected, detail=detail), table]


def _verify_check(d: int, tol: float) -> list[dict]:
    """The family's records, the structural identities and the one claim the family's recipe adds."""
    payload = {}
    records = _family_records(d, tol, payload)
    records.extend(_bounded(check, case, deviation, tol) for check, case, deviation in structural_identities(d))
    if payload["family"].recipe is Recipe.ODD_COMPOSITE:
        wrong = coprime_power_mismatches(d, tol)
        detail = f"k=1..{d - 1}" + (f" mismatches at {wrong}" if wrong else "")
        records.append(_record("rotation-power-hadamard-iff-coprime", {"d": d}, not wrong, None, tol, detail))
    elif payload["family"].recipe is Recipe.EVEN:
        square = negative_check_even(d, tol)
        detail = "Gram and entry-modulus defects of R^2, read from its spectrum s^2"
        records.append(_record("rotation-square-not-hadamard", {"d": d}, square.passed, square.deviation, tol, detail))
    return records


def _matrix_payload(label: str, matrix, d: int) -> dict:
    circulant = isinstance(matrix, CirculantMatrix)  # kept as its first column, which holds every entry
    entries = matrix.first_column if circulant else as_matrix(matrix)
    hadamard_scale = 1.0 / math.sqrt(d)
    if np.abs(np.abs(entries) - hadamard_scale).max() <= default_tolerance(d, 1e-12):
        scale = hadamard_scale
    else:
        scale = 1.0
    entries = entries / scale
    return {"label": label, "scale": scale, "entries": CirculantMatrix(d, entries) if circulant else entries}


def _family_payload(family: MubFamily) -> dict:
    """The family as json and text write it: each member as scale * entries,
    scaled one at a time as the renderer reaches it."""
    d = family.dimension
    return {
        "dimension": d,
        "recipe": family.recipe.value,
        "bases": (_matrix_payload(label, basis, d) for label, basis in family.bases),
    }


def _identity_check(d: int, multipliers: list[int], base_tol: float) -> list[dict]:
    records = []
    for l in multipliers:
        if math.gcd(l, d) == 1:
            dev = float(gauss_identity_sweep(d, l).max())
            records.append(
                _bounded("gauss-identity", {"d": d, "l": l}, dev, base_tol, "max over all shifts j")
            )
        else:
            sums = np.abs(shift_sums(d, l))
            records.append(
                _record(
                    "gauss-identity-probe",
                    {"d": d, "l": l},
                    None,
                    detail=(
                        f"gcd={math.gcd(l, d)}; |sum| over shifts ranges "
                        f"[{sums.min():.6f}, {sums.max():.6f}], sqrt(d)={math.sqrt(d):.6f}"
                    ),
                )
            )
    return records


def _reciprocity_check(a: int, d: int, b_span: range | None, base_tol: float) -> list[dict]:
    deviations = reciprocity_deviations(a, b_span if b_span is not None else range(-2 * d, 2 * d + 1), d)
    case, detail = {"a": a, "d": d}, f"{deviations.size} parity-valid b values"
    if not deviations.size:  # no triple was tested: nothing passed or failed
        return [_record("reciprocity-consistency", case, None, detail=detail)]
    return [_bounded("reciprocity-consistency", case, float(deviations.max()), base_tol, detail)]


def _even_check(d: int, base_tol: float) -> list[dict]:
    dev = verify_even_gauss(d)
    return [_bounded("even-gauss-sum", {"d": d}, dev, base_tol)]


def _trace_check(d: int, ks: list[int], base_tol: float) -> list[dict]:
    worst = float(triangular_trace_deviations(d, ks).max())
    detail = f"max over {len(ks)} coprime powers"
    return [_bounded("triangular-trace", {"d": d}, worst, base_tol, detail)]


def _powersums_check(
    d: int, k_span: range | None, m_span: range | None, base_tol: float
) -> list[dict]:
    ks = list(k_span) if k_span is not None else list(range(1, d))
    ms = list(m_span) if m_span is not None else list(range(-2, 3))
    worst = float(max(deviations.max() for deviations in power_sum_deviations(d, ks, ms)))
    detail = f"{len(ks)} powers x {len(ms)} offsets, both moduli"
    return [_bounded("rotation-power-sums", {"d": d}, worst, base_tol, detail)]


def _seq_check(d: int, k_span: range | None, tol: float) -> list[dict]:
    records = []
    for k in k_span if k_span is not None else range(1, d):
        report = is_biunimodular(gauss_sequence(d, k), tol)
        expected = math.gcd(k, d) == 1
        if expected:
            detail = f"expected bi-unimodular (gcd=1), worst deviation {report.deviation:.3e}"
        else:
            detail = (
                f"expected not bi-unimodular (gcd={math.gcd(k, d)}); "
                f"|dft| moduli range [{report.freq_moduli.min():.6f}, "
                f"{report.freq_moduli.max():.6f}]"
            )
        records.append(
            _record(
                "gauss-sequence-biunimodular",
                {"d": d, "k": k},
                report.passed == expected,
                report.deviation,
                tol,
                detail,
            )
        )
    return records


def _search_records(d: int, alphabet: int, tol: float) -> list[dict]:
    hits = exhaustive_biunimodular(d, alphabet, tol)
    orbits = group_orbits(hits)
    records = []
    for index, (key, members) in enumerate(orbits):
        rep = ", ".join(f"{re:+.6f}{im:+.6f}j" for re, im in key)
        exps = ",".join(map(str, alphabet_exponents(key, alphabet)))
        detail = f"representative [{rep}] | members {len(members)} | exponents of e(2*pi*i/{alphabet}): {exps}"
        records.append(_record("search-orbit", {"d": d, "alphabet": alphabet, "orbit": index}, None, detail=detail))
    detail = f"{len(hits)} bi-unimodular sequences in {len(orbits)} orbits out of {alphabet**d} candidates"
    records.append(_record("search-total", {"d": d, "alphabet": alphabet}, None, detail=detail))
    return records


# ---------------------------------------------------------------------------
# planning and running


def _coprime(values, d: int) -> list[int]:
    return [v for v in values if math.gcd(v, d) == 1]


def _odd_dims(dims: range, what: str) -> list[int]:
    odd_dims = [d for d in dims if d % 2 and d >= 3]
    if not odd_dims:
        raise UsageError(f"{what} needs at least one odd dimension >= 3 in --d")
    return odd_dims


def _plan(args, base_tol: float) -> tuple[list, dict]:
    """Validate the arguments and turn them into zero-argument checks, each
    with its final tolerance, plus the body a build check fills in (or {})."""
    payload = {}
    checks = []
    if args.command == "build":
        _check_bounds("--dim", args.dim, 2, MAX_DENSE)
        checks = [partial(_family_records, args.dim, _scaled(args.dim, base_tol), payload)]
    elif args.command == "search":
        _check_bounds("search --d", args.dim, 1, MAX_SEARCH_DIMENSION)
        _check_bounds("search --alphabet", args.alphabet, 1, MAX_SEARCH_ALPHABET)
        checks = [partial(_search_records, args.dim, args.alphabet, _scaled(args.dim, base_tol))]
    elif args.command == "seq":
        dims = parse_span(args.d_span, "--d", hi=MAX_MODULUS)
        k_span = parse_span(args.k_span, "--k") if args.k_span else None
        checks = [partial(_seq_check, d, k_span, _scaled(d, base_tol)) for d in _odd_dims(dims, "seq gauss")]
    elif args.command in ("verify", "sweep"):
        dims = parse_span(args.dims, "--dims", lo=2)
        _check_bounds("--dims", dims, hi=MAX_DENSE)  # after the span-length rule of parse_span
        checks = [partial(_verify_check, d, _scaled(d, base_tol)) for d in dims]
        if args.command == "sweep":
            for d in dims:
                if d % 2:
                    coprime = _coprime(range(1, d), d)
                    checks.append(partial(_identity_check, d, coprime, base_tol))
                    checks.append(partial(_trace_check, d, coprime, base_tol))
                else:
                    checks.append(partial(_even_check, d, base_tol))
    elif args.d_span is None:
        raise UsageError("gauss requires --d")
    else:
        dims = parse_span(args.d_span, "--d", hi=MAX_MODULUS)
        # every mode parses every span it was given, used or not
        a_span, b_span, k_span, l_span, m_span = (
            parse_span(text, f"--{name}") if text else None
            for name, text in zip("abklm", (args.a_span, args.b_span, args.k_span, args.l_span, args.m_span))
        )
        if args.mode == "identity":
            for d in _odd_dims(dims, "identity mode"):
                multipliers = list(l_span) if l_span is not None else _coprime(range(1, d), d)
                checks.append(partial(_identity_check, d, multipliers, base_tol))
        elif args.mode == "reciprocity":
            a_span = a_span or range(1, 21)
            _check_bounds("--a", a_span, 1, MAX_MODULUS)
            _check_bounds("--d", dims, lo=1)
            pairs = len(a_span) * len(dims)
            if pairs > MAX_SPAN:
                raise UsageError(f"--a x --d may list at most {MAX_SPAN} (a, d) pairs, got {pairs}")
            checks = [partial(_reciprocity_check, a, d, b_span, base_tol) for a in a_span for d in dims]
        elif args.mode == "even":
            even_dims = [d for d in dims if d % 2 == 0 and d >= 2]
            if not even_dims:
                raise UsageError("even mode needs at least one even dimension >= 2 in --d")
            checks = [partial(_even_check, d, base_tol) for d in even_dims]
        elif args.mode == "trace":
            for d in _odd_dims(dims, "trace mode"):
                ks = _coprime(k_span if k_span is not None else range(1, d), d)
                if not ks:
                    raise UsageError(f"no multiplier coprime with d={d} in --k")
                checks.append(partial(_trace_check, d, ks, base_tol))
        else:
            primes = [d for d in dims if d % 2 and is_prime(d)]
            if not primes:
                raise UsageError("powersums mode needs at least one odd prime in --d")
            p = primes[0]  # the least prime bounds k and m for every prime in --d
            if k_span:
                _check_bounds(f"powersums --k for d={p}", k_span, 1, p - 1)
            if m_span:
                _check_bounds(f"powersums --m for d={p}", m_span, 1 - p, p - 1)
            checks = [partial(_powersums_check, d, k_span, m_span, base_tol) for d in primes]
    return checks, payload


def _run(checks: list) -> list[dict]:
    """Run the checks in turn; stamp every record and pair table with the wall
    time of the check that produced it and sort by (check, case): a pair table
    sorts under (pair-unbiased, d), and _records expands it in pair-label order."""
    records = []
    for check in checks:
        started = time.perf_counter()
        group = check()
        elapsed = round(time.perf_counter() - started, 6)
        for record in group:
            record["elapsed_s"] = elapsed
        records.extend(group)
    records.sort(key=lambda r: (r["check"], *r["case"].values()))  # one check's cases share keys and types
    return records


# ---------------------------------------------------------------------------
# output


def _render_text(doc: dict, handle) -> None:
    """Write the text report into handle one line at a time."""
    write = handle.write
    write(f"schema={doc['schema']} version={doc['version']} command={doc['command']}\n")
    write("config: " + " ".join(f"{k}={v}" for k, v in doc["config"].items() if v is not None) + "\n")
    if "family" in doc:
        fam = _family_payload(doc["family"])
        write(f"family: d={fam['dimension']} recipe={fam['recipe']} bases={len(doc['family'].bases)}\n")
        for basis in fam["bases"]:
            write(f"  {basis['label']} (scale {basis['scale']:.9g}):\n")
            body = np.array2string(as_matrix(basis["entries"]), precision=6, suppress_small=True, max_line_width=120)
            write("".join(f"    {line}\n" for line in body.splitlines()))
    if doc["records"]:
        write(f"{'status':6} {'check':38} {'case':24} {'deviation':>12} {'tolerance':>12}\n")
        for r in _records(doc["records"]):
            status = "pass" if r["passed"] else "FAIL" if r["passed"] is False else "info"
            dev = f"{r['deviation']:.3e}" if r["deviation"] is not None else "-"
            tol = f"{r['tolerance']:.3e}" if r["tolerance"] is not None else "-"
            detail = f"  {r['detail']}" if r["detail"] else ""
            write(f"{status:6} {r['check']:38} {case_text(r):24} {dev:>12} {tol:>12}{detail}\n")
    s = doc["summary"]
    write(
        f"summary: {s['total']} checks | {s['passed']} passed | {s['failed']} failed | "
        f"{s['informational']} informational | {doc['elapsed_s']:.2f}s\n"
    )


def _render_csv(doc: dict, handle) -> None:
    writer = csv.writer(handle)
    if "family" in doc:
        writer.writerow(["basis", "row", "col", "re", "im"])
        # the rows csv.writer writes for [label, i, j, re, im]: floats as
        # repr, and the labels (I, F, Y, R, R^k) need no quoting
        d = doc["family"].dimension
        positions = np.array([f"{i},{j}," for i in range(d) for j in range(d)], dtype=object)
        for label, basis in doc["family"].bases:
            cells = _entry_texts(basis, lambda re, im: f"{re!r},{im!r}")
            rows = (positions + cells.ravel()).tolist()
            handle.write(f"{label}," + f"\r\n{label},".join(rows) + "\r\n")
    else:
        writer.writerow(["check", "case", "passed", "deviation", "tolerance", "elapsed_s", "detail"])
        for r in _records(doc["records"]):
            writer.writerow(
                [
                    r["check"],
                    case_text(r),
                    "" if r["passed"] is None else str(r["passed"]).lower(),
                    "" if r["deviation"] is None else repr(r["deviation"]),
                    "" if r["tolerance"] is None else repr(r["tolerance"]),
                    r["elapsed_s"],
                    r["detail"],
                ]
            )


_INDENT = "  "


def _entry_texts(matrix, cell) -> np.ndarray:
    """cell(re, im) for every entry of a complex matrix, as an object array of
    its shape.  Each entry is keyed by its 16 bytes, and cell runs once per
    distinct key: comparing bytes, not values, keeps -0.0 apart from 0.0 and
    NaN payloads apart.  A circulant gathers the texts of its first column c
    as C[i, j] = c[(i - j) mod d]."""
    if isinstance(matrix, CirculantMatrix):
        return CirculantMatrix(matrix.dimension, _entry_texts(matrix.first_column, cell)).to_dense()
    entries = np.ascontiguousarray(as_matrix(matrix), dtype=np.complex128)
    distinct, inverse = np.unique(entries.reshape(-1).view("V16"), return_inverse=True)
    texts = np.array([cell(z.real, z.imag) for z in distinct.view(np.complex128).tolist()], dtype=object)
    return texts[inverse.reshape(entries.shape)]


def _matrix_rows(matrix, level: int) -> list[str]:
    row, cell = "\n" + _INDENT * (level + 2), "\n" + _INDENT * (level + 3)
    grid = _entry_texts(matrix, lambda re, im: f"[{cell}{_json_text(re)},{cell}{_json_text(im)}{row}]")
    return [f"[{row}" + f",{row}".join(cells) + f"\n{_INDENT * (level + 1)}]" for cells in grid.tolist()]


def _json_text(value) -> str:
    """A report's scalar, a str, None, a bool, an int or a float, as json.dump
    writes it; anything else is a TypeError, as in json.dump."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_LITERALS = {None: "null", True: "true", False: "false"}
_RECORD_KEYS = tuple(_record("", {}, None))


def _record_texts(records: list[dict], level: int):
    """json.dump(record, indent=2) at nesting depth level for each record of
    _records(records), one text per record: one template of the encoded record
    keys, filled with check and detail (strs), passed (True, False or None), the
    floats and the case, a flat dict of ints and strs joined with its encoded
    keys ({} when empty).  A pair table fills the template once with the
    fields of the _bounded record its pairs share, all but the pair text,
    passed and the deviation, so each pair costs one %."""
    inner = "\n" + _INDENT * (level + 1)
    template = ",".join(f"{inner}{encode_basestring_ascii(k)}: %s" for k in _RECORD_KEYS)
    template = "{" + template + "\n" + _INDENT * level + "}"
    field = "\n" + _INDENT * (level + 2)

    def case_text(fields: list[str]) -> str:
        return "{" + field + f",{field}".join(fields) + inner + "}" if fields else "{}"

    for record in records:
        fields = [f"{encode_basestring_ascii(k)}: {_json_text(v)}" for k, v in record["case"].items()]
        if "table" not in record:
            check, _, passed, *texts = record.values()  # then deviation, tolerance, detail and elapsed_s
            yield template % (_json_text(check), case_text(fields), _LITERALS[passed], *map(_json_text, texts))
            continue
        # a table's check and case ({"d": d}) hold no %, so only the three %s
        # left open are read
        shared, rows = _pair_rows(record)
        check, _, _, _, *texts = shared.values()  # then tolerance, detail and elapsed_s
        filled = template % (_json_text(check), case_text([*fields, '"pair": %s']), "%s", "%s", *map(_json_text, texts))
        for text, passed, deviation in rows:
            yield filled % (encode_basestring_ascii(text), _LITERALS[passed], _json_text(deviation))


def _write_json(value, write, level: int = 0) -> None:
    """Write the report, or its value at nesting depth level, as json.dump(value,
    indent=2) does, never as one string.  Besides scalars it writes a dict one
    key at a time, the family (a MubFamily, as its payload) one member of its
    generator at a time, the records list one record at a time through
    _record_texts, and a complex matrix (2-D, non-empty) one row at a time."""
    if isinstance(value, MubFamily):
        value = _family_payload(value)
    if not isinstance(value, (dict, GeneratorType, list, np.ndarray, CirculantMatrix)):
        write(_json_text(value))
        return
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    inner = "\n" + _INDENT * (level + 1)
    separator = opening + inner
    if isinstance(value, dict):
        for key, item in value.items():
            write(separator + encode_basestring_ascii(key) + ": ")
            _write_json(item, write, level + 1)
            separator = "," + inner
    elif isinstance(value, GeneratorType):  # the family's members, each scaled as it is reached
        for item in value:
            write(separator)
            _write_json(item, write, level + 1)
            separator = "," + inner
    else:
        texts = _record_texts(value, level + 1) if isinstance(value, list) else _matrix_rows(value, level)
        for text in texts:
            write(separator + text)
            separator = "," + inner
    write(opening + closing if separator[0] == opening else "\n" + _INDENT * level + closing)  # {} or [] if empty


def _destination(output: str | None):
    """The --output file opened for writing, or stdout.  It is opened before
    any check runs, so a path that cannot be written is a usage error found
    at once rather than after all the work."""
    if not output:
        return nullcontext(sys.stdout)
    try:
        return open(output, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write --output {output!r}: {exc.strerror or exc}") from exc


def _emit(doc: dict, handle) -> None:
    """Render the report straight into its open destination."""
    fmt = doc["config"]["format"]
    if fmt == "json":
        _write_json(doc, handle.write)
        handle.write("\n")
    elif fmt == "csv":
        _render_csv(doc, handle)
    else:
        _render_text(doc, handle)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        base_tol = _scaled(1, args.tol)  # the base itself, refused unless positive and finite
        checks, payload = _plan(args, base_tol)
        with _destination(args.output) as handle:
            records = _run(checks)
            config = {"tolerance_base": base_tol, "format": args.fmt, "output": args.output}
            # then every remaining argument that was given, in name order
            listed = {"tol", "fmt", "output", "command"}
            config.update((k, v) for k, v in sorted(vars(args).items()) if k not in listed and v is not None)
            doc = {
                "schema": SCHEMA,
                "version": __version__,
                "command": args.command,
                "config": config,
                "records": records,
                "summary": _summary(records),
                "elapsed_s": round(time.perf_counter() - started, 6),
                **payload,
            }
            _emit(doc, handle)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect of the program, not of its input or its verdicts
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_FAILURES if doc["summary"]["failed"] else EXIT_OK

