"""The benchmark's workloads and the correctness gate every report passes.

Each workload is one fixed CLI invocation; the spans are the only input.
A run counts as failed on a nonzero exit, an unreadable report, a summary
with failures, any record with passed: false, a (check, case) verdict from
the committed reference that is missing or different (extra records are
allowed), or a workload-specific content check.  The per-record elapsed_s
field is never read: it is the task total copied onto every record.
"""

from __future__ import annotations

import gzip
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stats import headroom_digits

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCHEMA = "mub-report/1"


def _search_content(doc: dict) -> list[str]:
    orbits = [r for r in doc["records"] if r["check"] == "search-orbit"]
    members = sum(int(m.group(1)) for r in orbits if (m := re.search(r"members (\d+)", r["detail"])))
    totals = [r["detail"] for r in doc["records"] if r["check"] == "search-total"]
    problems = []
    if len(orbits) != 2 or members != 144:
        problems.append(f"expected 144 hits in 2 orbits, got {members} in {len(orbits)}")
    if len(totals) != 1 or not totals[0].startswith("144 bi-unimodular sequences in 2 orbits"):
        problems.append(f"unexpected search-total {totals}")
    return problems


def _family_content(doc: dict) -> list[str]:
    family = doc.get("family") or {}
    d = family.get("dimension")
    bases = family.get("bases") or []
    if d != 61 or len(bases) != d + 1:
        return [f"expected d=61 with 62 bases, got d={d} with {len(bases)}"]
    for basis in bases:
        rows = basis["entries"]
        if len(rows) != d or any(len(row) != d or any(len(z) != 2 for z in row) for row in rows):
            return [f"basis {basis['label']} is not a {d}x{d} complex matrix"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    content: Callable[[dict], list[str]] | None = None

    def cli_args(self, output: Path) -> list[str]:
        return [*self.argv, "--format", "json", "--output", str(output)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "families",
            ("verify", "--dims", "61..97"),
            "dense linalg through verify_family and the structural identities: 8 primes with d+1 bases, "
            "odd composites and even dims; barely touches gauss and sequences",
        ),
        Workload(
            "gauss-reciprocity",
            ("gauss", "reciprocity", "--a", "1..20", "--d", "1..50"),
            "51,750 (a, b, d) triples, 103,500 Gauss sums: Python per-call cost in gauss and phase_ring, "
            "no dense linear algebra",
        ),
        Workload(
            "search",
            ("search", "--d", "6", "--alphabet", "12"),
            "2,985,984 candidates, 144 hits in 2 orbits: the only workload that measures the sequences layer",
            _search_content,
        ),
        Workload(
            "build-json",
            ("build", "--dim", "61"),
            "one d=61 build+verify serialised to a 23 MB JSON file: dominated by cli rendering and memory",
            _family_content,
        ),
    )
}


def record_key(record: dict) -> str:
    return record["check"] + "|" + json.dumps(record["case"], sort_keys=True, separators=(",", ":"))


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json.gz"


def load_reference(name: str) -> dict:
    with gzip.open(reference_path(name), "rt", encoding="utf-8") as handle:
        return json.load(handle)


def check_report(workload: Workload, exit_code: int, report: Path, reference: dict) -> tuple[list[str], dict | None]:
    """Problems found with one run's report (empty when it passes), and the
    parsed report when it could be read."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    try:
        with open(report, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"], None
    if doc.get("schema") != SCHEMA or not isinstance(doc.get("records"), list):
        return [f"not a {SCHEMA} report"], None
    problems = []
    if doc.get("summary", {}).get("failed") != 0:
        problems.append(f"summary.failed = {doc.get('summary', {}).get('failed')}")
    failing = [record_key(r) for r in doc["records"] if r.get("passed") is False]
    if failing:
        problems.append(f"{len(failing)} records with passed: false, first {failing[0]}")
    verdicts = {record_key(r): r.get("passed") for r in doc["records"]}
    missing = [key for key in reference["verdicts"] if key not in verdicts]
    changed = [key for key, verdict in reference["verdicts"].items() if key in verdicts and verdicts[key] != verdict]
    if missing:
        problems.append(f"{len(missing)} reference records missing, first {missing[0]}")
    if changed:
        problems.append(f"{len(changed)} reference verdicts changed, first {changed[0]}")
    if workload.content is not None:
        problems.extend(workload.content(doc))
    return problems, doc


def report_headroom(doc: dict) -> float | None:
    """Headroom over the records whose verdict needs deviation <= tolerance;
    negative checks (an expected defect, deviation above tolerance) are
    skipped, and a positive check above tolerance already failed the run."""
    return headroom_digits(
        (r["deviation"], r["tolerance"])
        for r in doc["records"]
        if r.get("deviation") is not None and r.get("tolerance") is not None and r["deviation"] <= r["tolerance"]
    )
