"""Write the CLI's reports for a fixed command list, so two trees can be diffed.

    python tools/report_snapshot.py OUT_DIR

Each command runs in process, through cli.main of the package in this tree's
src/, once per format (json, text and csv), with time.perf_counter frozen so
the elapsed_s fields read 0.  Each run writes three files into OUT_DIR, named
after the command and the format: NAME.code (the exit code), NAME.err (stderr)
and NAME.out (stdout).  Copy this script into another tree's tools/ and run it
there to snapshot that tree; `diff -r A B` of two snapshots is then empty
exactly when every report, message and exit code is byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    ["verify", "--dims", "61..97"],
    ["verify", "--dims", "2..40"],
    # complex d x d arrays reach 256 KiB at d >= 128, where numpy starts to reuse
    # the buffers of large temporaries; 131 is the least prime past that, so
    # every scaled structural identity runs there
    ["verify", "--dims", "131"],
    ["sweep", "--dims", "2..20"],
    ["build", "--dim", "2"],
    ["build", "--dim", "6"],
    ["build", "--dim", "13"],
    ["build", "--dim", "61"],
    ["verify", "--dims", "5", "--tol", "1e-30"],
    ["verify", "--dims", "9..15", "--tol", "1e-3"],
    ["gauss", "identity", "--d", "3..41"],
    # multipliers coprime with d (the identity) and not (the informational probe)
    ["gauss", "identity", "--d", "7..9", "--l", "1..4"],
    ["gauss", "identity", "--d", "9", "--l", "3"],
    ["gauss", "reciprocity", "--a", "1..20", "--d", "1..50"],
    # 4ad is about 4.0e9, so (4ad)**2 passes int64 and the quarter phases
    # square Python ints
    ["gauss", "reciprocity", "--a", "1000003", "--d", "1001", "--b=-6..6"],
    ["gauss", "even", "--d", "2..40"],
    ["gauss", "trace", "--d", "3..31"],
    ["gauss", "powersums", "--d", "3..31"],
    ["seq", "gauss", "--d", "3..41"],
    # multipliers that are negative, share a factor with d, or reach past d
    ["seq", "gauss", "--d", "9..15", "--k=-3..20"],
    # every head/tail shape of the split search: tails of 0, 1, 1, 2, 2, 3 and 3
    # digits, with heads of 0, 0, 1, 1, 2, 2 and 2 free digits
    ["search", "--d", "1", "--alphabet", "1"],
    ["search", "--d", "2", "--alphabet", "4"],
    ["search", "--d", "3", "--alphabet", "12"],
    ["search", "--d", "4", "--alphabet", "8"],
    ["search", "--d", "5", "--alphabet", "10"],
    ["search", "--d", "6", "--alphabet", "7"],
    ["search", "--d", "6", "--alphabet", "12"],
    # a --tol base other than the default, which the search kernel reads
    ["search", "--d", "5", "--alphabet", "10", "--tol", "1e-3"],
    # a base that overflows once scaled by sqrt(d) (a usage error), and the
    # same base applied as it is by a scalar Gauss sum check
    ["verify", "--dims", "4", "--tol", "1e308"],
    ["gauss", "even", "--d", "4", "--tol", "1e308"],
]
FORMATS = ("json", "text", "csv")


def run_one(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv) with the clock frozen."""
    from circulant_mub import cli

    out, err = io.StringIO(), io.StringIO()
    clock = time.perf_counter
    time.perf_counter = lambda: 0.0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse exits on a bad or missing flag
                code = exc.code
    finally:
        time.perf_counter = clock
    return code, out.getvalue(), err.getvalue()


def snapshot(out_dir: Path, commands: list[list[str]] = COMMANDS) -> list[Path]:
    """Run every command in every format and write its three files; return the
    paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for argv in commands:
        for fmt in FORMATS:
            name = re.sub(r"[^\w.-]+", "_", "_".join(arg.lstrip("-") for arg in argv)) + f".{fmt}"
            code, stdout, stderr = run_one([*argv, "--format", fmt])
            for suffix, text in (("code", f"{code}\n"), ("err", stderr), ("out", stdout)):
                path = out_dir / f"{name}.{suffix}"
                path.write_text(text, encoding="utf-8", newline="")
                written.append(path)
    return written


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    written = snapshot(Path(argv[0]))
    print(f"wrote {len(written)} files to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
