"""Write the verdict references the benchmark gate compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's CLI invocation once from this checkout and stores every
(check, case) -> passed verdict of its report in perfbench/reference/.  Run
it only when a change to the reports is intended, and say so.
"""

import gzip
import json
import subprocess
import sys

from run import OUT, ROOT, SetupError, child_env
from workloads import REFERENCE_DIR, WORKLOADS, check_report, record_key, reference_path


def main(names: list[str]) -> int:
    OUT.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        report = OUT / f"{name}.report.json"
        argv = [sys.executable, "-m", "circulant_mub", *workload.cli_args(report)]
        code = subprocess.run(argv, cwd=ROOT, env=child_env()).returncode
        problems, doc = check_report(workload, code, report, {"verdicts": {}})
        if problems:
            raise SetupError(f"{name}: {'; '.join(problems)}")
        verdicts = {record_key(r): r["passed"] for r in doc["records"]}
        with gzip.GzipFile(reference_path(name), "wb", mtime=0) as handle:
            handle.write(json.dumps({"argv": list(workload.argv), "verdicts": verdicts}, indent=0).encode())
        print(f"{name}: {len(verdicts)} verdicts -> {reference_path(name).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
