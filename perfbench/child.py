"""Run one CLI invocation in-process and write its timings as JSON.

    python3 perfbench/child.py traced|plain RESULT.json CLI-ARGS...

`traced` installs the span tracer before calling circulant_mub.cli.main;
`plain` calls it untraced, so the difference of the two main() totals is the
tracing overhead.  Each invocation is a fresh process, so the root-table
cache and the module-global dense cap start clean every time.
"""

import json
import sys
import time

from circulant_mub import cli

imports_done_epoch = time.time()  # interpreter, numpy and package start-up end here

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    mode, result_path, *cli_argv = argv
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    exit_code = cli.main(cli_argv)
    main_s = time.perf_counter() - started
    result = {"exit_code": exit_code, "imports_done_epoch": imports_done_epoch, "main_s": main_s}
    if tracer is not None:
        result.update(tracer.summary())
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
