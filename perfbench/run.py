"""Benchmark of the circulant-mub verifier, run from the root of a checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

--trace 0 (end to end): each workload runs as fresh
`python -m circulant_mub ... --format json` processes in a closed loop, one
process at a time at the CLI's default --parallelism 1, with the machine's
default BLAS threads.  Fresh `python -c "import circulant_mub"` processes
time set-up.  The seed sets the order in which these repeats interleave; the
inputs are the workloads' fixed spans.

--trace 1 (per layer): the same CLI arguments run in-process through
perfbench/child.py, a fresh process per run: traced, traced with
OPENBLAS_NUM_THREADS=1, and untraced for the tracing overhead.

Every report passes the gate in workloads.py.  Readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Logs, reports and the per-function table of the last
run are left in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from launcher import Sample
from layers import PER_LAYER
from stats import median, tail
from workloads import WORKLOADS, check_report, load_reference, reference_path, report_headroom

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5

# Metrics in the result line of --trace 0: every workload always has them.
# wall_tail_s, failed_frac and headroom_digits are printed above it; they are
# absent on some workloads (too few samples, no deviations) or always 0.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

ENV_PROBE = """
import json, os, platform, numpy
import circulant_mub, circulant_mub.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "cpu_count": os.cpu_count(),
    "package_file": circulant_mub.__file__,
}))
"""


class SetupError(Exception):
    pass


def child_env(blas_threads: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


class Launcher:
    """The process of launcher.py, which spawns every measured process; start
    it before this process loads references or reports."""

    def __enter__(self) -> "Launcher":
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def spawn(self, argv: list[str], env: dict, log: Path) -> Sample:
        self._proc.stdin.write(json.dumps({"argv": argv, "env": env, "log": str(log)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SetupError(f"launcher exited with {self._proc.wait()}")
        return Sample(**json.loads(line))

    def __exit__(self, *exc_info) -> None:
        if exc_info[0] is not None:
            self._proc.terminate()  # the launcher kills its running child on the way out
        self._proc.stdin.close()
        self._proc.wait()


def environment() -> dict:
    """Check that the checkout's package imports (compiling its bytecode, so
    set-up probes time a warm import) and describe the environment."""
    if not (ROOT / "src" / "circulant_mub" / "cli.py").is_file():
        raise SetupError(f"no circulant_mub package under {ROOT / 'src'}")
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
    )
    if probe.returncode:
        raise SetupError(f"importing circulant_mub failed:\n{probe.stderr}")
    env = json.loads(probe.stdout)
    package = Path(env.pop("package_file")).resolve()
    if ROOT / "src" not in package.parents:
        raise SetupError(f"circulant_mub imported from {package}, not from this checkout")
    env["src_lines"] = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return env


@dataclass
class Loop:
    """One kind of repeat: run while the projected cost stays within the
    budget (at least once), or exactly `repeats` times without a budget."""

    run: Callable[[], None]
    budget_s: float = 0.0
    repeats: int = 0
    costs: list[float] = field(default_factory=list)

    def wants_more(self) -> bool:
        if not self.budget_s:
            return len(self.costs) < self.repeats
        return not self.costs or sum(self.costs) + median(self.costs) <= self.budget_s


def interleave(loops: list[Loop], rng: random.Random) -> None:
    """Closed loop: one repeat at a time, in rounds whose order the seed sets."""
    while pending := [loop for loop in loops if loop.wants_more()]:
        rng.shuffle(pending)
        for loop in pending:
            started = time.perf_counter()
            loop.run()
            loop.costs.append(time.perf_counter() - started)


@dataclass
class Outcome:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    headroom: list[float] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    blas1: list[dict] = field(default_factory=list)
    plain_main_s: list[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, what: str, problems: list[str]) -> None:
        self.problems.append(f"{what}: {'; '.join(problems)}")


def end_to_end_loop(name: str, seconds: float, outcome: Outcome, launcher: Launcher) -> Loop:
    workload, reference = WORKLOADS[name], load_reference(name)
    report = OUT / f"{name}.report.json"

    def run() -> None:
        report.unlink(missing_ok=True)
        sample = launcher.spawn(
            [sys.executable, "-m", "circulant_mub", *workload.cli_args(report)], child_env(), OUT / f"{name}.log"
        )
        outcome.attempted += 1
        outcome.samples.append(sample)
        problems, doc = check_report(workload, sample.exit_code, report, reference)
        if problems:
            outcome.fail(f"run {outcome.attempted}", problems)
        elif (digits := report_headroom(doc)) is not None:
            outcome.headroom.append(digits)

    return Loop(run, budget_s=seconds)


def trace_loop(name: str, seconds: float, outcome: Outcome, rng: random.Random, launcher: Launcher) -> Loop:
    workload, reference = WORKLOADS[name], load_reference(name)
    variants = (("traced", None), ("blas1", 1), ("plain", None))

    def run() -> None:
        for variant, blas_threads in rng.sample(variants, len(variants)):
            report, result_path = OUT / f"{name}.{variant}.report.json", OUT / f"{name}.{variant}.json"
            report.unlink(missing_ok=True)
            result_path.unlink(missing_ok=True)
            mode = "plain" if variant == "plain" else "traced"
            sample = launcher.spawn(
                [sys.executable, str(HERE / "child.py"), mode, str(result_path), *workload.cli_args(report)],
                child_env(blas_threads),
                OUT / f"{name}.{variant}.log",
            )
            outcome.attempted += 1
            if sample.exit_code != 0:
                outcome.fail(f"{variant} run", [f"child exit code {sample.exit_code}"])
                continue
            result = json.loads(result_path.read_text(encoding="utf-8"))
            problems, doc = check_report(workload, result["exit_code"], report, reference)
            if problems:
                outcome.fail(f"{variant} run", problems)
            elif variant == "plain":
                outcome.plain_main_s.append(result["main_s"])
            else:
                metrics = result["metrics"]
                metrics["startup.self_s"] = result["imports_done_epoch"] - sample.started_epoch
                metrics["cli.records"] = len(doc["records"])
                metrics["cli.report_bytes"] = report.stat().st_size
                metrics["main_s"] = result["main_s"]
                (outcome.blas1 if variant == "blas1" else outcome.traced).append(result)

    return Loop(run, budget_s=seconds)


def end_to_end_metrics(outcome: Outcome, setup: list[float]) -> tuple[dict, list[str]]:
    """The result-line metrics and the readable lines for one workload."""
    walls = [s.wall_s for s in outcome.samples]
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "cpu_s": median([s.cpu_s for s in outcome.samples]),
        "peak_rss_mb": median([s.peak_rss_mb for s in outcome.samples]),
    }
    n = len(walls)
    lines = [
        f"  setup_s          {metrics['setup_s']:.4f} s       median of {len(setup)} fresh imports",
        f"  wall_s           {metrics['wall_s']:.4f} s       median of {n} runs, spawn to exit",
    ]
    tail_value = tail(walls)
    if tail_value is None:
        lines.append(f"  wall_tail_s      absent         {n} runs; a tail needs at least 11")
    else:
        lines.append(f"  wall_tail_s      {tail_value[1]:.4f} s       p{tail_value[0]:.1f} of {n} runs")
    lines += [
        f"  cpu_s            {metrics['cpu_s']:.4f} s       median child user+sys",
        f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB       median child max RSS",
        f"  failed_frac      {outcome.failed / max(outcome.attempted, 1):.4f}         "
        f"{outcome.failed} of {outcome.attempted} runs failed",
    ]
    if outcome.headroom:
        lines.append(f"  headroom_digits  {min(outcome.headroom):.4f} digits  min over records of log10(tol/dev)")
    else:
        lines.append("  headroom_digits  absent         no record carries a deviation")
    return metrics, lines


def per_layer_metrics(outcome: Outcome) -> dict:
    """Medians over the traced runs; the .blas1 variants come from the runs
    with one BLAS thread and the overhead from the untraced runs."""

    def med(results: list[dict], key: str) -> float:
        return median([r["metrics"][key] for r in results]) if results else 0.0

    plain = median(outcome.plain_main_s) if outcome.plain_main_s else 0.0
    derived = {
        "linalg.multiply.self_s.blas1": med(outcome.blas1, "linalg.multiply.self_s"),
        "linalg.is_unitary.self_s.blas1": med(outcome.blas1, "linalg.is_unitary.self_s"),
        "trace.overhead_s": med(outcome.traced, "main_s") - plain,
    }
    return {name: derived[name] if name in derived else med(outcome.traced, name) for name, *_ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="sets the interleaving order of repeats")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    rng = random.Random(args.seed)
    outcomes = {name: Outcome() for name in names}
    setup: list[float] = []
    try:
        for name in names:
            if not reference_path(name).is_file():
                raise SetupError(f"missing reference {reference_path(name)}")
        OUT.mkdir(exist_ok=True)
        env = environment()
        with Launcher() as launcher:
            if args.trace:
                loops = [trace_loop(name, args.seconds, outcomes[name], rng, launcher) for name in names]
            else:
                loops = [end_to_end_loop(name, args.seconds, outcomes[name], launcher) for name in names]

                def probe() -> None:
                    sample = launcher.spawn([sys.executable, "-c", "import circulant_mub"], child_env(), OUT / "setup.log")
                    if sample.exit_code != 0:
                        raise SetupError(f"set-up probe exited with {sample.exit_code}")
                    setup.append(sample.wall_s)

                loops.append(Loop(probe, repeats=SETUP_PROBES))
            interleave(loops, rng)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mode = "per-layer, traced" if args.trace else "end to end, closed loop, one process at a time"
    print(f"circulant-mub benchmark ({mode}), seed {args.seed}, {args.seconds:g} s per workload")
    print("environment: " + json.dumps(env, sort_keys=True))
    result_metrics: dict = {}
    for name, outcome in outcomes.items():
        prefix = "" if len(names) == 1 else f"{name}."
        print(f"workload {name}: {outcome.attempted} runs, {outcome.failed} failed")
        for problem in outcome.problems:
            print(f"  FAILED {problem}")
        if args.trace:
            values = per_layer_metrics(outcome)
            for metric, unit, _, moves in PER_LAYER:
                print(f"  {metric:38} {values[metric]:14.6g} {unit:14} moves {moves}")
            units = {metric: unit for metric, unit, *_ in PER_LAYER}
        else:
            values, lines = end_to_end_metrics(outcome, setup)
            print("\n".join(lines))
            units = END_TO_END
        result_metrics.update(
            {f"{prefix}{metric}": {"value": value, "unit": units[metric]} for metric, value in values.items()}
        )
        details = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "problems": outcome.problems,
            "samples": [vars(s) for s in outcome.samples],
            "setup_s": setup,
            "metrics": values,
            "functions": outcome.traced[-1]["functions"] if outcome.traced else None,
        }
        (OUT / f"{name}.trace{args.trace}.result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")

    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
