"""The repository's benchmark: cold compiles, serving replays and a cluster replay.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --describe      # workloads, metrics and what moves what

Run it from the root of a checkout.  Each repetition of a workload runs in a
fresh Python process (``perfbench/worker.py``) with a pinned environment, so
every repetition starts cold; repetitions continue until ``--seconds`` have
passed.  Untraced runs (``--trace 0``) report the end-to-end metrics as
medians over repetitions.  Traced runs (``--trace 1``) alternate untraced and
traced repetitions and report the per-layer metrics, the tracing overhead,
and the per-layer self-time table of each traced repetition.  Every
repetition checks the program's outputs; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.workloads import OUTPUT_DIR, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
#: No repetition starts once this much of a run has passed, and none may run
#: past it: a run ends well inside three minutes even on a slow machine.
HARD_LIMIT_S = 150.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    meaning: str


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "process start to the first timed call: interpreter, imports, model load, "
           "engine or service construction, registry warmup, partitioning"),
    Metric("items_per_s", "1/s", "higher", 0.25,
           "work per wall second of the timed phase: offered requests on the replays "
           "(traffic generation, replay, report, trace export), operators scheduled "
           "on compile-cold"),
    Metric("peak_rss_mb", "MB", "lower", 0.05, "peak resident memory of the process"),
    Metric("ok_share", "share", "higher", 0.01,
           "operations (compiles, offered requests) that neither raised nor failed an "
           "output check, over those attempted; an admission rejection is not a failure"),
)


def pinned_environment() -> dict[str, str]:
    """The process environment of every repetition, independent of the caller's.

    Ambient ``REPRO_*`` variables and the ``PYTHON*`` variables that change
    how the interpreter behaves are dropped, so none can change a number:
    compiles are serial, the schedule memo is on, and hash seeding and
    math-library threading are fixed.  The checkout's ``src`` leads the
    import path; an ambient ``PYTHONPATH`` may only add to it.
    """
    kept = ("PYTHONHOME", "PYTHONUSERBASE", "PYTHONNOUSERSITE")
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
        and (not key.startswith("PYTHON") or key in kept)
        and key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env.update(
        PYTHONPATH=os.pathsep.join(path),
        PYTHONHASHSEED="0",
        REPRO_COMPILE_JOBS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program's outputs)."""


def run_repetition(workload: str, seed: int, traced: bool, timeout_s: float) -> dict:
    """One repetition in a fresh process; its JSON report."""
    command = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
               "--seed", str(seed)]
    if traced:
        OUTPUT_DIR.mkdir(exist_ok=True)
        command += ["--spans", str(OUTPUT_DIR / f"spans-{workload}.json")]
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=pinned_environment(), capture_output=True, text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} repetition exceeded {timeout_s:.0f} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} repetition exited {done.returncode}:\n{done.stderr[-3000:]}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} repetition printed nothing")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until ``seconds`` have passed; traced runs alternate kinds."""
    reps: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        kinds = {rep["traced"] for rep in reps}
        complete = bool(reps) and (not trace or kinds == {False, True})
        if complete and (elapsed >= seconds or elapsed + longest > HARD_LIMIT_S):
            break
        traced = trace and len(reps) % 2 == 1
        begun = time.monotonic()
        rep = run_repetition(workload, seed, traced, max(1.0, HARD_LIMIT_S - elapsed))
        longest = max(longest, time.monotonic() - begun)
        rep["traced"] = traced
        reps.append(rep)
        print(describe_repetition(rep), flush=True)
    return reps


def describe_repetition(rep: dict) -> str:
    kind = "traced" if rep["traced"] else "untraced"
    line = (
        f"  {rep['workload']} seed {rep['seed']} {kind}: setup {rep['setup_s']:.3f} s, "
        f"compile {rep['compile_s']:.3f} s, timed {rep['timed_s']:.3f} s for "
        f"{rep['items']} items, rss {rep['peak_rss_mb']:.1f} MB, "
        f"failed {rep['failed']}/{rep['attempted']}"
    )
    for problem in rep["problems"]:
        line += f"\n    problem: {problem}"
    if rep["traced"]:
        line += f"\n    {rep['spans']} spans; per-layer self time:\n"
        line += "\n".join(f"    {row}" for row in rep["table"])
    return line


def summarize(reps: list[dict], trace: bool) -> dict:
    """The run's JSON result line."""
    attempted = sum(rep["attempted"] for rep in reps)
    # Every repetition of a seed must reproduce the same virtual-clock
    # results; one that does not counts as one more failed operation.
    reference = reps[0]["results"]
    failed = sum(rep["failed"] + (rep["results"] != reference) for rep in reps)
    untraced = [rep for rep in reps if not rep["traced"]]
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        metrics = {}
        for metric in LAYER_METRICS:
            if metric.name == "trace.overhead":
                value = (statistics.median(rep["window_s"] for rep in traced)
                         / statistics.median(rep["window_s"] for rep in untraced))
            elif metric.name.startswith("result."):
                value = reference.get(metric.name, 0.0)
            else:
                value = statistics.median(rep["layers"][metric.name] for rep in traced)
            metrics[metric.name] = {"value": value, "unit": metric.unit}
    else:
        values = {
            "setup_s": statistics.median(rep["setup_s"] for rep in untraced),
            "items_per_s": statistics.median(rep["items"] / rep["timed_s"] for rep in untraced),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
            "ok_share": (attempted - failed) / attempted,
        }
        metrics = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in END_TO_END
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def describe() -> str:
    lines = [f"default seed {DEFAULT_SEED}, {DEFAULT_SECONDS} s per run", "", "workloads:"]
    for workload in WORKLOADS.values():
        lines.append(f"  {workload.name}: {workload.why}")
    lines += ["", "end-to-end metrics (untraced, median over repetitions):"]
    for metric in END_TO_END:
        lines.append(
            f"  {metric.name} [{metric.unit}, {metric.better} is better, bound "
            f"{metric.bound:.0%}]: {metric.meaning}"
        )
    lines += ["", "per-layer metrics (traced):",
              f"  {'metric':<42}{'unit':<8}{'should move':<28}on"]
    for metric in LAYER_METRICS:
        lines.append(f"  {metric.name:<42}{metric.unit:<8}{metric.moves:<28}{metric.on}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print workloads and metrics, run nothing")
    args = parser.parse_args(argv)
    if args.describe:
        print(describe())
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"{name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}):", flush=True)
        try:
            reps = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        results[name] = summary = summarize(reps, bool(args.trace))
        for metric, entry in summary["metrics"].items():
            print(f"  {metric:<42}{entry['value']:>16.6g} {entry['unit']}")
        compile_s = statistics.median(rep["compile_s"] for rep in reps if not rep["traced"])
        print(f"  compile_s (cold compiles, median){compile_s:>24.6g} s")
        print("  virtual-clock results (every repetition must reproduce them):")
        for result, value in reps[0]["results"].items():
            print(f"  {result:<42}{value:>16.6g}")
        print(f"  fail_share {summary['failed'] / summary['attempted']:g} "
              f"({summary['failed']} of {summary['attempted']} operations failed)")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
