"""The benchmark command: one workload, fresh processes, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_dwell --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, taken
from a traced run of the same rounds as an untraced reference run (the
difference between the two is ``bench.trace_overhead_frac``), after
the layer table, the tracing overhead and the per-layer metrics that
``BENCHMARK.json`` leaves out.  Lines before the last one report the
operations attempted and failed and the checks; the last line is the
result object.  The exit code is 0 only when every worker process ran
to its end.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: Set-up is timed in this many extra fresh processes before the
#: measured run and as many after it; the median of all of them and the
#: measured one is ``setup_s``.
SETUP_SAMPLES = 4
#: Per-process wall-clock limit (seconds).
WORKER_TIMEOUT_S = 150


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind (``end_to_end``, ``per_layer``)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def worker(args: list[str]) -> dict:
    """Run one worker process to its end and return its JSON result."""
    completed = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S,
        text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def prepare() -> None:
    """Compile the program's bytecode once, outside every timed set-up.

    A fresh checkout has no ``__pycache__``; without this the first
    set-up of a run would also compile every module, and ``setup_s``
    would depend on whether a run happened to be the first.
    """
    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(source):
        raise RuntimeError(f"program source not found: {source}")
    compileall.compile_dir(source, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)


def report(run: dict) -> None:
    print(f"operations: attempted {run['attempted']}, failed {run['failed']}; {run['report']}")
    for problem in run["problems"]:
        print(f"check failed: {problem}")


def untraced(workload: str, seed: int, seconds: int) -> tuple:
    """Set-up samples around the measured run; its result and metrics.

    Interpreter-bound set-up moves with the host's speed, by about 6%
    between back-to-back processes and more between spells; samples on
    both sides of the measured run span more than half a minute of it.
    """
    common = ["--workload", workload, "--seed", str(seed)]

    def setups() -> list[float]:
        return [worker([*common, "--mode", "setup"])["setup_s"] for _ in range(SETUP_SAMPLES)]

    # The first set-up after compiling also warms the file cache; it is
    # not a sample.
    worker([*common, "--mode", "setup"])
    before = setups()
    run = worker([*common, "--seconds", str(seconds)])
    after = setups()
    report(run)
    values = dict(run["metrics"])
    values["setup_s"] = statistics.median([*before, run["setup_s"], *after])
    values["peak_rss_mb"] = run["peak_rss_mb"]
    units = metric_units("end_to_end")
    return run, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def traced(workload: str, seed: int, seconds: int) -> tuple:
    """An untraced reference run, then a traced run of the same rounds.

    The traced run's spans are written to ``.perfbench/spans-<workload>-<seed>.json``.
    """
    common = ["--workload", workload, "--seed", str(seed)]
    reference = worker([*common, "--seconds", str(seconds / 2)])
    spans_out = os.path.join(ROOT, ".perfbench", f"spans-{workload}-{seed}.json")
    os.makedirs(os.path.dirname(spans_out), exist_ok=True)
    run = worker(
        [*common, "--rounds", str(reference["rounds"]), "--trace", "1", "--spans-out", spans_out]
    )
    report(run)
    values = dict(run["layer_metrics"])
    values["bench.trace_overhead_frac"] = run["busy_s"] / reference["busy_s"] - 1.0
    print(f"{workload}, seed {seed}, {reference['rounds']} rounds")
    print(layers.format_table(run["layers"], run["busy_s"]))
    print(
        f"untraced busy {reference['busy_s']:.3f} s, traced busy {run['busy_s']:.3f} s, "
        f"tracing overhead {100.0 * values['bench.trace_overhead_frac']:+.1f}%"
    )
    units = metric_units("per_layer")
    for name, value in sorted(values.items()):
        if name not in units:
            print(f"  {name:<32}{value:>14.6g}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return run, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        prepare()
        if args.trace:
            run, metrics = traced(args.workload, args.seed, args.seconds)
        else:
            run, metrics = untraced(args.workload, args.seed, args.seconds)
    except (OSError, KeyError, RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
