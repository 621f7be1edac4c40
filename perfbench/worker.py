"""One workload run in a fresh process; prints one JSON line.

``--mode setup`` stops after set-up and reports its time; ``--mode
run`` also runs the workload for ``--seconds`` (or exactly
``--rounds`` rounds) and reports outputs, checks and timings.  With
``--trace 1`` the layer boundaries are wrapped (see :mod:`layers`) and
the folded layer table is reported too.

Set-up is timed from before the first program import to readiness for
the first input: importing the modules the workload uses, building the
service or estimator and warming its steering caches.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "warmup_s": workload.warmup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import checks
    import layers

    recorder = layers.install(layers.Recorder()) if args.trace else None
    try:
        run = workload.run(args.seed, args.seconds, args.rounds)
    finally:
        if recorder is not None:
            recorder.restore()
    problems = checks.check(run.outputs)
    result.update(
        rounds=run.rounds,
        elapsed_s=run.elapsed_s,
        busy_s=run.busy_s,
        attempted=run.attempted,
        failed=workload.failed(run),
        problems=problems,
        report=run.report,
        metrics=run.metrics(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        result["layers"] = layers.fold(recorder.spans)
        result["layer_metrics"] = layer_metrics(workload, run, recorder, result["layers"])
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump(recorder.spans, handle)
    print(json.dumps(result))
    return 0


def layer_metrics(workload, run, recorder, table) -> dict:
    """Per-layer counts and times of a traced run, by metric name."""
    import workloads

    def row(name):
        return table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    service = getattr(workload, "service", None)
    metrics = {
        "serve.submit.calls": row("serve.submit")["calls"],
        "serve.submit.busy_s": row("serve.submit")["busy_s"],
        "serve.batch.count": len(recorder.batch_sizes),
        "serve.batch.size_mean": mean(recorder.batch_sizes),
        "serve.batch.wait_p50_s": (
            workloads.quantile(recorder.batch_waits, 0.5) if recorder.batch_waits else 0.0
        ),
        "optim.solve.calls": row("optim.solve")["calls"],
        "optim.solve.problems": recorder.solve_problems,
        "optim.solve.busy_s": row("optim.solve")["busy_s"],
        "optim.solve.other_s": row("optim.solve")["self_s"],
        "optim.solve.iterations_mean": mean(recorder.solve_iterations),
        "optim.solve.converged_frac": mean([float(c) for c in recorder.solve_converged]),
        "optim.warm.hits": service.warm_state.hits if service else 0,
        "optim.warm.misses": service.warm_state.misses if service else 0,
        "core.steering.warmup_s": workload.warmup_s,
        "runtime.jobs": run.attempted if service is None else 0,
        "bench.lateness_p50_s": workloads.quantile(run.lateness, 0.5) if run.lateness else 0.0,
        "bench.lateness_max_s": max(run.lateness, default=0.0),
    }
    for layer in ("optim.operator.matmul", "optim.operator.rmatmul", "core.direct_path",
                  "core.localize", "core.tracking", "core.fusion", "runtime.evaluate"):
        metrics[f"{layer}.calls"] = row(layer)["calls"]
        metrics[f"{layer}.busy_s"] = row(layer)["busy_s"]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
