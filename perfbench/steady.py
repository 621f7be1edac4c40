"""Steadiness check: repeated runs, alternating workloads, with spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --out .perfbench/set1.json
    python3 perfbench/steady.py --runs 10 --baseline .perfbench/set1.json

Run ``i`` of every workload uses seed ``--first-seed + i``; the
workloads take turns, so a slow spell of the host lands on all of them
rather than on one.  For each end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, flagged ``WIDE`` when the spread exceeds the
metric's bound in ``BENCHMARK.json`` and ``>1/3`` when it exceeds a
third of it.  With ``--baseline`` it also prints how far each median
moved in the worse direction against an earlier set, flagged ``WORSE``
past the bound, and compares the failed share of operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            *spec["command"],
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(spec: dict, results: dict, baseline: dict | None) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        line = f"{workload}: {len(runs)} runs, correct={correct}, failed {failed}/{attempted}"
        if baseline and workload in baseline:
            before = baseline[workload]
            share_before = sum(r["failed"] for r in before) / sum(r["attempted"] for r in before)
            share = failed / attempted
            line += "" if share == share_before else f"  FAILED SHARE {share_before} -> {share}"
        lines.append(line)
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flag = "WIDE" if spread > metric["bound"] else (
                ">1/3" if spread > metric["bound"] / 3 else ""
            )
            text = (
                f"  {name:<20} median {q2:>11.5g} {metric['unit']:<4} "
                f"q1 {q1:>11.5g} q3 {q3:>11.5g} spread {spread:6.3f} "
                f"bound {metric['bound']:.2f} {flag}"
            )
            if baseline and workload in baseline:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in baseline[workload]
                )
                worse = (q2 - old) / old if metric["better"] == "lower" else (old - q2) / old
                text += f"  vs baseline {worse:+.3f}" + (" WORSE" if worse > metric["bound"] else "")
            lines.append(text)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", default=None, help="write the raw results here")
    parser.add_argument("--baseline", default=None, help="raw results of an earlier set")
    args = parser.parse_args()

    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    results: dict[str, list] = {w: [] for w in workloads}
    for index in range(args.runs):
        for workload in workloads:
            start = time.perf_counter()
            result = run_once(spec, workload, args.first_seed + index, seconds)
            results[workload].append(result)
            print(
                f"run {index + 1}/{args.runs} {workload}: correct={result['correct']} "
                f"wall {time.perf_counter() - start:.1f} s",
                file=sys.stderr,
                flush=True,
            )
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(results, handle)
    print("\n".join(summarize(spec, results, baseline)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
