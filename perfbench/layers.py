"""Spans at the program's layer boundaries, recorded from the outside.

The traced run replaces the functions a workload reaches, under the
names the program calls them by (``repro.serve.service.solve_batch``,
``repro.core.fusion.solve_mmv_fista``, the operator products, ...),
with thin wrappers that append ``[name, start, end, parent]`` to an
in-memory list.  Nothing is passed into the program: an enabled
``repro.obs`` tracer would switch on solver telemetry and change the
work being measured.

:func:`fold` turns the spans into the layer table: calls, busy time
(the sum of a layer's span durations) and self time (busy time minus
the time its child spans cover).
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Layer names in table order; the prefix is the program package.
LAYERS = (
    "runtime.evaluate",
    "serve.submit",
    "serve.process_due",
    "serve.drain",
    "core.fusion",
    "optim.solve",
    "optim.operator.matmul",
    "optim.operator.rmatmul",
    "core.direct_path",
    "core.localize",
    "core.tracking",
)


class Recorder:
    """Wraps program functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.solve_problems = 0
        self.solve_iterations: list[int] = []
        self.solve_converged: list[bool] = []
        self.batch_sizes: list[int] = []
        self.batch_waits: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every ``owner.attribute`` call.

        A call made while a span of the same name is open (a batched
        product delegating to the 2-D one, ``localize_robust`` calling
        ``localize_weighted_aoa``) belongs to the open span and records
        nothing of its own.
        """
        original = getattr(owner, attribute)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def observe(self, owner, attribute: str, on_result) -> None:
        """Pass every result of ``owner.attribute`` to ``on_result``; no span."""
        original = getattr(owner, attribute)

        def observed(*args, **kwargs):
            result = original(*args, **kwargs)
            on_result(result)
            return result

        setattr(owner, attribute, observed)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- result hooks --------------------------------------------------------

    def _batch_solved(self, result) -> None:
        self.solve_problems += result.n_problems
        self.solve_iterations.extend(result.iterations)
        self.solve_converged.extend(result.converged)

    def _single_solved(self, result) -> None:
        self.solve_problems += 1
        self.solve_iterations.append(result.iterations)
        self.solve_converged.append(result.converged)

    def _batches_taken(self, result) -> None:
        batches = result if isinstance(result, list) else [result] if result else []
        # The service stamps requests with its default clock,
        # time.monotonic, when it enqueues them.
        now = time.monotonic()
        for batch in batches:
            self.batch_sizes.append(len(batch))
            self.batch_waits.extend(now - request.enqueued_at for request in batch.requests)


def install(recorder: Recorder) -> Recorder:
    """Wrap every layer boundary the three workloads can reach."""
    from repro.core import fusion, localization, pipeline
    from repro.core.tracking import KalmanTracker
    from repro.optim.operators import KroneckerJointOperator
    from repro.runtime.batch import BatchEvaluator
    from repro.serve import service
    from repro.serve.batcher import MicroBatcher

    wrap = recorder.wrap
    wrap(BatchEvaluator, "evaluate", "runtime.evaluate")
    wrap(service.LocalizationService, "submit", "serve.submit")
    wrap(service.LocalizationService, "process_due", "serve.process_due")
    wrap(service.LocalizationService, "drain", "serve.drain")
    recorder.observe(MicroBatcher, "poll", recorder._batches_taken)
    recorder.observe(MicroBatcher, "flush", recorder._batches_taken)
    wrap(pipeline, "fuse_packets", "core.fusion")
    wrap(service, "solve_batch", "optim.solve", recorder._batch_solved)
    wrap(fusion, "solve_mmv_fista", "optim.solve", recorder._single_solved)
    for method in ("matmul_batch", "matvec"):
        wrap(KroneckerJointOperator, method, "optim.operator.matmul")
    for method in ("rmatmul_batch", "rmatvec"):
        wrap(KroneckerJointOperator, method, "optim.operator.rmatmul")
    wrap(service, "identify_direct_path", "core.direct_path")
    wrap(pipeline, "identify_direct_path", "core.direct_path")
    wrap(service, "localize_robust", "core.localize")
    wrap(localization, "localize_weighted_aoa", "core.localize")
    wrap(KalmanTracker, "update", "core.tracking")
    return recorder


def fold(spans) -> dict[str, dict]:
    """Calls, busy and self seconds per layer name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - covered[index]
    return {name: table[name] for name in LAYERS if name in table}


def format_table(table: dict[str, dict], wall_s: float) -> str:
    """The layer table as aligned text, busy time also as a share of ``wall_s``."""
    lines = [f"{'layer':<24}{'calls':>9}{'busy s':>10}{'self s':>10}{'busy %':>8}"]
    for name, row in table.items():
        lines.append(
            f"{name:<24}{row['calls']:>9}{row['busy_s']:>10.3f}{row['self_s']:>10.3f}"
            f"{100.0 * row['busy_s'] / wall_s:>8.1f}"
        )
    return "\n".join(lines)
