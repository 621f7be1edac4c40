"""The three workloads, driven through the program's public API only.

* ``serve_dwell`` — closed loop over a long-lived, mostly stationary
  population: ``LocalizationService.submit`` per arrival and
  ``process_due`` as soon as a micro-batch is full, so every batch
  fills by size and most solves warm-start.
* ``serve_paced`` — open loop at a fixed packet rate over short-lived
  walking cohorts: packets are submitted when due, ``process_due``
  polls every 2 ms, so batches are small and deadline-triggered.
* ``offline_campaign`` — the paper's Figs. 6/7 pipeline: 6-AP scenes,
  one per survey cell and round, through ``BatchEvaluator.evaluate``
  (in-process ``RoArrayEstimator``) and ``localize_weighted_aoa``.

Constructing a workload imports the program modules it runs on,
builds the service or estimator and warms the service's caches; all of
that is set-up.  ``BatchEvaluator`` warms its own estimator in its
first ``evaluate``, so ``offline_campaign``'s warm-up lands there.
This module itself imports no program module, and the input generator
(:mod:`inputs`) is imported only after set-up.
"""

from __future__ import annotations

import math
import time

from checks import Outputs

#: Micro-batch size of both serve workloads (the service default).
BATCH_SIZE = 16
#: Packets per second offered by ``serve_paced``, one every 100 ms: a
#: sixth of the 62/s the service sustains closed-loop on the paced
#: population.  The spacing leaves each packet's batch deadline (50 ms)
#: and solve (about 20 ms) clear of the next arrival; at 30/s, 20/s
#: (50 ms, the deadline itself) and 12.5/s, fixes raced the deadline or
#: queued behind solves whenever the host slowed, and the latency
#: figures followed the host's speed swings.
PACED_RATE = 10.0
#: Offline localization grid pitch (paper: 10 cm).
OFFLINE_RESOLUTION_M = 0.1


def tail_percentile(n_samples: int) -> float:
    """The highest of a few percentiles with at least ten samples beyond it."""
    for percentile in (99.0, 95.0, 90.0, 75.0):
        if n_samples * (100.0 - percentile) >= 1000.0:
            return percentile
    return 50.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Run:
    """Outputs, timings and operation counts of one workload run."""

    def __init__(self, room) -> None:
        self.outputs = Outputs(room=(room.width, room.depth))
        self.latencies: list[float] = []
        #: (seconds, solves, fixes) per cycle of a closed loop: one
        #: filled micro-batch, or one offline scene.
        self.cycles: list[tuple[float, int, int]] = []
        self.lateness: list[float] = []
        self.rounds = 0
        self.elapsed_s = 0.0
        self.busy_s = 0.0
        self.attempted = 0
        self.fixes = 0
        self.estimates = 0
        self.report: dict = {}

    def rates(self) -> tuple[float, float]:
        """Fixes and per-AP estimates per second.

        A closed loop's rate is its mean work per cycle over the median
        cycle time, so a slow spell of the host that stalls a few
        cycles does not move it.  An open loop's is its work over its
        busy time, the time spent inside the service's calls: over wall
        time it would only echo the offered rate.
        """
        if not self.cycles:
            return self.fixes / self.busy_s, self.estimates / self.busy_s
        seconds = quantile([c[0] for c in self.cycles], 0.5) * len(self.cycles)
        return (
            sum(c[2] for c in self.cycles) / seconds,
            sum(c[1] for c in self.cycles) / seconds,
        )

    def metrics(self) -> dict:
        latencies = self.latencies or [0.0]
        tail = tail_percentile(len(self.latencies))
        fixes_per_s, estimates_per_s = self.rates()
        return {
            "fixes_per_s": fixes_per_s,
            "estimates_per_s": estimates_per_s,
            "fix_latency_p50_s": quantile(latencies, 0.5),
            "fix_latency_tail_s": quantile(latencies, tail / 100.0),
            "fix_error_p50_m": quantile(self.outputs.fix_errors(), 0.5),
            "aoa_error_p50_deg": quantile(self.outputs.aoa_errors(), 0.5),
        }


# -- streaming service -------------------------------------------------------


def serve_layout():
    """The reduced 16-subcarrier layout of the streaming workloads."""
    from repro.channel.ofdm import SubcarrierLayout

    return SubcarrierLayout(n_subcarriers=16, spacing=1.25e6)


def serve_config(window_packets: int):
    """The service working point of both serve workloads.

    The grids and iteration cap are the reduced ones of the repository's
    streaming benchmark (61 x 21, 100 iterations); the full offline grid
    would make a serve round take minutes on two cores.
    """
    from repro.core.grids import AngleGrid, DelayGrid
    from repro.serve.service import ServeConfig

    return ServeConfig(
        batch_size=BATCH_SIZE,
        max_delay_s=0.05,
        window_packets=window_packets,
        resolution_m=0.25,
        angle_grid=AngleGrid(n_points=61),
        delay_grid=DelayGrid(n_points=21),
        max_iterations=100,
    )


class ServeWorkload:
    """Shared set-up and bookkeeping of the two serve workloads."""

    n_aps = 3
    window_packets: int

    def __init__(self) -> None:
        from repro.channel.array import UniformLinearArray
        from repro.experiments.scenarios import classroom_access_points, classroom_room
        from repro.serve.service import LocalizationService

        self.room = classroom_room()
        self.access_points = classroom_access_points(self.n_aps, self.room)
        self.service = LocalizationService(
            self.room,
            self.access_points,
            array=UniformLinearArray(),
            layout=serve_layout(),
            config=serve_config(self.window_packets),
        )
        tick = time.perf_counter()
        self.service.cache.warmup()
        self.warmup_s = time.perf_counter() - tick
        self._aps = {ap.name: ap for ap in self.access_points}
        self._seen_estimates: set = set()
        self._rejects: dict[str, int] = {}
        #: (client, packet time) -> newest send (due) time, and -> truth.
        self._sent: dict[tuple[str, float], float] = {}
        self._truth: dict = {}

    def _submit(self, run: Run, packet, sent_at: float) -> None:
        reason = self.service.submit(packet)
        run.attempted += 1
        if reason is not None:
            self._rejects[reason] = self._rejects.get(reason, 0) + 1
        key = (packet.client, packet.time_s)
        if sent_at > self._sent.get(key, -math.inf):
            self._sent[key] = sent_at

    def _collect(self, run: Run, fixes) -> None:
        """Time and record the fixes one service call returned."""
        if not fixes:
            return
        now = time.perf_counter()
        sessions = self.service.sessions
        for fix in fixes:
            run.latencies.append(now - self._sent[(fix.client, fix.time_s)])
            run.outputs.fixes.append(
                (fix.client, fix.position, self._truth[(fix.client, fix.time_s)])
            )
            for ap, estimate in sessions[fix.client].estimates.items():
                key = (fix.client, ap, estimate.time_s)
                if key not in self._seen_estimates:
                    self._seen_estimates.add(key)
                    run.outputs.aoas.append(
                        (
                            self._aps[ap].position,
                            self._aps[ap].axis_direction_deg,
                            self._truth[(fix.client, estimate.time_s)],
                            estimate.aoa_deg,
                        )
                    )
        run.fixes += len(fixes)

    def _finish(self, run: Run) -> Run:
        exported = self.service.metrics.to_dict()

        def count(name: str) -> int:
            return int(exported.get(name, {}).get("value", 0))

        solve_failures = count("serve.solve_failures")
        run.estimates = count("serve.solves")
        run.outputs.failures = {
            **{f"rejected.{reason}": n for reason, n in self._rejects.items()},
            "failed_solves": solve_failures,
        }
        unfixed = len(run.outputs.owners - {owner for owner, _, _ in run.outputs.fixes})
        run.report = {
            "packets_submitted": run.attempted,
            "rejects": dict(sorted(self._rejects.items())),
            "failed_solves": solve_failures,
            "below_quorum_fixes": count("serve.below_quorum"),
            "clients_without_fix": unfixed,
            "fixes": run.fixes,
            "solves": run.estimates,
            "warm_hits": self.service.warm_state.hits,
            "warm_misses": self.service.warm_state.misses,
        }
        return run

    def failed(self, run: Run) -> int:
        return sum(self._rejects.values()) + run.report["failed_solves"]


class ServeDwell(ServeWorkload):
    """Closed loop: each full micro-batch is solved as soon as it fills."""

    name = "serve_dwell"
    window_packets = 4
    #: 8 x 6 = 48 clients, so a round's 144 links fill 9 batches exactly
    #: and nothing waits across a round boundary.
    grid = (8, 6)
    stationary_fraction = 0.8

    def run(self, seed: int, seconds: float, rounds: int | None) -> Run:
        from inputs import StreamInputs

        source = StreamInputs(
            seed,
            n_aps=self.n_aps,
            grid=self.grid,
            stationary_fraction=self.stationary_fraction,
            lifetime=None,
        )
        run = Run(self.room)
        service = self.service
        while (run.elapsed_s < seconds) if rounds is None else (run.rounds < rounds):
            batch = source.round(run.rounds)
            self._truth.update(batch.truth)
            run.outputs.owners.update(client for client, _ in batch.truth)
            start = cycle_start = time.perf_counter()
            # One arrival is a link's join burst in round 0 and a single
            # packet afterwards; a batch is solved right after the
            # arrival that fills it.
            for arrival in batch.arrivals:
                sent_at = time.perf_counter()
                for packet in arrival:
                    self._submit(run, packet, sent_at)
                if service.pending >= BATCH_SIZE:
                    fixes = service.process_due()
                    self._collect(run, fixes)
                    now = time.perf_counter()
                    run.cycles.append((now - cycle_start, BATCH_SIZE, len(fixes)))
                    cycle_start = now
            run.elapsed_s += time.perf_counter() - start
            run.rounds += 1
        start = time.perf_counter()
        self._collect(run, service.drain())
        run.elapsed_s += time.perf_counter() - start
        run.busy_s = run.elapsed_s
        return self._finish(run)


class ServePaced(ServeWorkload):
    """Open loop: packets are due at a fixed rate whatever the service does."""

    name = "serve_paced"
    window_packets = 2
    #: 4 x 3 = 12 walking clients per cohort, each alive for 3 samples.
    grid = (4, 3)
    lifetime = 3
    poll_s = 0.002

    def run(self, seed: int, seconds: float, rounds: int | None) -> Run:
        from inputs import StreamInputs

        source = StreamInputs(
            seed,
            n_aps=self.n_aps,
            grid=self.grid,
            stationary_fraction=0.0,
            lifetime=self.lifetime,
        )
        per_round = self.grid[0] * self.grid[1] * self.lifetime * self.n_aps
        if rounds is None:
            rounds = max(1, math.ceil(seconds * PACED_RATE / per_round))
        run = Run(self.room)
        packets = []
        for index in range(rounds):
            batch = source.round(index)
            self._truth.update(batch.truth)
            run.outputs.owners.update(client for client, _ in batch.truth)
            packets.extend(packet for arrival in batch.arrivals for packet in arrival)
        run.rounds = rounds
        service = self.service
        n_packets = len(packets)
        start = time.perf_counter()
        due_times = [start + i / PACED_RATE for i in range(n_packets)]
        index = 0
        while True:
            now = time.perf_counter()
            if index < n_packets and now >= due_times[index]:
                run.lateness.append(now - due_times[index])
                self._submit(run, packets[index], due_times[index])
                index += 1
                fixes = service.process_due()
                run.busy_s += time.perf_counter() - now
                self._collect(run, fixes)
                continue
            if index >= n_packets and service.pending == 0:
                break
            fixes = service.process_due()
            after = time.perf_counter()
            run.busy_s += after - now
            self._collect(run, fixes)
            if index < n_packets:
                time.sleep(max(0.0, min(self.poll_s, due_times[index] - after)))
            else:
                time.sleep(self.poll_s)
        tick = time.perf_counter()
        fixes = service.drain()
        run.busy_s += time.perf_counter() - tick
        self._collect(run, fixes)
        run.elapsed_s = time.perf_counter() - start
        return self._finish(run)


# -- offline campaign --------------------------------------------------------


class OfflineCampaign:
    """Per-AP ``RoArrayEstimator`` analyses through the batch runtime."""

    name = "offline_campaign"
    #: 4 x 3 = 12 survey cells.  A round visits each once, so every run
    #: scores the same mix of positions however many rounds it fits.
    grid = (4, 3)
    n_packets = 15
    band = "medium"

    def __init__(self) -> None:
        from repro.core.pipeline import RoArrayEstimator
        from repro.experiments.runner import evaluation_roarray_config
        from repro.experiments.scenarios import classroom_room
        from repro.runtime.batch import BatchEvaluator

        self.room = classroom_room()
        # The evaluator builds its own estimator from this one's spec and
        # warms its steering cache in its first ``evaluate``; warming this
        # one here would time a cache the program never uses.  So set-up
        # stops short of that warm-up, and ``warmup_s`` is the
        # dictionary time the evaluator reports.
        self.evaluator = BatchEvaluator(
            RoArrayEstimator(config=evaluation_roarray_config()), workers=0
        )
        self.warmup_s = 0.0
        self._job_failures = 0

    def run(self, seed: int, seconds: float, rounds: int | None) -> Run:
        from inputs import SceneInputs

        source = SceneInputs(seed, grid=self.grid, n_packets=self.n_packets, band=self.band)
        n_cells = self.grid[0] * self.grid[1]
        run = Run(self.room)
        while (run.elapsed_s < seconds) if rounds is None else (run.rounds < rounds):
            for index in range(run.rounds * n_cells, (run.rounds + 1) * n_cells):
                self._scene(run, source.scene(index), f"scene-{index:03d}")
            run.rounds += 1
        run.busy_s = run.elapsed_s
        run.outputs.failures = {"job_failures": self._job_failures}
        run.report = {
            "ap_analyses": run.attempted,
            "job_failures": self._job_failures,
            "scenes": run.fixes,
        }
        return run

    def _scene(self, run: Run, item, owner: str) -> None:
        """Analyze one scene's traces, localize, and record the fix."""
        from repro.core import localization

        client = item.scene.client
        run.outputs.owners.add(owner)
        start = time.perf_counter()
        result = self.evaluator.evaluate(item.traces)
        # The report's dictionary stage is the steering-cache build.
        self.warmup_s += result.report.stages.dictionary_s
        observations = [
            localization.ApObservation(
                access_point=ap,
                aoa_deg=outcome.analysis.direct.aoa_deg,
                rssi_dbm=trace.rssi_dbm,
            )
            for ap, outcome, trace in zip(item.scene.access_points, result.outcomes, item.traces)
            if outcome.ok
        ]
        located = localization.localize_weighted_aoa(
            observations, self.room, resolution_m=OFFLINE_RESOLUTION_M
        )
        elapsed = time.perf_counter() - start
        run.elapsed_s += elapsed
        run.latencies.append(elapsed)
        run.cycles.append((elapsed, len(observations), 1))
        run.attempted += len(item.traces)
        run.estimates += len(observations)
        run.fixes += 1
        self._job_failures += len(result.failures)
        run.outputs.fixes.append((owner, located.position, client))
        for observation in observations:
            ap = observation.access_point
            run.outputs.aoas.append(
                (ap.position, ap.axis_direction_deg, client, observation.aoa_deg)
            )

    def failed(self, run: Run) -> int:
        return self._job_failures


WORKLOADS = {cls.name: cls for cls in (ServeDwell, ServePaced, OfflineCampaign)}
