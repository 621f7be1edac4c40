"""Seeded input generation for the three workloads.

Everything here runs outside the timed region.  The program under test
only ever receives the generated packets and traces; the truth kept
beside them (client positions per packet time) is what the correctness
checks score against.

The geometry is a fixed test course, like a testbed's marked test
locations: the room interior is cut into cells, every client (or
offline scene) starts at a cell centre, walkers follow scripted
random-waypoint paths, and each link's SNR and LoS blockage and each
offline cell's three scatterers are fixed like the furniture.  For the
streaming workloads the seed draws what a measurement session changes:
receiver noise, detection delays and the clients' send phases.  With
positions and SNRs drawn by the seed, the median errors of two seeds
differed by up to a quarter, which would bury any accuracy change
under sampling noise.  The offline campaign is fixed altogether (see
:class:`SceneInputs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.array import UniformLinearArray
from repro.channel.csi import CsiSynthesizer
from repro.channel.geometry import Scene, trace_paths
from repro.channel.impairments import ImpairmentModel
from repro.channel.mobility import RandomWaypointModel
from repro.channel.ofdm import intel5300_layout
from repro.experiments.scenarios import (
    SNR_BANDS,
    classroom_access_points,
    classroom_room,
    sample_scatterers,
)
from repro.serve.packets import CsiPacket

from workloads import serve_layout

#: Seconds of deployment time between a client's packets to one AP.
SAMPLE_INTERVAL_S = 0.5
#: Packets per AP a joining dwell client sends back to back; equal to
#: the service's window, so the first solve of every key is full width.
JOIN_BURST = 4
#: Wall clearance of client cells (meters).
MARGIN_M = 1.0


def cell_centre(room, cell: int, nx: int, ny: int) -> tuple[float, float]:
    """The centre of cell ``cell`` (mod ``nx * ny``) of an ``nx`` x ``ny`` grid."""
    width = (room.width - 2 * MARGIN_M) / nx
    depth = (room.depth - 2 * MARGIN_M) / ny
    column, row = cell % nx, (cell // nx) % ny
    return (MARGIN_M + (column + 0.5) * width, MARGIN_M + (row + 0.5) * depth)


@dataclass
class Round:
    """One round of packets with the truth needed to score it.

    ``arrivals`` groups the packets that reach the service together: a
    joining link's burst, otherwise one packet each.
    """

    arrivals: list[list[CsiPacket]]
    #: (client, packet time) -> true (x, y) at that time.
    truth: dict[tuple[str, float], tuple[float, float]]


class _Client:
    """One client's trajectory, extended on demand, and its links."""

    def __init__(self, name, start, walker, course, session, model, n_aps, band):
        self.name = name
        self.walk_rng = course if walker else None
        self.model = model
        self.positions = [start]
        self.snrs = [band.draw(course) for _ in range(n_aps)]
        self.phase = float(session.uniform(0.0, SAMPLE_INTERVAL_S))

    def position(self, sample: int) -> tuple[float, float]:
        while len(self.positions) <= sample:
            if self.walk_rng is None:
                self.positions.append(self.positions[-1])
                continue
            track = self.model.generate(
                self.walk_rng,
                duration_s=32 * SAMPLE_INTERVAL_S,
                sample_interval_s=SAMPLE_INTERVAL_S,
                start=self.positions[-1],
            )
            self.positions.extend(tuple(s.position) for s in track[1:])
        return self.positions[sample]


class StreamInputs:
    """Packet rounds for a client population on the classroom deployment.

    One client sits in each cell of ``grid``, its links in the high SNR
    band (15-25 dB).  With ``lifetime=None``
    the population stays for the whole run and a round is one sample of
    every client (round 0 is their join bursts); otherwise every round
    is a new cohort that lives ``lifetime`` samples.
    """

    def __init__(
        self,
        seed: int,
        *,
        n_aps: int,
        grid: tuple[int, int],
        stationary_fraction: float,
        lifetime: int | None,
    ) -> None:
        self.seed = seed
        self.room = classroom_room()
        self.access_points = classroom_access_points(n_aps, self.room)
        self.array = UniformLinearArray()
        self.layout = serve_layout()
        self.grid = grid
        self.n_clients = grid[0] * grid[1]
        self.stationary_fraction = stationary_fraction
        self.lifetime = lifetime
        self.band = SNR_BANDS["high"]
        self.model = RandomWaypointModel(self.room)
        self.synthesizers = [
            CsiSynthesizer(self.array, self.layout, ImpairmentModel(), seed=seed * 100 + i)
            for i in range(n_aps)
        ]
        self._cohorts: dict[int, list[_Client]] = {}

    def _cohort(self, index: int) -> list[_Client]:
        if index not in self._cohorts:
            session = np.random.default_rng([self.seed, index])
            n_stationary = int(round(self.n_clients * self.stationary_fraction))
            self._cohorts[index] = [
                _Client(
                    f"c{index:03d}-{cell:03d}",
                    cell_centre(self.room, cell, *self.grid),
                    cell >= n_stationary,
                    # Link SNRs and walks belong to the course, not the seed.
                    np.random.default_rng([index, cell]),
                    session,
                    self.model,
                    len(self.access_points),
                    self.band,
                )
                for cell in range(self.n_clients)
            ]
        return self._cohorts[index]

    def _packet(self, rng, client: _Client, sample: int, base_s: float, ap_index: int):
        ap = self.access_points[ap_index]
        position = client.position(sample)
        profile = trace_paths(
            room=self.room,
            transmitter=np.asarray(position),
            receiver=ap,
            wavelength=self.array.wavelength,
        )
        trace = self.synthesizers[ap_index].packets(
            profile, n_packets=1, snr_db=client.snrs[ap_index], rng=rng
        )
        time_s = base_s + client.phase + sample * SAMPLE_INTERVAL_S
        packet = CsiPacket(
            client=client.name,
            ap=ap.name,
            time_s=time_s,
            csi=trace.csi[0],
            rssi_dbm=trace.rssi_dbm,
        )
        return packet, (client.name, time_s), position

    def round(self, index: int) -> Round:
        rng = np.random.default_rng([self.seed, index, 1])
        arrivals: list[list[CsiPacket]] = []
        truth: dict = {}
        n_aps = len(self.access_points)
        if self.lifetime is None:
            # Long-lived: round 0 is every client's join burst (each
            # link's packets back to back), then one sample per round.
            if index == 0:
                for client in self._cohort(0):
                    for ap_index in range(n_aps):
                        burst = []
                        for sample in range(JOIN_BURST):
                            packet, key, pos = self._packet(rng, client, sample, 0.0, ap_index)
                            burst.append(packet)
                            truth[key] = pos
                        arrivals.append(burst)
                return Round(arrivals, truth)
            samples = [(client, JOIN_BURST - 1 + index) for client in self._cohort(0)]
            base_s = 0.0
        else:
            samples = [
                (client, sample)
                for client in self._cohort(index)
                for sample in range(self.lifetime)
            ]
            base_s = index * self.lifetime * SAMPLE_INTERVAL_S
        packets = []
        for client, sample in samples:
            for ap_index in range(n_aps):
                packet, key, pos = self._packet(rng, client, sample, base_s, ap_index)
                packets.append(packet)
                truth[key] = pos
        packets.sort(key=lambda p: (p.time_s, p.client, p.ap))
        return Round([[packet] for packet in packets], truth)


@dataclass
class SceneInput:
    """One offline test location: its scene and one trace per AP."""

    scene: Scene
    traces: list


class SceneInputs:
    """A fixed campaign of 6-AP classroom scenes with 15-packet traces.

    Pass ``p`` of the campaign holds one scene per survey cell: the
    client at the cell centre, the cell's three scatterers, a per-AP SNR
    and LoS blockage from ``band``, the default hardware impairments,
    and receiver noise drawn for that cell and pass.  The seed only
    orders the scenes within each pass.  A run scores about two dozen
    fixes; with noise drawn by the seed, their median moved by a quarter
    to a third between seeds, so the campaign is fixed like a recorded
    dataset and the offline accuracy figures compare like with like.
    """

    def __init__(
        self,
        seed: int,
        *,
        grid: tuple[int, int],
        n_packets: int,
        band: str,
        n_aps: int = 6,
    ) -> None:
        self.seed = seed
        self.room = classroom_room()
        self.access_points = classroom_access_points(n_aps, self.room)
        self.array = UniformLinearArray()
        self.layout = intel5300_layout()
        self.grid = grid
        self.n_cells = grid[0] * grid[1]
        self.n_packets = n_packets
        self.band = SNR_BANDS[band]

    def scene(self, index: int) -> SceneInput:
        """Scene ``index``: pass ``index // n_cells``, in the seed's order."""
        pass_index, position = divmod(index, self.n_cells)
        order = np.random.default_rng([self.seed, pass_index]).permutation(self.n_cells)
        cell = int(order[position])
        course = np.random.default_rng([cell])
        noise = np.random.default_rng([cell, pass_index])
        scene = Scene(
            room=self.room,
            access_points=self.access_points,
            client=cell_centre(self.room, cell, *self.grid),
            scatterers=sample_scatterers(course, self.room, n_scatterers=3),
        )
        traces = []
        for ap_index in range(len(self.access_points)):
            profile = scene.multipath_profile(ap_index, self.layout.wavelength)
            profile = profile.with_direct_attenuation(self.band.draw_blockage(course))
            synthesizer = CsiSynthesizer(
                self.array,
                self.layout,
                ImpairmentModel(),
                seed=int(noise.integers(1 << 30)),
            )
            traces.append(
                synthesizer.packets(
                    profile,
                    n_packets=self.n_packets,
                    snr_db=self.band.draw(course),
                    rng=noise,
                )
            )
        return SceneInput(scene=scene, traces=traces)
