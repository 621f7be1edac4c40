"""Correctness checks, computed apart from the program.

The truth comes from the input generator (client positions per packet
time) and from plane geometry (the AoA an AP's array would see), never
from the program's own helpers such as ``Scene.ground_truth_aoa`` or a
stored copy of an earlier run's output.  A workload run is correct
when every check below passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median

#: A run whose median fix error exceeds this is wrong, not slow.  The
#: workloads read 0.4-0.9 m; fixes pinned to the room centre read
#: about 5 m on the survey grids of client positions.
FIX_ERROR_P50_LIMIT_M = 1.5
#: Same for the direct-path AoA; the workloads read 2-4 degrees.
AOA_ERROR_P50_LIMIT_DEG = 10.0


def true_aoa_deg(ap_position, ap_axis_deg: float, point) -> float:
    """AoA at an AP's linear array of a signal from ``point``.

    The angle between the array axis and the AP-to-source bearing, in
    [0, 180] degrees.
    """
    dx = point[0] - ap_position[0]
    dy = point[1] - ap_position[1]
    axis = math.radians(ap_axis_deg)
    cosine = (dx * math.cos(axis) + dy * math.sin(axis)) / math.hypot(dx, dy)
    return math.degrees(math.acos(max(-1.0, min(1.0, cosine))))


@dataclass
class Outputs:
    """What a workload run produced, beside the truth to score it.

    ``fixes`` holds ``(owner, (x, y), (true_x, true_y))`` — the owner
    is a client or a scene; ``aoas`` holds ``(ap_position, ap_axis_deg,
    true_source, estimated_aoa_deg)``; ``owners`` is everyone that must
    end with at least one fix; ``failures`` counts failed operations
    by reason (rejected packets, failed solves, failed jobs).
    """

    room: tuple[float, float]
    fixes: list = field(default_factory=list)
    aoas: list = field(default_factory=list)
    owners: set = field(default_factory=set)
    failures: dict = field(default_factory=dict)

    def fix_errors(self) -> list[float]:
        return [math.hypot(x - tx, y - ty) for _, (x, y), (tx, ty) in self.fixes]

    def aoa_errors(self) -> list[float]:
        return [
            abs(estimate - true_aoa_deg(position, axis, source))
            for position, axis, source, estimate in self.aoas
        ]


def check(outputs: Outputs) -> list[str]:
    """Every violated check, as one line each; empty means correct."""
    problems = []
    width, depth = outputs.room
    outside = [
        (owner, xy)
        for owner, xy, _ in outputs.fixes
        if not (0.0 <= xy[0] <= width and 0.0 <= xy[1] <= depth)
    ]
    if outside:
        problems.append(f"{len(outside)} fix(es) outside the room, first {outside[0]}")
    unfixed = outputs.owners - {owner for owner, _, _ in outputs.fixes}
    if unfixed:
        problems.append(f"{len(unfixed)} of {len(outputs.owners)} never got a fix")
    failed = {reason: n for reason, n in outputs.failures.items() if n}
    if failed:
        problems.append(f"failed operations: {failed}")
    if not outputs.fixes:
        problems.append("no fixes")
    elif median(outputs.fix_errors()) > FIX_ERROR_P50_LIMIT_M:
        problems.append(
            f"median fix error {median(outputs.fix_errors()):.2f} m "
            f"> {FIX_ERROR_P50_LIMIT_M} m"
        )
    if not outputs.aoas:
        problems.append("no AoA estimates")
    elif median(outputs.aoa_errors()) > AOA_ERROR_P50_LIMIT_DEG:
        problems.append(
            f"median AoA error {median(outputs.aoa_errors()):.1f} deg "
            f"> {AOA_ERROR_P50_LIMIT_DEG} deg"
        )
    return problems
