"""The checks reject corrupted outputs and accept the program's own.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOM = (18.0, 12.0)
CENTRE = (9.0, 6.0)
APS = [((0.0, 6.0), 90.0), ((18.0, 6.0), 90.0), ((4.5, 0.0), 0.0)]


def synthetic_outputs() -> checks.Outputs:
    """Outputs a working system could give: near-truth fixes and AoAs."""
    outputs = checks.Outputs(room=ROOM)
    for index in range(24):
        truth = (2.0 + 14.0 * (index % 6) / 5, 2.0 + 8.0 * (index // 6) / 3)
        owner = f"client-{index}"
        outputs.owners.add(owner)
        outputs.fixes.append((owner, (truth[0] + 0.3, truth[1] - 0.2), truth))
        for position, axis in APS:
            aoa = checks.true_aoa_deg(position, axis, truth) + (1.5 if index % 2 else -1.5)
            outputs.aoas.append((position, axis, truth, aoa))
    outputs.failures = {"failed_solves": 0}
    return outputs


def shift_aoas(outputs: checks.Outputs, degrees: float) -> checks.Outputs:
    outputs.aoas = [(p, a, t, estimate + degrees) for p, a, t, estimate in outputs.aoas]
    return outputs


def pin_fixes(outputs: checks.Outputs, point) -> checks.Outputs:
    outputs.fixes = [(owner, point, truth) for owner, _, truth in outputs.fixes]
    return outputs


def test_true_aoa_follows_the_array_axis():
    assert checks.true_aoa_deg((0.0, 6.0), 90.0, (5.0, 6.0)) == pytest.approx(90.0)
    assert checks.true_aoa_deg((0.0, 6.0), 90.0, (0.0, 10.0)) == pytest.approx(0.0)
    assert checks.true_aoa_deg((0.0, 6.0), 90.0, (0.0, 1.0)) == pytest.approx(180.0)
    assert checks.true_aoa_deg((4.5, 0.0), 0.0, (7.5, 3.0)) == pytest.approx(45.0)


def test_near_truth_outputs_pass():
    assert checks.check(synthetic_outputs()) == []


def test_aoas_shifted_by_30_degrees_fail():
    problems = checks.check(shift_aoas(synthetic_outputs(), 30.0))
    assert any("AoA" in problem for problem in problems)


def test_fixes_pinned_to_the_room_centre_fail():
    problems = checks.check(pin_fixes(synthetic_outputs(), CENTRE))
    assert any("fix error" in problem for problem in problems)


def test_fix_outside_the_room_fails():
    outputs = synthetic_outputs()
    owner, _, truth = outputs.fixes[0]
    outputs.fixes[0] = (owner, (-0.5, 3.0), truth)
    assert any("outside the room" in problem for problem in checks.check(outputs))


def test_client_without_fix_and_failures_fail():
    outputs = synthetic_outputs()
    outputs.owners.add("silent-client")
    outputs.failures = {"rejected.queue_full": 2, "failed_solves": 0}
    problems = checks.check(outputs)
    assert any("never got a fix" in problem for problem in problems)
    assert any("failed operations" in problem for problem in problems)


@pytest.fixture(scope="module")
def offline_outputs():
    """One round of the offline campaign (a scene per survey cell)."""
    return workloads.OfflineCampaign().run(seed=1, seconds=0.0, rounds=1).outputs


def copy(outputs: checks.Outputs) -> checks.Outputs:
    return checks.Outputs(
        room=outputs.room,
        fixes=list(outputs.fixes),
        aoas=list(outputs.aoas),
        owners=set(outputs.owners),
        failures=dict(outputs.failures),
    )


def test_program_outputs_pass_and_corrupted_copies_fail(offline_outputs):
    assert checks.check(offline_outputs) == []
    assert any("AoA" in p for p in checks.check(shift_aoas(copy(offline_outputs), 30.0)))
    assert any("fix error" in p for p in checks.check(pin_fixes(copy(offline_outputs), CENTRE)))


def test_fold_splits_busy_and_self_time():
    spans = [
        ["optim.solve", 0.0, 10.0, -1],
        ["optim.operator.matmul", 1.0, 3.0, 0],
        ["optim.operator.rmatmul", 4.0, 5.0, 0],
        ["optim.solve", 20.0, 22.0, -1],
    ]
    table = layers.fold(spans)
    assert table["optim.solve"] == {"calls": 2, "busy_s": 12.0, "self_s": 9.0}
    assert table["optim.operator.matmul"]["self_s"] == 2.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail_percentile(1000) == 99.0
    assert workloads.tail_percentile(300) == 95.0
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(40) == 75.0
    assert workloads.tail_percentile(15) == 50.0
