"""Tests that the benchmark's own checks reject bad outputs.

    python3 -m pytest bench -q

Each test starts from outputs the real harness wrote for a short matrix,
corrupts one thing, and expects CheckError.
"""

import csv
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from affectsim import appraisal, harness, mind, pad, wire, world  # noqa: E402
from checks import ArenaGeometry, CheckError, check_outputs  # noqa: E402
from layers import Patches, Probe  # noqa: E402

T_MAX = 60
STRIDE = 10
TRIALS = [("scenario1", "mixed", 0), ("scenario1", "mixed", 1)]


@pytest.fixture
def out_dir(tmp_path):
    harness.run_matrix(
        scenarios=["scenario1"],
        teams=[harness.builtin_teams()["mixed"]],
        runs=2,
        out_dir=str(tmp_path),
        traj_stride=STRIDE,
        t_max=T_MAX,
    )
    return str(tmp_path)


def _check(out_dir):
    return check_outputs(out_dir, TRIALS, T_MAX, STRIDE, 9)


def _edit(path, line, column, change):
    with open(path, newline="") as handle:
        records = list(csv.reader(handle))
    header = records[0]
    records[line][header.index(column)] = change(records[line][header.index(column)])
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(records)


def test_harness_outputs_pass(out_dir):
    summary = _check(out_dir)
    assert summary.agent_cycles == 2 * 9 * T_MAX
    assert len(summary.rows) == 18


@pytest.mark.parametrize(
    "column, change",
    [
        ("time_cycles", lambda v: v + "x"),
        ("mean_arousal", lambda v: "10.5"),
        ("finished", lambda v: "yes"),
        ("seed", lambda v: "7"),
    ],
)
def test_corrupted_metrics_row_is_rejected(out_dir, column, change):
    _edit(os.path.join(out_dir, "metrics.csv"), 3, column, change)
    with pytest.raises(CheckError):
        _check(out_dir)


def test_truncated_metrics_row_is_rejected(out_dir):
    path = os.path.join(out_dir, "metrics.csv")
    with open(path) as handle:
        lines = handle.read().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckError):
        _check(out_dir)


@pytest.mark.parametrize("column", ["pleasure", "mean_time_mean", "dominance_sanguine"])
def test_summary_value_off_by_one_ulp_is_rejected(out_dir, column):
    nudge = lambda v: repr(math.nextafter(float(v), math.inf))  # noqa: E731
    _edit(os.path.join(out_dir, "summary.csv"), 1, column, nudge)
    with pytest.raises(CheckError, match=column):
        _check(out_dir)


def test_wrong_behavior_count_total_is_rejected(out_dir):
    _edit(os.path.join(out_dir, "metrics.csv"), 2, "recover", lambda v: str(int(v) + 1))
    with pytest.raises(CheckError, match="behavior counts"):
        _check(out_dir)


def test_short_trajectory_file_is_rejected(out_dir):
    path = os.path.join(out_dir, "pad_traj_scenario1_mixed_1.csv")
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckError, match="rows"):
        _check(out_dir)


GEOMETRY = ArenaGeometry(12.0, 12.0, [(5.0, 4.0, 5.4, 8.0)], 0.25, (10.5, 10.5), 0.5)


def test_touching_poses_pass():
    GEOMETRY.check_poses([(0, 1.0, 1.0), (1, 1.5, 1.0), (2, 4.75, 6.0), (3, 0.25, 11.75)], "ok")


@pytest.mark.parametrize(
    "poses",
    [
        [(0, 1.0, 1.0), (1, 1.4, 1.0)],  # two bodies overlap
        [(0, 0.2, 6.0)],  # crosses the west boundary
        [(0, 6.0, 11.9)],  # crosses the north boundary
        [(0, 4.8, 6.0)],  # overlaps the wall block
    ],
)
def test_bad_pose_is_rejected(poses):
    with pytest.raises(CheckError):
        GEOMETRY.check_poses(poses, "bad")


def test_finish_outside_arrival_zone_is_rejected():
    GEOMETRY.check_arrival(0, 10.9, 10.5, "inside")
    with pytest.raises(CheckError):
        GEOMETRY.check_arrival(0, 11.1, 10.5, "outside")


def test_probe_sees_balanced_calls_and_restores_originals():
    originals = (harness.run_trial, harness.make_world, world.World.step, wire.q6)
    probe = Probe()
    sim = SimpleNamespace(
        harness=harness, appraisal=appraisal, mind=mind, pad=pad, wire=wire, world=world
    )
    recorder = harness.TrialRecorder()
    with Patches() as patches:
        probe.install(sim, patches)
        metrics = harness.run_trial("scenario1", harness.builtin_teams()["mixed"], 3, 40, recorder)
    assert (harness.run_trial, harness.make_world, world.World.step, wire.q6) == originals
    assert probe.counts["act"] == sum(a.time_cycles for a in metrics.agents)
    assert probe.counts["steps"] == 40
    assert probe.counts["q6"] > probe.counts["act"]
