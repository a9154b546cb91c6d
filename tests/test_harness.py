"""Scoring, teams, trials, the experiment matrix, and CSV round-trips."""

import math
import os
import random
from importlib import resources

import pytest

from affectsim.config import parse_scenario
from affectsim.harness import (
    T_MAX,
    AgentRow,
    TeamSpec,
    TrialFailure,
    TrialRecorder,
    agent_rows_for_trial,
    builtin_teams,
    controller_for_slot,
    homogeneous_team,
    mixed_team,
    read_metrics_csv,
    run_matrix,
    run_trial,
    score_team,
    slot_rng,
    summarize,
    team_profiles,
    write_metrics_csv,
    write_summary_csv,
    write_trajectories,
)
from affectsim.temperament import TemperamentKind


# A small arena that keeps trial tests fast; nine spawns, one beacon.
SMALL = """
[arena]
width = 8
height = 8

[beacon]
x = 7
y = 7
radius = 0.5

[spawns]
s0 = 2 2 45
s1 = 4 2 45
s2 = 6 2 90
s3 = 2 4 0
s4 = 4 4 45
s5 = 6 4 90
s6 = 2 6 0
s7 = 4 6 45
s8 = 6 6 45
"""


# -- scoring ------------------------------------------------------------


def test_score_worked_example():
    assert score_team([(True, 200), (False, 1800)]) == (1000.0, 200.0)


def test_score_uniform_team():
    assert score_team([(True, 100)] * 9) == (100.0, 100.0)


def test_score_nobody_finished():
    assert score_team([(False, 0)] * 4) == (float(T_MAX), float(T_MAX))


def test_score_respects_custom_horizon():
    assert score_team([(False, 0), (True, 50)], t_max=100) == (75.0, 50.0)


def test_score_empty_team_rejected():
    with pytest.raises(ValueError, match="empty"):
        score_team([])


def test_score_out_of_range_finish_rejected():
    with pytest.raises(ValueError, match="outside"):
        score_team([(True, T_MAX + 1)])


def test_score_is_permutation_invariant():
    rng = random.Random(4)
    entries = [(rng.random() < 0.6, rng.randrange(0, T_MAX)) for _ in range(9)]
    reference = score_team(entries)
    for _ in range(10):
        rng.shuffle(entries)
        assert score_team(entries) == reference


def test_score_improves_when_an_agent_speeds_up():
    slow = [(True, 900), (False, 0), (True, 400)]
    fast = [(True, 300), (False, 0), (True, 400)]
    assert score_team(fast)[0] < score_team(slow)[0]
    assert score_team(fast)[1] <= score_team(slow)[1]


# -- teams --------------------------------------------------------------


def test_homogeneous_team_shape():
    team = homogeneous_team(TemperamentKind.SANGUINE)
    assert team.name == "sanguine"
    assert team.composition == (TemperamentKind.SANGUINE,) * 9


def test_mixed_team_is_cyclic_three_two_two_two():
    team = mixed_team()
    assert team.name == "mixed"
    counts = {k: team.composition.count(k) for k in TemperamentKind}
    assert counts[TemperamentKind.CHOLERIC] == 3
    assert counts[TemperamentKind.SANGUINE] == 2
    assert counts[TemperamentKind.PHLEGMATIC] == 2
    assert counts[TemperamentKind.MELANCHOLIC] == 2
    assert team.composition[:4] == team.composition[4:8]


def test_builtin_teams_cover_all_kinds_plus_mixed():
    teams = builtin_teams()
    assert sorted(teams) == ["choleric", "melancholic", "mixed", "phlegmatic", "sanguine"]


def test_team_size_is_enforced():
    with pytest.raises(ValueError, match="nine|9"):
        TeamSpec("tiny", (TemperamentKind.SANGUINE,) * 5)


# -- per-slot randomness ------------------------------------------------


def test_slot_rng_is_reproducible_and_stream_separated():
    a = slot_rng(7, 3, 0).uniform(size=4)
    b = slot_rng(7, 3, 0).uniform(size=4)
    c = slot_rng(7, 3, 2).uniform(size=4)
    d = slot_rng(7, 4, 0).uniform(size=4)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert list(a) != list(d)


def test_team_profiles_depend_only_on_seed_slot_kind():
    sang = team_profiles(homogeneous_team(TemperamentKind.SANGUINE), 11)
    mixed = team_profiles(mixed_team(), 11)
    assert len(sang) == 9
    # Slot 1 is sanguine in both teams, so the draw is identical.
    assert mixed[1].force.value == sang[1].force.value
    assert mixed[1].mobility.value == sang[1].mobility.value
    for slot, kind in enumerate(mixed_team().composition):
        assert mixed[slot].kind is kind


def test_controller_profile_matches_team_profiles():
    spec = parse_scenario(SMALL)
    team = mixed_team()
    profiles = team_profiles(team, 3, spec.temperament)
    ctl = controller_for_slot(spec, team, 3, slot=5)
    assert ctl.profile.kind is profiles[5].kind
    assert ctl.profile.force.value == profiles[5].force.value


# -- single trials ------------------------------------------------------


def test_run_trial_is_deterministic():
    spec = parse_scenario(SMALL)
    team = homogeneous_team(TemperamentKind.SANGUINE)
    a = run_trial(spec, team, seed=2, t_max=120)
    b = run_trial(spec, team, seed=2, t_max=120)
    assert a == b


def test_run_trial_metrics_are_consistent():
    spec = parse_scenario(SMALL)
    team = homogeneous_team(TemperamentKind.CHOLERIC)
    metrics = run_trial(spec, team, seed=0, t_max=150)
    assert metrics.scenario == "inline" and metrics.team == "choleric"
    assert len(metrics.agents) == 9
    lengths = {len(a.trajectory) for a in metrics.agents}
    assert len(lengths) == 1  # padded to a common length
    for agent in metrics.agents:
        if agent.finished:
            assert 0 <= agent.time_cycles < 150
        else:
            assert agent.time_cycles == 150
    expected = score_team(
        [(a.finished, a.time_cycles) for a in metrics.agents], t_max=150
    )
    assert (metrics.mean_time, metrics.best_time) == expected


def test_run_trial_accepts_builtin_scenario_names():
    team = homogeneous_team(TemperamentKind.SANGUINE)
    metrics = run_trial("scenario1", team, seed=1, t_max=30)
    assert metrics.scenario == "scenario1"


def test_recorder_counts_behaviors():
    spec = parse_scenario(SMALL)
    recorder = TrialRecorder()
    metrics = run_trial(
        spec, homogeneous_team(TemperamentKind.SANGUINE), 0, t_max=60, recorder=recorder
    )
    length = len(metrics.agents[0].trajectory)
    assert sorted(recorder.behavior_counts) == list(range(9))
    for slot, counts in recorder.behavior_counts.items():
        assert 1 <= sum(counts.values()) <= length


def test_recorder_positions_when_asked():
    spec = parse_scenario(SMALL)
    recorder = TrialRecorder(record_positions=True)
    metrics = run_trial(
        spec, homogeneous_team(TemperamentKind.PHLEGMATIC), 0, t_max=40, recorder=recorder
    )
    length = len(metrics.agents[0].trajectory)
    assert sorted(recorder.positions) == list(range(9))
    assert all(len(track) == length for track in recorder.positions.values())


# -- aggregation and CSV ------------------------------------------------


def _toy_rows():
    rows = []
    for seed in (0, 1):
        for slot in range(3):
            rows.append(
                AgentRow(
                    scenario="s",
                    team="t",
                    seed=seed,
                    slot=slot,
                    kind="sanguine" if slot else "choleric",
                    finished=slot != 2,
                    time_cycles=100 * (slot + 1) if slot != 2 else 500,
                    mean_pleasure=0.1 * slot + seed,
                    mean_arousal=0.2,
                    mean_dominance=-0.1,
                    behaviors=(1, 2, 3, 4, 5, 6, 7),
                )
            )
    return rows


def test_agent_rows_average_the_trajectory():
    spec = parse_scenario(SMALL)
    metrics = run_trial(spec, homogeneous_team(TemperamentKind.SANGUINE), 0, t_max=50)
    rows = agent_rows_for_trial(metrics)
    for row, agent in zip(rows, metrics.agents):
        assert row.slot == agent.slot
        traj_mean = sum(p for p, _, _ in agent.trajectory) / len(agent.trajectory)
        assert row.mean_pleasure == pytest.approx(traj_mean, abs=1e-12)


def test_summarize_scores_per_seed_then_averages():
    cells = summarize(_toy_rows(), t_max=500)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.trials == 2
    per_seed = score_team([(True, 100), (True, 200), (False, 500)], t_max=500)
    assert cell.mean_time_mean == per_seed[0]
    assert cell.mean_time_std == 0.0
    assert cell.best_time_mean == per_seed[1]
    kinds = dict(cell.by_kind)
    assert set(kinds) == {"choleric", "sanguine"}
    assert kinds["choleric"][0] == pytest.approx(0.5)  # seeds 0 and 1, slot 0


def test_metrics_csv_round_trip_is_exact(tmp_path):
    rows = _toy_rows()
    path = os.path.join(tmp_path, "metrics.csv")
    write_metrics_csv(rows, path)
    back = read_metrics_csv(path)
    assert back == rows
    assert summarize(back, t_max=500) == summarize(rows, t_max=500)


def test_metrics_csv_header_is_checked(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not,a,metrics,file\n1,2,3,4\n")
    with pytest.raises(ValueError, match="header"):
        read_metrics_csv(path)


def test_summary_csv_is_stable_bytes(tmp_path):
    cells = summarize(_toy_rows(), t_max=500)
    p1 = os.path.join(tmp_path, "a.csv")
    p2 = os.path.join(tmp_path, "b.csv")
    write_summary_csv(cells, p1)
    write_summary_csv(cells, p2)
    with open(p1, "rb") as fh:
        one = fh.read()
    with open(p2, "rb") as fh:
        two = fh.read()
    assert one == two and one.startswith(b"scenario,team,trials,")


def test_trajectory_file_stride_and_padding(tmp_path):
    spec = parse_scenario(SMALL)
    metrics = run_trial(spec, homogeneous_team(TemperamentKind.SANGUINE), 0, t_max=55)
    path = write_trajectories(metrics, os.fspath(tmp_path), stride=10)
    assert os.path.basename(path) == "pad_traj_inline_sanguine_0.csv"
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    length = len(metrics.agents[0].trajectory)
    assert len(lines) == 1 + math.ceil(length / 10)
    assert lines[0].split(",")[:4] == ["cycle", "s0_pleasure", "s0_arousal", "s0_dominance"]
    assert lines[1].split(",")[0] == "0"


def test_trajectory_stride_validated(tmp_path):
    spec = parse_scenario(SMALL)
    metrics = run_trial(spec, homogeneous_team(TemperamentKind.SANGUINE), 0, t_max=20)
    with pytest.raises(ValueError, match="stride"):
        write_trajectories(metrics, os.fspath(tmp_path), stride=0)


# -- the matrix ---------------------------------------------------------


def test_small_matrix_shape_and_files(tmp_path):
    spec = parse_scenario(SMALL, name="small")
    teams = [
        homogeneous_team(TemperamentKind.SANGUINE),
        homogeneous_team(TemperamentKind.MELANCHOLIC),
    ]
    out = os.path.join(tmp_path, "out")
    report = run_matrix([spec], teams, runs=2, base_seed=5, out_dir=out, t_max=60)
    assert len(report.agent_rows) == 1 * 2 * 2 * 9
    assert {r.seed for r in report.agent_rows} == {5, 6}
    assert len(report.cells) == 2
    assert report.cell("small", "sanguine").trials == 2
    with pytest.raises(KeyError):
        report.cell("small", "choleric")
    names = sorted(os.listdir(out))
    assert "metrics.csv" in names and "summary.csv" in names
    assert sum(n.startswith("pad_traj_") for n in names) == 4
    # The emitted metrics round-trip into the in-memory report exactly.
    back = read_metrics_csv(os.path.join(out, "metrics.csv"))
    assert tuple(back) == report.agent_rows


def test_matrix_reruns_byte_identically(tmp_path):
    spec = parse_scenario(SMALL, name="small")
    teams = [homogeneous_team(TemperamentKind.CHOLERIC)]
    outs = []
    for sub in ("one", "two"):
        out = os.path.join(tmp_path, sub)
        run_matrix([spec], teams, runs=2, base_seed=0, out_dir=out, t_max=60)
        outs.append(out)
    for name in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], name), "rb") as fh:
            one = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            two = fh.read()
        assert one == two, name


def test_matrix_failure_names_the_cell():
    tiny = parse_scenario(MINI_TWO_SPAWNS, name="tiny")
    with pytest.raises(TrialFailure, match=r"scenario=tiny.*team=sanguine.*seed=0"):
        run_matrix([tiny], [homogeneous_team(TemperamentKind.SANGUINE)], runs=1)


MINI_TWO_SPAWNS = """
[arena]
width = 8
height = 8

[spawns]
s0 = 2 2 0
s1 = 5 5 0
"""


def test_large_appraisal_gains_run_to_the_horizon():
    # Scaled bank deltas can leave the PAD cube (choleric: 0.6 x 1.9 on
    # dominance); only their clamped sum is a point, so the trial runs on.
    text = resources.files("affectsim").joinpath("scenarios/scenario1.ini").read_text(encoding="utf-8")
    spec = parse_scenario(text + "\n[appraisal_gains]\nmax_step = 0.6\nevent_gain = 0.6\n")
    metrics = run_trial(spec, homogeneous_team(TemperamentKind.CHOLERIC), seed=0, t_max=200)
    for agent in metrics.agents:
        assert len(agent.trajectory) == 201
        for point in agent.trajectory:
            assert all(-10.0 <= value <= 10.0 for value in point)
