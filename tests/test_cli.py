"""Command-line entry points, exercised through main(argv)."""

import csv
import os
import threading

import pytest

from affectsim.cli import build_parser, main
from affectsim.harness import read_metrics_csv

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


@pytest.fixture()
def small_scenario(tmp_path):
    path = os.path.join(tmp_path, "small.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SMALL)
    return path


def test_parser_knows_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    names = set(actions[0].choices)
    assert {"run", "matrix", "score", "label", "serve", "client"} <= names


def test_label_prints_octant_and_big_five(capsys):
    assert main(["label", "--p", "0", "--a", "1", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert "hostile" not in out  # zero pleasure reads positive
    assert "octant: exuberant" in out
    assert "extraversion +0.720" in out
    assert "emotional stability -0.550" in out


def test_run_prints_results_and_writes_csv(small_scenario, tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "out")
    code = main(
        [
            "run",
            "--scenario",
            small_scenario,
            "--team",
            "sanguine",
            "--seed",
            "1",
            "--max-cycles",
            "80",
            "--out",
            out_dir,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "team sanguine on small seed 1" in out
    assert out.count("slot ") == 9
    names = os.listdir(out_dir)
    assert "metrics.csv" in names and "summary.csv" in names
    assert any(n.startswith("pad_traj_") for n in names)


def test_run_out_writes_what_the_matrix_writes(tmp_path, capsys):
    # Same (scenario, team, seed) and horizon: the same three files.
    run_dir, matrix_dir = tmp_path / "run", tmp_path / "matrix"
    horizon = ["--max-cycles", "300"]
    assert main(["run", "--team", "mixed", "--seed", "0", *horizon, "--out", str(run_dir)]) == 0
    assert (
        main(
            ["matrix", "--scenarios", "scenario1", "--teams", "mixed", "--runs", "1"]
            + horizon
            + ["--out", str(matrix_dir)]
        )
        == 0
    )
    names = sorted(os.listdir(matrix_dir))
    assert sorted(os.listdir(run_dir)) == names
    for name in names:
        assert (run_dir / name).read_bytes() == (matrix_dir / name).read_bytes(), name
    rows = read_metrics_csv(str(run_dir / "metrics.csv"))
    assert [sum(r.behaviors) for r in rows] == [r.time_cycles for r in rows]


def test_matrix_then_score_round_trip(small_scenario, tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "grid")
    code = main(
        [
            "matrix",
            "--scenarios",
            small_scenario,
            "--teams",
            "sanguine,melancholic",
            "--runs",
            "2",
            "--base-seed",
            "0",
            "--max-cycles",
            "60",
            "--out",
            out_dir,
        ]
    )
    assert code == 0
    matrix_out = capsys.readouterr().out
    assert "sanguine" in matrix_out and "melancholic" in matrix_out

    code = main(["score", "--csv", os.path.join(out_dir, "metrics.csv"), "--max-cycles", "60"])
    assert code == 0
    score_out = capsys.readouterr().out
    assert "trials   2" in score_out


def test_score_reads_the_horizon_from_the_rows(tmp_path, capsys):
    out_dir = tmp_path / "run"
    argv = ["run", "--team", "mixed", "--seed", "0", "--max-cycles", "300", "--out", str(out_dir)]
    assert main(argv) == 0
    with open(out_dir / "summary.csv", newline="") as handle:
        written = float(next(csv.DictReader(handle))["mean_time_mean"])
    capsys.readouterr()
    assert main(["score", "--csv", str(out_dir / "metrics.csv")]) == 0
    assert f"mean {written:8.1f}" in capsys.readouterr().out


def test_unknown_team_is_a_clean_error(small_scenario):
    with pytest.raises(SystemExit, match="unknown team"):
        main(["run", "--scenario", small_scenario, "--team", "stoic"])


def test_serve_and_clients_run_a_networked_trial(small_scenario, capsys):
    # Grab a free port first so client invocations can name it.
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    serve_code = {}

    def serve():
        serve_code["code"] = main(
            [
                "serve",
                "--scenario",
                small_scenario,
                "--team",
                "sanguine",
                "--seed",
                "0",
                "--max-cycles",
                "40",
                "--port",
                str(port),
            ]
        )

    server_thread = threading.Thread(target=serve, daemon=True)
    server_thread.start()

    client_args = [
        "client",
        "--scenario",
        small_scenario,
        "--team",
        "sanguine",
        "--seed",
        "0",
        "--host",
        "127.0.0.1",
        "--port",
        str(port),
    ]
    import time

    time.sleep(0.2)  # let the listener come up
    client_threads = [
        threading.Thread(target=main, args=(client_args + ["--name", f"c{i}"],), daemon=True)
        for i in range(9)
    ]
    for t in client_threads:
        t.start()
    server_thread.join(timeout=30.0)
    for t in client_threads:
        t.join(timeout=5.0)
    assert serve_code.get("code") == 0
    out = capsys.readouterr().out
    assert "listening on 127.0.0.1" in out
    assert "team sanguine on small seed 0" in out
