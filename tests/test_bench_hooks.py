"""The benchmark's layer hooks still wrap live code.

bench/layers.py times and counts each layer by replacing a function where
the program looks it up: a module global or a class attribute. A refactor
that reaches a layer some other way leaves its wrapper installed but never
called, and the per-layer figures go quietly wrong. These tests install
both tracers around short trials and require that every wrapper runs and
that tracing changes no result. They import bench/ and edit no file there.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from affectsim import appraisal, harness, mind, pad, wire, world

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
T_MAX = 200


def _import_layers():
    sys.path.insert(0, BENCH)  # layers imports its sibling checks module
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(BENCH)


layers = _import_layers()

SIM = SimpleNamespace(
    harness=harness, world=world, wire=wire, appraisal=appraisal, pad=pad, mind=mind
)


def _trial(scenario):
    return harness.run_trial(scenario, harness.mixed_team(), 0, T_MAX)


@pytest.mark.parametrize("scenario", ["scenario1", "social"])
def test_every_hook_runs_and_tracing_changes_nothing(scenario, tmp_path):
    untraced = _trial(scenario)
    agents = len(untraced.agents)
    acts = sum(agent.time_cycles for agent in untraced.agents)  # one per agent-cycle
    observes = acts + agents  # every live agent observes once more than it acts
    assert not all(agent.finished for agent in untraced.agents)  # so T_MAX steps

    timer = layers.LayerTimer(T_MAX)
    with layers.Patches() as patches:
        timer.install(SIM, patches)  # raises KeyError if a hooked name is gone
        timed = _trial(scenario)
        calls = {name: rec[0] for name, rec in timer.stats.items()}
        # The CSV writers are only reached through run_matrix.
        harness.run_matrix([scenario], [harness.mixed_team()], 1, 0, str(tmp_path), t_max=T_MAX)
        writes = {name: timer.calls(name) for name in calls if name.startswith("harness.write_")}
    assert timed == untraced
    assert calls == {
        "harness.engine": 1,
        "world.sweep": T_MAX + 1,
        "world.step": T_MAX,
        "world.apply_motors": acts,
        "wire.readings": observes,
        "wire.command": acts,
        "appraisal.observe": observes,
        "pad.integrate": observes,
        "temperament.stress_update": observes,
        "mind.act": acts,
        "config.resolve_scenario": 1,
        "config.team_profiles": 1,
        "config.make_world": 1,
        "config.build_controllers": 1,
        "harness.write_trajectories": 0,
        "harness.write_metrics_csv": 0,
        "harness.write_summary_csv": 0,
    }
    assert writes == {
        "harness.write_trajectories": 1,
        "harness.write_metrics_csv": 1,
        "harness.write_summary_csv": 1,
    }

    probe = layers.Probe()
    with layers.Patches() as patches:
        probe.install(SIM, patches)
        # The probe's run_trial wrapper raises CheckError unless observe
        # calls equal act calls plus agents.
        probed = _trial(scenario)
    assert probed == untraced
    counts = probe.counts
    assert (counts["act"], counts["observe"], counts["steps"]) == (acts, observes, T_MAX)
    assert all(counts[name] > 0 for name in ("q6", "pad_vector", "actuation_limits"))
