"""Scenario file parsing, validation, and world construction."""

import math
import os
from dataclasses import fields

import pytest

from affectsim.config import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    ScenarioSpec,
    builtin_scenario,
    load_scenario,
    make_world,
    parse_scenario,
    resolve_scenario,
)
from affectsim.appraisal import GainConfig, ThresholdConfig
from affectsim.temperament import TemperamentConfig, TemperamentKind, sample_profile
from affectsim.world import PhysicsConfig
import numpy as np


MINIMAL = """
[arena]
width = 10
height = 8

[spawns]
s0 = 2 2 90
s1 = 5 5 0
"""


def test_minimal_scenario_parses():
    spec = parse_scenario(MINIMAL)
    assert spec.name == "inline"
    assert spec.arena.width == 10.0
    assert spec.arena.height == 8.0
    assert spec.arena.beacon is None
    assert spec.arena.walls == ()
    assert len(spec.spawns) == 2


def test_spawn_heading_is_converted_to_radians():
    spec = parse_scenario(MINIMAL)
    assert spec.spawns[0][2] == pytest.approx(math.pi / 2.0)
    assert spec.spawns[1][2] == 0.0


def test_name_override_beats_inline_default():
    spec = parse_scenario(MINIMAL, name="bench")
    assert spec.name == "bench"


def test_arena_name_key_used_when_no_override():
    text = MINIMAL.replace("[arena]", "[arena]\nname = maze")
    assert parse_scenario(text).name == "maze"


def test_builtin_scenarios_all_load():
    for name in BUILTIN_SCENARIOS:
        spec = builtin_scenario(name)
        assert spec.name == name
        assert len(spec.spawns) == 9


def test_builtin_scenario1_geometry():
    spec = builtin_scenario("scenario1")
    assert spec.arena.width == 12.0 and spec.arena.height == 12.0
    assert spec.arena.beacon == (10.5, 10.5)
    assert len(spec.arena.walls) == 2


def test_builtin_social_has_no_beacon():
    spec = builtin_scenario("social")
    assert spec.arena.beacon is None
    assert spec.arena.walls == ()


def test_builtin_unknown_name_rejected():
    with pytest.raises(ScenarioError, match="unknown builtin"):
        builtin_scenario("scenario9")


def test_resolve_scenario_passthrough_and_names():
    spec = builtin_scenario("scenario1")
    assert resolve_scenario(spec) is spec
    assert resolve_scenario("scenario1").name == "scenario1"
    assert resolve_scenario(MINIMAL).name == "inline"


def test_scenario_file_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "mini.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MINIMAL)
    spec = parse_scenario(path)
    assert spec.name == "mini"
    assert len(spec.spawns) == 2


def test_missing_scenario_file_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="no such scenario"):
        parse_scenario(os.path.join(tmp_path, "absent.ini"))


def test_arena_and_spawns_sections_required():
    with pytest.raises(ScenarioError, match="required"):
        parse_scenario("[arena]\nwidth = 5\nheight = 5\n")
    with pytest.raises(ScenarioError, match="required"):
        parse_scenario("[spawns]\ns0 = 1 1 0\n")


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="unknown sections"):
        parse_scenario(MINIMAL + "\n[lighting]\nsun = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="unknown keys"):
        parse_scenario(MINIMAL.replace("width = 10", "width = 10\ngravity = 9.8"))


def test_width_and_height_required():
    with pytest.raises(ScenarioError, match="missing height"):
        parse_scenario("[arena]\nwidth = 5\n\n[spawns]\ns0 = 1 1 0\n")


def test_non_numeric_value_rejected():
    with pytest.raises(ScenarioError, match="must be a number"):
        parse_scenario(MINIMAL.replace("width = 10", "width = wide"))


def test_wall_line_arity_checked():
    text = MINIMAL + "\n[walls]\nw0 = 1 2 3\n"
    with pytest.raises(ScenarioError, match="expected 4 numbers"):
        parse_scenario(text)


def test_wall_line_numeric_checked():
    text = MINIMAL + "\n[walls]\nw0 = 1 2 3 x\n"
    with pytest.raises(ScenarioError, match="non-numeric"):
        parse_scenario(text)


def test_degenerate_wall_rejected():
    text = MINIMAL + "\n[walls]\nw0 = 4 4 3 5\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_beacon_requires_coordinates():
    text = MINIMAL + "\n[beacon]\nx = 5\n"
    with pytest.raises(ScenarioError, match="missing y"):
        parse_scenario(text)


def test_beacon_inside_wall_rejected():
    text = MINIMAL + "\n[walls]\nw0 = 6 6 8 8\n\n[beacon]\nx = 7\ny = 7\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_arrival_zone_touching_wall_rejected():
    # Beacon center is clear of the wall but its arrival disc is not.
    text = MINIMAL + "\n[walls]\nw0 = 6 6 8 8\n\n[beacon]\nx = 5.7\ny = 7\nradius = 0.5\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_spawns_must_exist():
    with pytest.raises(ScenarioError, match="at least one spawn"):
        parse_scenario("[arena]\nwidth = 5\nheight = 5\n\n[spawns]\n")


def test_spawn_outside_bounds_rejected():
    with pytest.raises(ScenarioError, match="outside arena bounds"):
        parse_scenario(MINIMAL.replace("s0 = 2 2 90", "s0 = 0.1 2 90"))


def test_spawn_on_wall_rejected():
    text = MINIMAL + "\n[walls]\nw0 = 1.8 1.8 2.2 2.2\n"
    with pytest.raises(ScenarioError, match="overlaps a wall"):
        parse_scenario(text)


def test_overlapping_spawns_rejected():
    with pytest.raises(ScenarioError, match="overlap"):
        parse_scenario(MINIMAL.replace("s1 = 5 5 0", "s1 = 2.3 2 0"))


def test_physics_overrides_apply():
    text = MINIMAL.replace(
        "width = 10",
        "width = 10\nv_max = 0.9\nsigma_prox = 0\nvision_half_angle_deg = 45",
    )
    spec = parse_scenario(text)
    assert spec.physics.v_max == 0.9
    assert spec.physics.sigma_prox == 0.0
    assert spec.physics.vision_half_angle == pytest.approx(math.pi / 4.0)


def test_temperament_overrides_apply():
    text = MINIMAL + (
        "\n[temperament]\n"
        "upper_band = 0.5 0.9\n"
        "anxiety_choleric = 0.7\n"
        "drift_rate = 0.02\n"
    )
    spec = parse_scenario(text)
    assert spec.temperament.upper_band == (0.5, 0.9)
    assert spec.temperament.anxiety[TemperamentKind.CHOLERIC] == 0.7
    # Untouched kinds keep their defaults.
    assert spec.temperament.anxiety[TemperamentKind.SANGUINE] == 0.3
    assert spec.temperament.drift_rate == 0.02


def test_gain_and_threshold_overrides_apply():
    text = MINIMAL + (
        "\n[appraisal_gains]\nevent_gain = 0.1\n"
        "\n[thresholds]\nclear_path_angle_deg = 15\nsocial_radius = 2.5\n"
        "recover_cycles = 7\n"
    )
    spec = parse_scenario(text)
    assert spec.gains.event_gain == 0.1
    assert spec.gains.max_step == 0.1
    assert spec.thresholds.clear_path_angle == pytest.approx(math.radians(15.0))
    assert spec.thresholds.social_radius == 2.5
    assert spec.thresholds.recover_cycles == 7
    assert isinstance(spec.thresholds.recover_cycles, int)


def test_make_world_bare_bodies():
    spec = parse_scenario(MINIMAL)
    world = make_world(spec)
    assert sorted(b.agent_id for b in world.bodies) == [0, 1]
    assert world.body(0).x == 2.0 and world.body(0).y == 2.0


def test_make_world_with_profiles_uses_slots():
    spec = parse_scenario(MINIMAL)
    rng = np.random.default_rng(3)
    profiles = {
        0: sample_profile(TemperamentKind.SANGUINE, rng),
        1: sample_profile(TemperamentKind.CHOLERIC, rng),
    }
    world = make_world(spec, profiles, seed=5)
    assert len(world.bodies) == 2


def test_make_world_rejects_oversized_team():
    spec = parse_scenario(MINIMAL)
    rng = np.random.default_rng(3)
    profiles = {
        i: sample_profile(TemperamentKind.SANGUINE, rng) for i in range(3)
    }
    with pytest.raises(ScenarioError, match="spawns"):
        make_world(spec, profiles)


def test_load_scenario_one_call():
    world = load_scenario("scenario1")
    assert len(world.bodies) == 9


def test_spec_is_frozen():
    spec = parse_scenario(MINIMAL)
    with pytest.raises(Exception):
        spec.name = "other"
    assert isinstance(spec, ScenarioSpec)


@pytest.mark.parametrize(
    "section, line",
    [
        ("arena", "body_radius = 0"),
        ("arena", "sigma_prox = -1"),
        ("temperament", "anxiety_sanguine = 5"),
        ("temperament", "upper_band = 2 3"),
        ("arena", "v_max = -1"),
        ("arena", "cycle_period = 0"),
        ("thresholds", "recover_cycles = 2.7"),
    ],
)
def test_out_of_range_override_fails_at_parse_naming_its_section(section, line):
    key = line.split()[0]
    if section == "arena":
        text = MINIMAL.replace("width = 10", f"width = 10\n{line}")
    else:
        text = MINIMAL + f"\n[{section}]\n{line}\n"
    with pytest.raises(ScenarioError, match=rf"^\[{section}\]: {key}"):
        parse_scenario(text)


def _with_lines(section, lines):
    if section == "arena":
        return MINIMAL.replace("width = 10", "width = 10\n" + "\n".join(lines))
    return MINIMAL + f"\n[{section}]\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "section, config_type, attr",
    [
        ("arena", PhysicsConfig, "physics"),
        ("temperament", TemperamentConfig, "temperament"),
        ("appraisal_gains", GainConfig, "gains"),
        ("thresholds", ThresholdConfig, "thresholds"),
    ],
)
def test_every_config_field_is_settable_from_a_scenario(section, config_type, attr):
    # Half of every default is a valid, non-default value for each field.
    lines, expected = [], {}
    for f in fields(config_type):
        default = getattr(config_type(), f.name)
        if isinstance(default, dict):
            value = {kind: v / 2 for kind, v in default.items()}
            lines += [f"anxiety_{kind.value} = {v!r}" for kind, v in value.items()]
        elif isinstance(default, tuple):
            value = tuple(v / 2 for v in default)
            lines.append(f"{f.name} = " + " ".join(repr(v) for v in value))
        elif isinstance(default, int):
            value = default // 2
            lines.append(f"{f.name} = {value}")
        elif f.name in ("vision_half_angle", "clear_path_angle"):
            degrees = math.degrees(default) / 2
            value = math.radians(degrees)
            lines.append(f"{f.name}_deg = {degrees!r}")
        else:
            value = default / 2
            lines.append(f"{f.name} = {value!r}")
        assert value != default
        expected[f.name] = value
    config = getattr(parse_scenario(_with_lines(section, lines)), attr)
    assert {name: getattr(config, name) for name in expected} == expected


@pytest.mark.parametrize(
    "text, match",
    [
        (MINIMAL.replace("height = 8", "height = 8\nwidth = 3"), r"^scenario: .*already exists"),
        ("x = 1\n" + MINIMAL, r"^scenario: .*no section headers"),
        (MINIMAL + "\n[walls]\nw0 1 1 2 2\n", r"^scenario: .*parsing errors"),
        (
            _with_lines("arena", ["vision_half_angle_deg = 200"]),
            r"^\[arena\]: vision_half_angle_deg must lie in \[0, 180\]",
        ),
        (
            _with_lines("thresholds", ["clear_path_angle_deg = -1"]),
            r"^\[thresholds\]: clear_path_angle_deg must lie in \[0, 180\]",
        ),
    ],
    ids=["duplicate key", "line before any section", "line without =", "vision", "clear path"],
)
def test_malformed_file_is_a_scenario_error_naming_its_key(text, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(text)
