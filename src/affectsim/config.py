"""Scenario configuration files.

A scenario is an INI-style text file with sections [arena], [walls],
[beacon], [spawns], [temperament], [appraisal_gains] and [thresholds].
Geometry is in meters, headings in degrees. Every tuning constant of the
temperament, appraisal and behavior layers can be overridden per
scenario; omitted keys keep library defaults. Loading validates every
override's range and the whole arrangement (beacon clear of walls,
spawns inside bounds and mutually disjoint) and reports problems as
ScenarioError naming the section.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .appraisal import GainConfig, ThresholdConfig
from .temperament import TemperamentConfig, TemperamentKind, TemperamentProfile
from .world import AgentBody, Arena, PhysicsConfig, Rect, World, placement_error


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Parsed, validated scenario: geometry plus layer configuration."""

    name: str
    arena: Arena
    spawns: Tuple[Tuple[float, float, float], ...]  # x, y, heading (radians)
    physics: PhysicsConfig
    temperament: TemperamentConfig
    gains: GainConfig
    thresholds: ThresholdConfig


BUILTIN_SCENARIOS = ("scenario1", "scenario2", "scenario3", "social")

_PHYSICS_KEYS = {
    "cycle_period",
    "v_max",
    "body_radius",
    "base_reach",
    "sigma_prox",
    "sigma_angle",
    "motor_floor",
    "reach_floor",
    "vision_half_angle_deg",
}
_ARENA_KEYS = {"name", "width", "height"} | _PHYSICS_KEYS
_BEACON_KEYS = {"x", "y", "radius"}
_TEMPERAMENT_KEYS = {
    "upper_band",
    "lower_band",
    "drift_rate",
    "anxiety_choleric",
    "anxiety_sanguine",
    "anxiety_phlegmatic",
    "anxiety_melancholic",
}
_GAIN_KEYS = {"max_step", "event_gain", "excitation_threat_boost"}
_THRESHOLD_KEYS = {
    "wall_ahead_prox",
    "occlusion_prox",
    "clear_path_angle_deg",
    "comfort_pleasure",
    "idle_mobility",
    "danger_radius",
    "social_radius",
    "recover_cycles",
    "steer_gain",
    "wander_base",
    "wander_span",
}
_SECTIONS = {
    "arena",
    "walls",
    "beacon",
    "spawns",
    "temperament",
    "appraisal_gains",
    "thresholds",
}


def _fail(where: str, problem: str) -> ScenarioError:
    return ScenarioError(f"{where}: {problem}")


def _floats(where: str, raw: str, count: int) -> List[float]:
    parts = raw.split()
    if len(parts) != count:
        raise _fail(where, f"expected {count} numbers, got {raw!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise _fail(where, f"non-numeric value in {raw!r}") from None


def _get_float(section: Mapping[str, str], key: str, default: float, where: str) -> float:
    if key not in section:
        return default
    try:
        return float(section[key])
    except ValueError:
        raise _fail(where, f"{key} must be a number, got {section[key]!r}") from None


def _overrides(section: Mapping[str, str], keys: set, where: str) -> Dict[str, float]:
    """The section's numeric keys among `keys`, as config fields.

    A `<field>_deg` key sets `<field>` in radians. Omitted keys are left
    out, so the config keeps its defaults for them.
    """
    fields = {}
    for key in section:
        if key in keys:
            value = _get_float(section, key, 0.0, where)
            if key.endswith("_deg"):
                fields[key[: -len("_deg")]] = math.radians(value)
            else:
                fields[key] = value
    return fields


def _build(where: str, make, *args, **kwargs):
    """Call a validating constructor; a bad value fails naming `where`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def _check_keys(name: str, section: Mapping[str, str], allowed: set) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise _fail(f"[{name}]", f"unknown keys {sorted(unknown)}")


def parse_scenario(source, name: Optional[str] = None) -> ScenarioSpec:
    """Parse a scenario from a path or from inline text (contains newlines)."""
    parser = configparser.ConfigParser(interpolation=None)
    if isinstance(source, str) and "\n" in source:
        parser.read_string(source)
        default_name = "inline"
    else:
        path = os.fspath(source)
        if not os.path.exists(path):
            raise _fail(path, "no such scenario file")
        read = parser.read(path)
        if not read:
            raise _fail(path, "unreadable scenario file")
        default_name = os.path.splitext(os.path.basename(path))[0]

    unknown = set(parser.sections()) - _SECTIONS
    if unknown:
        raise _fail("scenario", f"unknown sections {sorted(unknown)}")
    if "arena" not in parser or "spawns" not in parser:
        raise _fail("scenario", "sections [arena] and [spawns] are required")

    arena_sec = parser["arena"]
    _check_keys("arena", arena_sec, _ARENA_KEYS)
    for key in ("width", "height"):
        if key not in arena_sec:
            raise _fail("[arena]", f"missing {key}")
    width = _get_float(arena_sec, "width", 0.0, "[arena]")
    height = _get_float(arena_sec, "height", 0.0, "[arena]")

    physics = _build("[arena]", PhysicsConfig, **_overrides(arena_sec, _PHYSICS_KEYS, "[arena]"))

    walls: List[Rect] = []
    if "walls" in parser:
        for key, raw in parser["walls"].items():
            where = f"[walls] {key}"
            walls.append(_build(where, Rect, *_floats(where, raw, 4)))

    beacon = None
    arrival_radius = 0.5
    if "beacon" in parser:
        beacon_sec = parser["beacon"]
        _check_keys("beacon", beacon_sec, _BEACON_KEYS)
        for key in ("x", "y"):
            if key not in beacon_sec:
                raise _fail("[beacon]", f"missing {key}")
        beacon = (
            _get_float(beacon_sec, "x", 0.0, "[beacon]"),
            _get_float(beacon_sec, "y", 0.0, "[beacon]"),
        )
        arrival_radius = _get_float(beacon_sec, "radius", 0.5, "[beacon]")

    arena = _build("[arena]", Arena, width, height, tuple(walls), beacon, arrival_radius)

    spawns: List[Tuple[float, float, float]] = []
    for key, raw in parser["spawns"].items():
        x, y, heading_deg = _floats(f"[spawns] {key}", raw, 3)
        spawns.append((x, y, math.radians(heading_deg)))
    if not spawns:
        raise _fail("[spawns]", "at least one spawn point is required")

    temperament = TemperamentConfig()
    if "temperament" in parser:
        sec = parser["temperament"]
        _check_keys("temperament", sec, _TEMPERAMENT_KEYS)
        fields = _overrides(sec, {"drift_rate"}, "[temperament]")
        for band in ("upper_band", "lower_band"):
            if band in sec:
                fields[band] = tuple(_floats(f"[temperament] {band}", sec[band], 2))
        anxiety = dict(temperament.anxiety)
        for kind in TemperamentKind:
            key = f"anxiety_{kind.value}"
            if key in sec:
                anxiety[kind] = _get_float(sec, key, 0.0, "[temperament]")
        temperament = _build("[temperament]", TemperamentConfig, anxiety=anxiety, **fields)

    spec = ScenarioSpec(
        name=name or arena_sec.get("name", default_name),
        arena=arena,
        spawns=tuple(spawns),
        physics=physics,
        temperament=temperament,
        gains=_section_config(parser, "appraisal_gains", _GAIN_KEYS, GainConfig),
        thresholds=_section_config(parser, "thresholds", _THRESHOLD_KEYS, ThresholdConfig),
    )
    _validate_spawns(spec)
    return spec


def _section_config(parser: configparser.ConfigParser, name: str, keys: set, make):
    """The config `make` builds from the overrides in section [name]."""
    if name not in parser:
        return make()
    section = parser[name]
    _check_keys(name, section, keys)
    where = f"[{name}]"
    return _build(where, make, **_overrides(section, keys, where))


def _validate_spawns(spec: ScenarioSpec) -> None:
    pos = np.array([[x, y] for x, y, _ in spec.spawns])
    radii = np.full(len(spec.spawns), spec.physics.body_radius)
    names = [f"spawn {i}" for i in range(len(spec.spawns))]
    fault = placement_error(spec.arena, pos, radii, names)
    if fault is not None:
        raise _fail("[spawns]", fault)


def builtin_scenario(name: str) -> ScenarioSpec:
    """Load one of the bundled scenario fixtures by short name."""
    if name not in BUILTIN_SCENARIOS:
        raise _fail(name, f"unknown builtin scenario (have {BUILTIN_SCENARIOS})")
    text = (
        resources.files("affectsim")
        .joinpath(f"scenarios/{name}.ini")
        .read_text(encoding="utf-8")
    )
    return parse_scenario(text, name=name)


def resolve_scenario(source) -> ScenarioSpec:
    """Accept a ScenarioSpec, a builtin name, a path, or inline text."""
    if isinstance(source, ScenarioSpec):
        return source
    if isinstance(source, str) and source in BUILTIN_SCENARIOS:
        return builtin_scenario(source)
    return parse_scenario(source)


def make_world(
    spec: ScenarioSpec,
    profiles: Optional[Mapping[int, TemperamentProfile]] = None,
    seed: int = 0,
) -> World:
    """Instantiate the world for a scenario.

    With profiles, slot i occupies spawn i (there must be enough spawns);
    without, every spawn gets a bare body, useful for physics tests.
    """
    if profiles is not None:
        if len(profiles) > len(spec.spawns):
            raise _fail(
                spec.name,
                f"team of {len(profiles)} needs {len(profiles)} spawns, "
                f"scenario has {len(spec.spawns)}",
            )
        slots = sorted(profiles)
    else:
        slots = list(range(len(spec.spawns)))
    bodies = []
    for slot in slots:
        x, y, heading = spec.spawns[slot]
        bodies.append(
            AgentBody(slot, x, y, heading, radius=spec.physics.body_radius)
        )
    try:
        return World(spec.arena, bodies, profiles, spec.physics, seed)
    except ValueError as exc:
        raise _fail(spec.name, str(exc)) from None


def load_scenario(source, profiles=None, seed: int = 0) -> World:
    """Parse, validate, and instantiate in one call."""
    return make_world(resolve_scenario(source), profiles, seed)
