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
from dataclasses import dataclass, fields
from importlib import resources
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .appraisal import GainConfig, ThresholdConfig
from .pad import check_range
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

# Config fields set in degrees; their scenario keys carry a "_deg"
# suffix. Both are half-angles, so a key lies in [0, 180]. Other angles
# (sigma_angle) are set in radians.
_DEGREE_FIELDS = {"vision_half_angle", "clear_path_angle"}


def _keys(config_type) -> Dict[str, str]:
    """Scenario key -> field name, for every field of a config class."""
    return {
        f.name + ("_deg" if f.name in _DEGREE_FIELDS else ""): f.name
        for f in fields(config_type)
    }


_ARENA_KEYS = {"name", "width", "height"} | set(_keys(PhysicsConfig))
_BEACON_KEYS = {"x", "y", "radius"}
_ANXIETY_KEYS = {f"anxiety_{kind.value}": kind for kind in TemperamentKind}
_TEMPERAMENT_KEYS = {"upper_band", "lower_band", "drift_rate"} | set(_ANXIETY_KEYS)
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


def _overrides(section: Mapping[str, str], config_type, where: str) -> Dict[str, float]:
    """The section's numeric keys for fields of `config_type`, by field.

    A degree key is range-checked in degrees and set in radians. Omitted
    keys are left out, so the config keeps its defaults for them.
    """
    keys = _keys(config_type)
    values = {}
    for key in section:
        if key in keys:
            value = _get_float(section, key, 0.0, where)
            if keys[key] in _DEGREE_FIELDS:
                value = math.radians(_build(where, check_range, key, value, 0.0, 180.0))
            values[keys[key]] = value
    return values


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
    try:
        if isinstance(source, str) and "\n" in source:
            parser.read_string(source)
            default_name = "inline"
        else:
            path = os.fspath(source)
            if not os.path.exists(path):
                raise _fail(path, "no such scenario file")
            if not parser.read(path):
                raise _fail(path, "unreadable scenario file")
            default_name = os.path.splitext(os.path.basename(path))[0]
    except configparser.Error as exc:
        # Duplicate keys, lines outside a section, lines without "=".
        raise _fail("scenario", " ".join(str(exc).split())) from None

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

    physics = _build("[arena]", PhysicsConfig, **_overrides(arena_sec, PhysicsConfig, "[arena]"))

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
        sec, where = parser["temperament"], "[temperament]"
        _check_keys("temperament", sec, _TEMPERAMENT_KEYS)
        values = {"drift_rate": _get_float(sec, "drift_rate", temperament.drift_rate, where)}
        for band in ("upper_band", "lower_band"):
            if band in sec:
                values[band] = tuple(_floats(f"{where} {band}", sec[band], 2))
        anxiety = dict(temperament.anxiety)
        for key, kind in _ANXIETY_KEYS.items():
            if key in sec:
                anxiety[kind] = _get_float(sec, key, 0.0, where)
        temperament = _build(where, TemperamentConfig, anxiety=anxiety, **values)

    spec = ScenarioSpec(
        name=name or arena_sec.get("name", default_name),
        arena=arena,
        spawns=tuple(spawns),
        physics=physics,
        temperament=temperament,
        gains=_section_config(parser, "appraisal_gains", GainConfig),
        thresholds=_section_config(parser, "thresholds", ThresholdConfig),
    )
    _validate_spawns(spec)
    return spec


def _section_config(parser: configparser.ConfigParser, name: str, config_type):
    """The `config_type` built from the overrides in section [name]."""
    if name not in parser:
        return config_type()
    section = parser[name]
    _check_keys(name, section, set(_keys(config_type)))
    where = f"[{name}]"
    return _build(where, config_type, **_overrides(section, config_type, where))


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
