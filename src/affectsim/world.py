"""Discrete-time arena simulation.

A world is a rectangular arena with axis-aligned wall blocks, an optional
goal beacon with a circular arrival zone, and circular differential-drive
robot bodies. Time advances in fixed cycles: motor powers are low-pass
filtered and integrated, overlaps are resolved by rolling colliders back
to their pre-step pose, and each agent then gets a noisy sensor sweep
(three proximity rays, beacon bearing, compass, ground and collision
flags, and a vision list of nearby robots with their broadcast moods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .pad import EmotionLabel, check_range
from .temperament import TemperamentProfile, actuation_limits


def wrap_angle(theta: float) -> float:
    """Map an angle into [-pi, pi)."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Rect:
    """Axis-aligned wall block, closed on its boundary."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(f"degenerate rectangle {self!r}")

    def distance_to(self, x: float, y: float) -> float:
        cx = min(max(x, self.xmin), self.xmax)
        cy = min(max(y, self.ymin), self.ymax)
        return math.hypot(x - cx, y - cy)


@dataclass(frozen=True)
class Arena:
    """Static geometry of one scenario."""

    width: float
    height: float
    walls: Tuple[Rect, ...] = ()
    beacon: Optional[Tuple[float, float]] = None
    arrival_radius: float = 0.5

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("arena dimensions must be positive")
        if self.arrival_radius <= 0:
            raise ValueError("arrival radius must be positive")
        if self.beacon is not None:
            bx, by = self.beacon
            if not (0.0 <= bx <= self.width and 0.0 <= by <= self.height):
                raise ValueError("beacon lies outside the arena bounds")
            for wall in self.walls:
                if wall.distance_to(bx, by) <= self.arrival_radius:
                    raise ValueError("arrival zone intersects a wall")

    @cached_property
    def wall_extents(self) -> Tuple[np.ndarray, np.ndarray]:
        """(min corners, max corners) of the wall blocks, one row each."""
        lo = np.array([[r.xmin, r.ymin] for r in self.walls]).reshape(-1, 2)
        hi = np.array([[r.xmax, r.ymax] for r in self.walls]).reshape(-1, 2)
        return lo, hi


def placement_masks(
    arena: Arena, pos: np.ndarray, radii: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The placement rule for circles at `pos` (n x 2) with `radii`.

    Returns (outside, on_wall, touching): per circle, whether it leaves
    the arena and whether it overlaps a wall block; per pair, whether two
    circles overlap (symmetric, diagonal False). Spawn validation and the
    collision rollback in World.step both apply this one rule.
    """
    x, y = pos[:, 0], pos[:, 1]
    outside = (
        (x < radii)
        | (x > arena.width - radii)
        | (y < radii)
        | (y > arena.height - radii)
    )
    wall_min, wall_max = arena.wall_extents
    if wall_min.size:
        cx = np.clip(x[:, None], wall_min[None, :, 0], wall_max[None, :, 0])
        cy = np.clip(y[:, None], wall_min[None, :, 1], wall_max[None, :, 1])
        d2 = (x[:, None] - cx) ** 2 + (y[:, None] - cy) ** 2
        on_wall = (d2 < radii[:, None] ** 2).any(axis=1)
    else:
        on_wall = np.zeros(len(x), dtype=bool)
    delta = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(delta[..., 0], delta[..., 1])
    touching = dist < radii[:, None] + radii[None, :]
    np.fill_diagonal(touching, False)
    return outside, on_wall, touching


def placement_error(
    arena: Arena, pos: np.ndarray, radii: np.ndarray, names: Sequence[str]
) -> Optional[str]:
    """The first break of the placement rule in index order, or None."""
    outside, on_wall, touching = placement_masks(arena, pos, radii)
    for i, name in enumerate(names):
        if outside[i]:
            return f"{name} outside arena bounds"
        if on_wall[i]:
            return f"{name} overlaps a wall"
        for j in range(i):
            if touching[i, j]:
                return f"{names[j]} and {name} overlap"
    return None


@dataclass(frozen=True)
class PhysicsConfig:
    """World-level physical constants (one cycle = cycle_period seconds)."""

    cycle_period: float = 0.1  # s
    v_max: float = 0.5  # m/s at full forward power
    body_radius: float = 0.25  # m; axle length is one diameter
    base_reach: float = 4.0  # m, proximity/vision range at full force
    sigma_prox: float = 0.02  # noise sd on normalized proximity
    sigma_angle: float = 0.02  # noise sd on bearings/compass, radians
    motor_floor: float = 0.2  # power ceiling at zero force
    reach_floor: float = 0.6  # reach multiplier at zero force
    vision_half_angle: float = math.pi / 2.0

    def __post_init__(self) -> None:
        for name in ("cycle_period", "v_max", "body_radius", "base_reach"):
            check_range(name, getattr(self, name), 0.0, lo_open=True)
        for name in ("sigma_prox", "sigma_angle"):
            check_range(name, getattr(self, name), 0.0)
        check_range("motor_floor", self.motor_floor, 0.0, 1.0)
        check_range("reach_floor", self.reach_floor, 0.0, 1.0, lo_open=True)
        check_range("vision_half_angle", self.vision_half_angle, 0.0, math.pi)

    @property
    def axle(self) -> float:
        return 2.0 * self.body_radius


@dataclass(frozen=True)
class MotorCommand:
    """Requested wheel powers, fractions of full power."""

    left: float = 0.0
    right: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("left", self.left), ("right", self.right)):
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{name} power must lie in [-1, 1], got {value!r}")


COAST = MotorCommand(0.0, 0.0)


@dataclass(frozen=True)
class VisionContact:
    """One robot seen by the vision sensor."""

    bearing: float
    distance: float
    label: EmotionLabel


@dataclass(frozen=True)
class SensorReadings:
    """One agent's sweep for one cycle.

    Proximity rays point front, 60 degrees left and 60 degrees right; each
    value is center-to-obstacle distance normalized by current reach and
    clamped to [0, 1] after noise (1.0 = clear field). beacon_bearing is
    None when the scenario has no beacon. Bearings and compass lie in
    [-pi, pi).
    """

    proximity: Tuple[float, float, float]
    beacon_bearing: Optional[float]
    compass: float
    ground: bool
    collision: bool
    vision: Tuple[VisionContact, ...] = ()


@dataclass
class AgentBody:
    """Physical state of one robot."""

    agent_id: int
    x: float
    y: float
    heading: float
    radius: float = 0.25
    power_left: float = 0.0  # filtered wheel powers
    power_right: float = 0.0
    collision_flag: bool = False
    stopped: bool = False
    broadcast_label: EmotionLabel = EmotionLabel.EXUBERANT

    def pose(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.heading)

    def speed(self, physics: PhysicsConfig) -> float:
        return 0.5 * (self.power_left + self.power_right) * physics.v_max


def apply_motors(
    body: AgentBody,
    cmd: MotorCommand,
    profile: Optional[TemperamentProfile] = None,
    dt: int = 1,
    physics: PhysicsConfig = PhysicsConfig(),
) -> AgentBody:
    """Drive one body for dt cycles and return it.

    Requested powers are clipped to the profile's motor ceiling (1.0 for a
    bare body), low-pass filtered (new = 0.5 old + 0.5 clipped), and
    integrated: the body translates along its current heading at
    (l + r)/2 * v_max and then rotates by (r - l)/axle * v_max per cycle.
    """
    if dt < 1:
        raise ValueError(f"dt must be at least one cycle, got {dt!r}")
    ceiling = 1.0
    if profile is not None:
        ceiling = actuation_limits(
            profile, motor_floor=physics.motor_floor
        ).motor_ceiling
    left = min(max(cmd.left, -ceiling), ceiling)
    right = min(max(cmd.right, -ceiling), ceiling)
    period = physics.cycle_period
    for _ in range(dt):
        body.power_left = 0.5 * body.power_left + 0.5 * left
        body.power_right = 0.5 * body.power_right + 0.5 * right
        v = 0.5 * (body.power_left + body.power_right) * physics.v_max
        omega = (body.power_right - body.power_left) / physics.axle * physics.v_max
        body.x += v * period * math.cos(body.heading)
        body.y += v * period * math.sin(body.heading)
        body.heading = wrap_angle(body.heading + omega * period)
    return body


class World:
    """Mutable simulation state: arena, bodies, per-agent noise streams."""

    def __init__(
        self,
        arena: Arena,
        bodies: Sequence[AgentBody],
        profiles: Optional[Mapping[int, Optional[TemperamentProfile]]] = None,
        physics: PhysicsConfig = PhysicsConfig(),
        seed: int = 0,
    ) -> None:
        self.arena = arena
        self.physics = physics
        self.bodies: List[AgentBody] = sorted(bodies, key=lambda b: b.agent_id)
        ids = [b.agent_id for b in self.bodies]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate agent ids")
        self.profiles: Dict[int, Optional[TemperamentProfile]] = {
            b.agent_id: None for b in self.bodies
        }
        if profiles:
            self.profiles.update(profiles)
        self.cycle = 0
        # One noise stream per agent, keyed by slot so that agent order,
        # team composition, and early finishes cannot shift anyone's draws.
        self._rngs: Dict[int, np.random.Generator] = {
            b.agent_id: np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(1, b.agent_id))
            )
            for b in self.bodies
        }
        self._index = {b.agent_id: b for b in self.bodies}
        self._rebuild_geometry()
        fault = placement_error(arena, *self._circles(), [f"agent {i}" for i in ids])
        if fault is not None:
            raise ValueError(fault)

    # -- setup helpers -------------------------------------------------

    def _rebuild_geometry(self) -> None:
        pad = 1.0
        w, h = self.arena.width, self.arena.height
        rects = list(self.arena.walls)
        boundary = [
            Rect(-pad, -pad, 0.0, h + pad),
            Rect(w, -pad, w + pad, h + pad),
            Rect(-pad, -pad, w + pad, 0.0),
            Rect(-pad, h, w + pad, h + pad),
        ]
        allrects = rects + boundary
        self._rect_min = np.array([[r.xmin, r.ymin] for r in allrects])
        self._rect_max = np.array([[r.xmax, r.ymax] for r in allrects])
        self._order = {b.agent_id: j for j, b in enumerate(self.bodies)}
        self._reaches = {b.agent_id: self.reach(b.agent_id) for b in self.bodies}

    def _circles(self) -> Tuple[np.ndarray, np.ndarray]:
        """Body positions (n x 2) and radii, in slot order."""
        pos = np.array([[b.x, b.y] for b in self.bodies])
        radii = np.array([b.radius for b in self.bodies])
        return pos, radii

    # -- queries -------------------------------------------------------

    def body(self, agent_id: int) -> AgentBody:
        return self._index[agent_id]

    def reach(self, agent_id: int) -> float:
        profile = self.profiles.get(agent_id)
        mult = 1.0
        if profile is not None:
            mult = actuation_limits(
                profile, reach_floor=self.physics.reach_floor
            ).sensor_reach
        return self.physics.base_reach * mult

    def in_arrival_zone(self, x: float, y: float) -> bool:
        if self.arena.beacon is None:
            return False
        bx, by = self.arena.beacon
        return math.hypot(x - bx, y - by) <= self.arena.arrival_radius

    def active_ids(self) -> List[int]:
        return [b.agent_id for b in self.bodies if not b.stopped]

    # -- stepping ------------------------------------------------------

    def step(self, commands: Mapping[int, MotorCommand]) -> Dict[int, SensorReadings]:
        """Advance one cycle and return readings for every active agent.

        Agents without a command coast (zero target power); stopped bodies
        are frozen in place. All overlaps created this cycle are undone by
        rolling the involved bodies back to their pre-step pose and raising
        their collision flags.
        """
        before = {b.agent_id: b.pose() for b in self.bodies}
        for body in self.bodies:
            body.collision_flag = False
            if body.stopped:
                continue
            cmd = commands.get(body.agent_id, COAST)
            apply_motors(body, cmd, self.profiles.get(body.agent_id), 1, self.physics)

        # Fixed-point pose rollback: a body overlapping a wall, the
        # boundary, or another body reverts wholesale; reverting one body
        # can expose a new overlap for another, so iterate to quiescence.
        rolled: set = set()
        while True:
            offenders = set()
            outside, on_wall, hit = placement_masks(self.arena, *self._circles())
            for j in np.nonzero(outside | on_wall)[0]:
                body = self.bodies[j]
                if body.agent_id not in rolled:
                    offenders.add(body.agent_id)
            for j, k in zip(*np.nonzero(np.triu(hit))):
                a, b = self.bodies[j], self.bodies[k]
                a.collision_flag = True
                b.collision_flag = True
                for part in (a, b):
                    if part.agent_id not in rolled:
                        offenders.add(part.agent_id)
            if not offenders:
                break
            for agent_id in offenders:
                body = self._index[agent_id]
                body.x, body.y, body.heading = before[agent_id]
                body.collision_flag = True
                rolled.add(agent_id)

        self.cycle += 1
        return self.sense_active()

    def sense_active(self) -> Dict[int, SensorReadings]:
        return _sweep(self, self.active_ids())


def _ray_distances(
    origins: np.ndarray,
    dirs: np.ndarray,
    rect_min: np.ndarray,
    rect_max: np.ndarray,
) -> np.ndarray:
    """Distance to the nearest rectangle along each (origin, direction) ray.

    Slab test vectorized over rays x rectangles; parallel rays are handled
    without dividing by zero so an agent sliding exactly along a wall edge
    cannot poison the result with NaNs. Returns +inf where a ray misses.
    """
    o = origins[:, None, :]
    d = dirs[:, None, :]
    lo = rect_min[None, :, :] - o
    hi = rect_max[None, :, :] - o
    nonzero = d != 0.0
    safe = np.where(nonzero, d, 1.0)
    t_lo = np.where(nonzero, lo / safe, np.where(lo <= 0.0, -np.inf, np.inf))
    t_hi = np.where(nonzero, hi / safe, np.where(hi >= 0.0, np.inf, -np.inf))
    t_min = np.minimum(t_lo, t_hi)
    t_max = np.maximum(t_lo, t_hi)
    near = t_min.max(axis=2)
    far = t_max.min(axis=2)
    hit = (near <= far) & (far >= 0.0) & (near >= 0.0)
    dist = np.where(hit, near, np.inf)
    return dist.min(axis=1)


def _circle_distances(
    origins: np.ndarray, dirs: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Distance to the nearest circle along each ray (+inf on a miss).

    A ray cast from a circle's own center never hits that circle (its near
    root is negative), so callers need not exclude the caster's body.
    """
    if centers.size == 0:
        return np.full(dirs.shape[0], np.inf)
    oc = centers[None, :, :] - origins[:, None, :]
    b = (dirs[:, None, :] * oc).sum(axis=2)
    closest_sq = (oc * oc).sum(axis=2) - b * b
    disc = radii[None, :] ** 2 - closest_sq
    ok = disc >= 0.0
    t = np.where(ok, b - np.sqrt(np.where(ok, disc, 0.0)), np.inf)
    t = np.where(t >= 0.0, t, np.inf)
    return t.min(axis=1)


_RAY_OFFSETS = (0.0, math.pi / 3.0, -math.pi / 3.0)  # front, left, right


def _sweep(world: World, ids: Sequence[int]) -> Dict[int, SensorReadings]:
    """Sensor sweep for several agents in one vectorized pass.

    Noise is still drawn per agent from that agent's own stream, in the
    same order as a one-agent sweep, so batching cannot change any
    reading.
    """
    if not ids:
        return {}
    physics = world.physics
    bodies = world.bodies
    pos = np.array([[b.x, b.y] for b in bodies])
    radii = np.array([b.radius for b in bodies])
    rows = [world._order[i] for i in ids]
    origins = pos[rows]
    headings = np.array([bodies[j].heading for j in rows])
    reaches = np.array([world._reaches[i] for i in ids])

    angles = headings[:, None] + np.asarray(_RAY_OFFSETS)[None, :]
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    ray_o = np.repeat(origins, len(_RAY_OFFSETS), axis=0)
    ray_d = dirs.reshape(-1, 2)
    wall_d = _ray_distances(ray_o, ray_d, world._rect_min, world._rect_max)
    body_d = _circle_distances(ray_o, ray_d, pos, radii)
    obstacle = np.minimum(wall_d, body_d).reshape(len(rows), len(_RAY_OFFSETS))
    raw = np.minimum(obstacle, reaches[:, None]) / reaches[:, None]

    delta = pos[None, :, :] - origins[:, None, :]
    dists = np.hypot(delta[:, :, 0], delta[:, :, 1])
    rel_bearings = np.arctan2(delta[:, :, 1], delta[:, :, 0]) - headings[:, None]

    out: Dict[int, SensorReadings] = {}
    for k, agent_id in enumerate(ids):
        body = bodies[rows[k]]
        rng = world._rngs[agent_id]
        noise = rng.normal(0.0, physics.sigma_prox, 3)
        prox = tuple(
            float(min(max(raw[k, i] + noise[i], 0.0), 1.0)) for i in range(3)
        )

        beacon_bearing = None
        if world.arena.beacon is not None:
            bx, by = world.arena.beacon
            bearing = math.atan2(by - body.y, bx - body.x) - body.heading
            beacon_bearing = wrap_angle(
                bearing + float(rng.normal(0.0, physics.sigma_angle))
            )
        compass = wrap_angle(body.heading + float(rng.normal(0.0, physics.sigma_angle)))

        contacts = []
        for j, other in enumerate(bodies):
            if j == rows[k] or dists[k, j] > reaches[k]:
                continue
            bearing = wrap_angle(float(rel_bearings[k, j]))
            if abs(bearing) > physics.vision_half_angle:
                continue
            contacts.append(
                VisionContact(bearing, float(dists[k, j]), other.broadcast_label)
            )

        out[agent_id] = SensorReadings(
            proximity=prox,
            beacon_bearing=beacon_bearing,
            compass=compass,
            ground=world.in_arrival_zone(body.x, body.y),
            collision=body.collision_flag,
            vision=tuple(contacts),
        )
    return out


def sense(world: World, agent_id: int) -> SensorReadings:
    """Noisy sensor sweep for one agent at the current world state.

    Proximity is the center-to-obstacle ray distance capped at the agent's
    reach, normalized and clamped to [0, 1] after Gaussian noise. Vision
    lists every other robot within reach and the frontal field of view,
    ordered by agent id. Draws from the agent's own noise stream.
    """
    return _sweep(world, [agent_id])[agent_id]
