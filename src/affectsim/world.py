"""Discrete-time arena simulation.

A world is a rectangular arena with axis-aligned wall blocks, an optional
goal beacon with a circular arrival zone, and circular differential-drive
robot bodies. Time advances in fixed cycles: motor powers are low-pass
filtered and integrated, overlaps are resolved by rolling colliders back
to their pre-step pose, and each agent then gets a noisy sensor sweep
(three proximity rays, beacon bearing, compass, ground and collision
flags, and a vision list of nearby robots with their broadcast moods).

A ray's distance to the arena boundary is solved in closed form, to
interior wall blocks by the slab test, and to robot bodies from the same
pairwise offsets that vision reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .pad import EmotionLabel, check_range
from .temperament import TemperamentProfile, actuation_limits


def wrap_angle(theta: float) -> float:
    """Map an angle into [-pi, pi)."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def _wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle elementwise, with the same operations and so the same bits."""
    wrapped = np.fmod(theta + math.pi, 2.0 * math.pi)
    return np.where(wrapped < 0.0, wrapped + 2.0 * math.pi, wrapped) - math.pi


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
        if -1.0 <= self.left <= 1.0 >= self.right >= -1.0:
            return
        for name, value in (("left", self.left), ("right", self.right)):
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{name} power must lie in [-1, 1], got {value!r}")


COAST = MotorCommand(0.0, 0.0)


class VisionContact(NamedTuple):
    """One robot seen by the vision sensor."""

    bearing: float
    distance: float
    label: EmotionLabel


class SensorReadings(NamedTuple):
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
        # Only the sweep reads a stream. It draws standard normals ahead in
        # blocks of _NOISE_BLOCK and takes them in order, 3 proximity, then
        # beacon (if any), then compass, so each value is the one a call to
        # normal(0, sigma) would have drawn at that point.
        self._noise: Dict[int, Iterator[float]] = {
            b.agent_id: _noise_buffer(
                np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(1, b.agent_id))
                )
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
        self._wall_min, self._wall_max = self.arena.wall_extents
        self._radii = np.array([b.radius for b in self.bodies])
        self._radii_sq = self._radii ** 2
        self._rows = np.arange(len(self.bodies))
        self._order = {b.agent_id: j for j, b in enumerate(self.bodies)}
        self._reaches = {b.agent_id: self.reach(b.agent_id) for b in self.bodies}

    def _circles(self) -> Tuple[np.ndarray, np.ndarray]:
        """Body positions (n x 2) and radii, in slot order."""
        return np.array([[b.x, b.y] for b in self.bodies]), self._radii

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
        bodies = self.bodies
        before = [(b.x, b.y, b.heading) for b in bodies]
        for body in bodies:
            body.collision_flag = False
            if body.stopped:
                continue
            cmd = commands.get(body.agent_id, COAST)
            apply_motors(body, cmd, self.profiles.get(body.agent_id), 1, self.physics)

        # Fixed-point pose rollback: a body overlapping a wall, the
        # boundary, or another body reverts wholesale; reverting one body
        # can expose a new overlap for another, so iterate to quiescence.
        rolled = [False] * len(bodies)
        while True:
            offenders = set()
            outside, on_wall, hit = placement_masks(self.arena, *self._circles())
            for j in np.flatnonzero(outside | on_wall).tolist():
                if not rolled[j]:
                    offenders.add(j)
            first, second = np.nonzero(hit)
            for j, k in zip(first.tolist(), second.tolist()):
                if j > k:  # each pair once
                    continue
                bodies[j].collision_flag = True
                bodies[k].collision_flag = True
                if not rolled[j]:
                    offenders.add(j)
                if not rolled[k]:
                    offenders.add(k)
            if not offenders:
                break
            for j in offenders:
                body = bodies[j]
                body.x, body.y, body.heading = before[j]
                body.collision_flag = True
                rolled[j] = True

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

    Slab test vectorized over rays x rectangles; `origins` and `dirs`
    (..., 2) broadcast against each other, one ray per resulting row.
    Parallel rays are handled without dividing by zero so an agent sliding
    exactly along a wall edge cannot poison the result with NaNs. Returns
    +inf where a ray misses.
    """
    o = origins[..., None, :]
    d = dirs[..., None, :]
    lo = rect_min - o
    hi = rect_max - o
    nonzero = d != 0.0
    safe = np.where(nonzero, d, 1.0)
    t_lo = np.where(nonzero, lo / safe, np.where(lo <= 0.0, -np.inf, np.inf))
    t_hi = np.where(nonzero, hi / safe, np.where(hi >= 0.0, np.inf, -np.inf))
    t_min = np.minimum(t_lo, t_hi)
    t_max = np.maximum(t_lo, t_hi)
    near = t_min.max(axis=-1)
    far = t_max.min(axis=-1)
    hit = (near <= far) & (far >= 0.0) & (near >= 0.0)
    dist = np.where(hit, near, np.inf)
    return dist.min(axis=-1)


def _boundary_distances(
    x: np.ndarray, y: np.ndarray, c: np.ndarray, s: np.ndarray, width: float, height: float
) -> np.ndarray:
    """Distance along each ray from (x, y) with direction (c, s) to the arena edge.

    The ray runs to x = width when c > 0 and to x = 0 otherwise, and the
    same for y; a zero component divides by zero and gives an infinite
    distance on its axis, so call this under np.errstate(divide="ignore").
    For origins inside the arena each value has the bits the slab test
    gives for boundary blocks padded outside the arena.
    """
    return np.minimum(
        np.abs((np.where(c > 0.0, width, 0.0) - x) / c),
        np.abs((np.where(s > 0.0, height, 0.0) - y) / s),
    )


_RAY_OFFSETS = np.array([0.0, math.pi / 3.0, -math.pi / 3.0])  # front, left, right

_NOISE_BLOCK = 256  # standard normals a slot's noise stream draws at a time


def _noise_buffer(rng: np.random.Generator) -> Iterator[float]:
    """A slot's standard normals in draw order, drawn ahead in blocks.

    Generator.normal(loc, scale) computes loc + scale * z from the same
    sequence of standard normals, so 0.0 + sigma * z for the next z is
    the value a fresh normal(0, sigma) call would have returned.
    """
    while True:
        yield from rng.standard_normal(_NOISE_BLOCK).tolist()


def _sweep(world: World, ids: Sequence[int]) -> Dict[int, SensorReadings]:
    """Sensor sweep for several agents in one vectorized pass.

    Noise comes from each agent's own stream in a fixed order per cycle:
    three proximity values, the beacon bearing (only when the scenario
    has a beacon), then the compass. The stream is drawn ahead in blocks
    of _NOISE_BLOCK, which changes no value, so batching, block length
    and the set of agents sensed cannot change any reading.
    """
    if not ids:
        return {}
    physics = world.physics
    bodies = world.bodies
    pose = np.array([(b.x, b.y, b.heading) for b in bodies])
    rows = [world._order[i] for i in ids]
    own = pose[rows]
    x, y, headings = own[:, 0:1], own[:, 1:2], own[:, 2:3]
    reaches = np.array([world._reaches[i] for i in ids])[:, None]
    # Offsets from each sensing agent to every body, shared by the
    # proximity rays and vision.
    dx = pose[:, 0] - x
    dy = pose[:, 1] - y

    angles = headings + _RAY_OFFSETS
    c, s = np.cos(angles), np.sin(angles)
    with np.errstate(divide="ignore", invalid="ignore"):
        obstacle = _boundary_distances(x, y, c, s, world.arena.width, world.arena.height)
        # Ray x body: `along` is the distance along the ray to the point
        # nearest the body's center and |D|^2 - along^2 the squared miss
        # distance. A miss (NaN root) or a body behind the caster (negative
        # root) reads as +inf; the caster's own body (D = 0) is behind it.
        along = c[:, :, None] * dx[:, None, :] + s[:, :, None] * dy[:, None, :]
        disc = world._radii_sq - ((dx * dx + dy * dy)[:, None, :] - along * along)
        t = along - np.sqrt(disc)
    obstacle = np.minimum(obstacle, np.where(t >= 0.0, t, np.inf).min(axis=2))
    if world._wall_min.size:
        dirs = np.stack([c, s], axis=2)
        walls = _ray_distances(own[:, None, :2], dirs, world._wall_min, world._wall_max)
        obstacle = np.minimum(obstacle, walls)
    raw = (np.minimum(obstacle, reaches) / reaches).tolist()

    # Vision: every other body within reach and the frontal field of view.
    dists = np.hypot(dx, dy)
    bearings = _wrap_angles(np.arctan2(dy, dx) - headings)
    seen = (dists <= reaches) & (np.abs(bearings) <= physics.vision_half_angle)
    seen[world._rows[: len(rows)], rows] = False
    labels = [b.broadcast_label for b in bodies]
    dists, bearings = dists.tolist(), bearings.tolist()
    vision: List[List[VisionContact]] = [[] for _ in rows]
    for k, j in zip(*(a.tolist() for a in np.nonzero(seen))):  # j ascending per k
        vision[k].append(VisionContact(bearings[k][j], dists[k][j], labels[j]))

    sigma_prox, sigma_angle = physics.sigma_prox, physics.sigma_angle
    beacon = world.arena.beacon
    arrival = world.arena.arrival_radius
    out: Dict[int, SensorReadings] = {}
    for k, agent_id in enumerate(ids):
        body = bodies[rows[k]]
        noise = world._noise[agent_id]
        r0, r1, r2 = raw[k]
        prox = (
            min(max(r0 + (0.0 + sigma_prox * next(noise)), 0.0), 1.0),
            min(max(r1 + (0.0 + sigma_prox * next(noise)), 0.0), 1.0),
            min(max(r2 + (0.0 + sigma_prox * next(noise)), 0.0), 1.0),
        )

        beacon_bearing = None
        ground = False
        if beacon is not None:
            bx, by = beacon
            bearing = math.atan2(by - body.y, bx - body.x) - body.heading
            beacon_bearing = wrap_angle(bearing + (0.0 + sigma_angle * next(noise)))
            ground = math.hypot(body.x - bx, body.y - by) <= arrival
        compass = wrap_angle(body.heading + (0.0 + sigma_angle * next(noise)))
        out[agent_id] = SensorReadings(
            prox, beacon_bearing, compass, ground, body.collision_flag, tuple(vision[k])
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
