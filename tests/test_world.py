"""Arena physics: kinematics, collisions, sensors, determinism."""

import math

import numpy as np
import pytest

import affectsim.world as world_module
from affectsim.config import builtin_scenario, make_world
from affectsim.harness import mixed_team, team_profiles
from affectsim.pad import EmotionLabel
from affectsim.world import (
    AgentBody,
    Arena,
    COAST,
    MotorCommand,
    PhysicsConfig,
    Rect,
    World,
    apply_motors,
    sense,
    wrap_angle,
)

QUIET = PhysicsConfig(sigma_prox=0.0, sigma_angle=0.0)


def _world(bodies, width=12.0, height=12.0, walls=(), beacon=None,
           physics=QUIET, seed=0):
    return World(Arena(width, height, tuple(walls), beacon), bodies, None, physics, seed)


# -- angles and geometry ---------------------------------------------------


def test_wrap_angle_range_and_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    rng = np.random.default_rng(5)
    for theta in rng.uniform(-50.0, 50.0, 500):
        w = wrap_angle(float(theta))
        assert -math.pi <= w < math.pi
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)


def test_rect_rejects_degenerate():
    with pytest.raises(ValueError):
        Rect(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        Rect(2.0, 1.0, 1.0, 3.0)


def test_rect_distance():
    rect = Rect(2.0, 2.0, 4.0, 4.0)
    assert rect.distance_to(3.0, 3.0) == 0.0
    assert rect.distance_to(5.0, 3.0) == pytest.approx(1.0)
    assert rect.distance_to(5.0, 5.0) == pytest.approx(math.sqrt(2.0))


def test_arena_validation():
    with pytest.raises(ValueError):
        Arena(0.0, 5.0)
    with pytest.raises(ValueError):
        Arena(10.0, 10.0, beacon=(11.0, 5.0))
    # arrival zone may not intersect a wall
    with pytest.raises(ValueError):
        Arena(10.0, 10.0, (Rect(4.0, 4.0, 6.0, 6.0),), beacon=(6.2, 5.0))
    # but a clear beacon is fine
    Arena(10.0, 10.0, (Rect(4.0, 4.0, 6.0, 6.0),), beacon=(8.0, 5.0))


def test_motor_command_validation():
    MotorCommand(1.0, -1.0)
    with pytest.raises(ValueError):
        MotorCommand(1.2, 0.0)
    with pytest.raises(ValueError):
        MotorCommand(0.0, -1.01)


# -- kinematics -------------------------------------------------------------


def test_power_filter_follows_geometric_series():
    body = AgentBody(0, 5.0, 5.0, 0.0)
    for n in range(1, 11):
        apply_motors(body, MotorCommand(1.0, 1.0), physics=QUIET)
        expected = 1.0 - 0.5 ** n
        assert body.power_left == pytest.approx(expected, abs=1e-12)
        assert body.power_right == pytest.approx(expected, abs=1e-12)


def test_filter_reaches_99_percent_within_seven_cycles():
    body = AgentBody(0, 5.0, 5.0, 0.0)
    apply_motors(body, MotorCommand(1.0, 1.0), dt=7, physics=QUIET)
    speed = body.speed(QUIET)
    assert speed > 0.99 * QUIET.v_max
    assert speed == pytest.approx((1.0 - 0.5 ** 7) * QUIET.v_max, abs=1e-6)


def test_equal_powers_translate_straight():
    body = AgentBody(0, 2.0, 3.0, 0.0)
    apply_motors(body, MotorCommand(1.0, 1.0), dt=50, physics=QUIET)
    assert body.heading == 0.0
    assert body.y == pytest.approx(3.0)
    # distance = sum over cycles of v_max*(1-2^-n)*period
    expected = sum(
        QUIET.v_max * (1.0 - 0.5 ** n) * QUIET.cycle_period for n in range(1, 51)
    )
    assert body.x - 2.0 == pytest.approx(expected, abs=1e-9)


def test_opposite_powers_rotate_in_place():
    body = AgentBody(0, 4.0, 4.0, 0.0)
    apply_motors(body, MotorCommand(-1.0, 1.0), dt=40, physics=QUIET)
    assert body.x == pytest.approx(4.0, abs=1e-12)
    assert body.y == pytest.approx(4.0, abs=1e-12)
    assert body.heading != 0.0
    # left +, right - turns the other way
    cw = AgentBody(1, 4.0, 4.0, 0.0)
    apply_motors(cw, MotorCommand(1.0, -1.0), dt=40, physics=QUIET)
    assert cw.heading == pytest.approx(-body.heading, abs=1e-12)


def test_translation_uses_heading_before_rotation():
    # One cycle from rest: filtered power 0.5 each side, so the body moves
    # 0.5*v_max*period along its ORIGINAL heading even if it also turns.
    body = AgentBody(0, 1.0, 1.0, 0.0)
    apply_motors(body, MotorCommand(1.0, 0.0), physics=QUIET)
    assert body.y == pytest.approx(1.0)  # no sideways drift on cycle one
    assert body.x == pytest.approx(1.0 + 0.25 * QUIET.v_max * QUIET.cycle_period)
    assert body.heading != 0.0


def test_apply_motors_rejects_bad_dt():
    with pytest.raises(ValueError):
        apply_motors(AgentBody(0, 1.0, 1.0, 0.0), COAST, dt=0)


# -- world construction ------------------------------------------------------


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        _world([AgentBody(0, 2.0, 2.0, 0.0), AgentBody(0, 4.0, 4.0, 0.0)])


def test_spawn_inside_wall_rejected():
    with pytest.raises(ValueError):
        _world([AgentBody(0, 5.0, 5.0, 0.0)], walls=[Rect(4.0, 4.0, 6.0, 6.0)])


def test_spawn_overlap_rejected():
    with pytest.raises(ValueError):
        _world([AgentBody(0, 2.0, 2.0, 0.0), AgentBody(1, 2.3, 2.0, 0.0)])


# -- sensors -----------------------------------------------------------------


def test_wall_at_half_reach_reads_one_half():
    # Bare body: reach is 4 m. A wall face 2 m ahead normalizes to 0.5.
    world = _world([AgentBody(0, 2.0, 2.0, 0.0)], walls=[Rect(4.0, 0.5, 4.4, 4.0)])
    readings = sense(world, 0)
    assert readings.proximity[0] == pytest.approx(0.5, abs=1e-12)


def test_clear_field_reads_one():
    world = _world([AgentBody(0, 25.0, 25.0, 0.0)], width=50.0, height=50.0)
    readings = sense(world, 0)
    assert readings.proximity == pytest.approx((1.0, 1.0, 1.0))


def test_side_rays_point_sixty_degrees_off():
    # Wall only to the left of the agent, everything else (including the
    # arena boundary, which the rays also see) beyond reach: the left ray
    # (+60 degrees) reads the wall, front and right read clear.
    world = _world(
        [AgentBody(0, 6.0, 10.0, 0.0)],
        walls=[Rect(5.0, 12.0, 9.0, 12.4)],
        width=20.0,
        height=20.0,
    )
    front, left, right = sense(world, 0).proximity
    # left ray: (cos 60, sin 60) from (6, 10) meets y = 12 at t = 2/sin(60)
    assert left == pytest.approx(2.0 / math.sin(math.pi / 3.0) / 4.0, abs=1e-12)
    assert front == pytest.approx(1.0)
    assert right == pytest.approx(1.0)


def test_beacon_bearing_is_relative_to_heading():
    world = _world([AgentBody(0, 2.0, 2.0, 0.0)], beacon=(6.0, 2.0))
    assert sense(world, 0).beacon_bearing == pytest.approx(0.0, abs=1e-12)
    world.body(0).heading = math.pi / 2.0
    assert sense(world, 0).beacon_bearing == pytest.approx(-math.pi / 2.0, abs=1e-12)


def test_no_beacon_means_no_bearing():
    world = _world([AgentBody(0, 2.0, 2.0, 0.0)])
    assert sense(world, 0).beacon_bearing is None


def test_compass_reports_heading():
    world = _world([AgentBody(0, 2.0, 2.0, 1.25)])
    assert sense(world, 0).compass == pytest.approx(1.25)


def test_vision_sees_frontal_robots_only():
    world = _world(
        [
            AgentBody(0, 5.0, 5.0, 0.0),
            AgentBody(1, 7.0, 5.0, 0.0),   # dead ahead
            AgentBody(2, 3.0, 5.0, 0.0),   # directly behind
        ],
        width=20.0,
        height=20.0,
    )
    contacts = sense(world, 0).vision
    assert len(contacts) == 1
    assert contacts[0].distance == pytest.approx(2.0)
    assert contacts[0].bearing == pytest.approx(0.0)


def test_vision_range_is_reach_limited():
    world = _world(
        [AgentBody(0, 5.0, 5.0, 0.0), AgentBody(1, 10.0, 5.0, 0.0)],
        width=20.0,
        height=20.0,
    )
    assert sense(world, 0).vision == ()  # 5 m away, reach is 4 m


def test_vision_carries_broadcast_labels():
    from affectsim.pad import EmotionLabel

    world = _world(
        [AgentBody(0, 5.0, 5.0, 0.0), AgentBody(1, 7.0, 5.0, 0.0)],
        width=20.0,
        height=20.0,
    )
    world.body(1).broadcast_label = EmotionLabel.HOSTILE
    assert sense(world, 0).vision[0].label is EmotionLabel.HOSTILE


def test_robot_blocks_proximity_ray():
    world = _world(
        [AgentBody(0, 5.0, 5.0, 0.0), AgentBody(1, 7.0, 5.0, 0.0)],
        width=20.0,
        height=20.0,
    )
    front = sense(world, 0).proximity[0]
    # ray hits the other body's circle at 2.0 - 0.25 = 1.75 m; reach 4 m
    assert front == pytest.approx(1.75 / 4.0, abs=1e-12)


def test_ground_flag_inside_arrival_zone():
    world = _world([AgentBody(0, 6.0, 2.0, 0.0)], beacon=(6.0, 2.2))
    assert sense(world, 0).ground
    far = _world([AgentBody(0, 2.0, 2.0, 0.0)], beacon=(6.0, 2.2))
    assert not sense(far, 0).ground


def test_proximity_noise_is_unbiased_at_midrange():
    noisy = PhysicsConfig(sigma_prox=0.1, sigma_angle=0.0)
    world = _world(
        [AgentBody(0, 2.0, 2.0, 0.0)],
        walls=[Rect(4.0, 0.5, 4.4, 4.0)],
        physics=noisy,
    )
    samples = [sense(world, 0).proximity[0] for _ in range(4000)]
    assert abs(float(np.mean(samples)) - 0.5) < 0.01
    assert 0.08 < float(np.std(samples)) < 0.12


def test_clear_field_noise_bias_is_small():
    # At the clamp edge the noise can only push readings down; with the
    # default sigma that bias stays below one percent.
    world = _world(
        [AgentBody(0, 25.0, 25.0, 0.0)],
        width=50.0,
        height=50.0,
        physics=PhysicsConfig(),
    )
    samples = [sense(world, 0).proximity[0] for _ in range(4000)]
    assert 0.99 < float(np.mean(samples)) <= 1.0


def test_noise_follows_the_slot_stream_across_blocks():
    # A lone, stationary agent with no beacon takes four normals per sense
    # from stream (seed, slot 0): three proximity values, then the compass.
    # 300 senses draw 1,200 values, past the end of the first block.
    physics = PhysicsConfig()
    world = _world([AgentBody(0, 6.0, 6.0, 0.7)], physics=physics, seed=11)
    assert 300 * 4 > world_module._NOISE_BLOCK
    rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(1, 0)))
    for _ in range(300):
        noise = rng.normal(0.0, physics.sigma_prox, 3)
        compass = wrap_angle(0.7 + rng.normal(0.0, physics.sigma_angle))
        readings = sense(world, 0)
        assert readings.proximity == tuple(min(max(1.0 + z, 0.0), 1.0) for z in noise)
        assert readings.compass == compass


def test_batched_sweep_equals_one_sense_per_agent():
    # Twin worlds with a beacon and walls (five draws per agent-cycle):
    # one senses all active agents in one sweep, the other one at a time.
    spec = builtin_scenario("scenario1")
    profiles = team_profiles(mixed_team(), 4, spec.temperament)
    batched, single = make_world(spec, profiles, 4), make_world(spec, profiles, 4)
    rng = np.random.default_rng(5)
    labels = list(EmotionLabel)
    for cycle in range(50):
        if cycle == 25:
            batched.body(3).stopped = single.body(3).stopped = True
        assert batched.sense_active() == {i: sense(single, i) for i in single.active_ids()}
        powers = rng.uniform(-1.0, 1.0, (9, 2)).tolist()
        for w in (batched, single):
            for body in w.bodies:
                body.broadcast_label = labels[(cycle + body.agent_id) % len(labels)]
                if not body.stopped:
                    apply_motors(body, MotorCommand(*powers[body.agent_id]))
    assert 3 not in batched.sense_active()


def test_wrap_angles_matches_wrap_angle_bit_for_bit():
    rng = np.random.default_rng(3)
    thetas = np.concatenate(
        [
            rng.uniform(-20.0, 20.0, 2000),
            [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -3.0 * math.pi, 1e-300, -1e-300],
        ]
    )
    got = [g.hex() for g in world_module._wrap_angles(thetas).tolist()]
    assert got == [wrap_angle(t).hex() for t in thetas.tolist()]


# -- stepping and collisions ---------------------------------------------


def test_step_advances_cycle_and_returns_readings():
    world = _world([AgentBody(0, 2.0, 2.0, 0.0)])
    readings = world.step({0: MotorCommand(1.0, 1.0)})
    assert world.cycle == 1
    assert 0 in readings
    assert world.body(0).x > 2.0


def test_coast_is_default_for_missing_commands():
    world = _world([AgentBody(0, 2.0, 2.0, 0.0)])
    world.body(0).power_left = world.body(0).power_right = 1.0
    world.step({})
    assert world.body(0).power_left == pytest.approx(0.5)


def test_wall_hit_sets_flag_and_rolls_back_pose():
    world = _world(
        [AgentBody(0, 3.4, 2.0, 0.0)], walls=[Rect(4.0, 0.5, 4.4, 4.0)]
    )
    body = world.body(0)
    hit = False
    for _ in range(60):
        x, y, heading = body.pose()
        readings = world.step({0: MotorCommand(1.0, 1.0)})
        if readings[0].collision:
            hit = True
            assert body.pose() == (x, y, heading)  # full pose rollback
            break
    assert hit
    # filtered power keeps evolving even while blocked
    assert body.power_left > 0.0


def test_boundary_is_solid():
    world = _world([AgentBody(0, 11.0, 11.0, 0.0)])
    for _ in range(200):
        world.step({0: MotorCommand(1.0, 1.0)})
    body = world.body(0)
    assert body.x <= 12.0 - body.radius + 1e-9


def test_agent_collision_flags_both():
    world = _world(
        [AgentBody(0, 5.0, 5.0, 0.0), AgentBody(1, 6.2, 5.0, math.pi)],
        width=20.0,
        height=20.0,
    )
    flagged = False
    for _ in range(40):
        readings = world.step(
            {0: MotorCommand(1.0, 1.0), 1: MotorCommand(1.0, 1.0)}
        )
        if readings[0].collision or readings[1].collision:
            assert readings[0].collision and readings[1].collision
            flagged = True
            break
    assert flagged
    # rollback kept them disjoint
    a, b = world.body(0), world.body(1)
    assert math.hypot(a.x - b.x, a.y - b.y) >= a.radius + b.radius - 1e-9


def test_stopped_bodies_do_not_move_or_sense():
    world = _world([AgentBody(0, 2.0, 2.0, 0.0), AgentBody(1, 4.0, 2.0, 0.0)])
    world.body(0).stopped = True
    readings = world.step({0: MotorCommand(1.0, 1.0), 1: MotorCommand(1.0, 1.0)})
    assert 0 not in readings
    assert world.body(0).x == 2.0
    assert 1 in readings


def test_no_tunneling_under_random_drive():
    rng = np.random.default_rng(77)
    walls = [Rect(4.0, 0.0, 4.4, 8.0), Rect(7.0, 5.0, 11.0, 5.4)]
    world = _world(
        [AgentBody(0, 2.0, 2.0, 0.3), AgentBody(1, 9.0, 2.0, 2.0)], walls=walls
    )
    for _ in range(3000):
        cmds = {
            i: MotorCommand(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            for i in (0, 1)
        }
        world.step(cmds)
        for body in world.bodies:
            assert body.radius - 1e-9 <= body.x <= 12.0 - body.radius + 1e-9
            assert body.radius - 1e-9 <= body.y <= 12.0 - body.radius + 1e-9
            for wall in walls:
                assert wall.distance_to(body.x, body.y) >= body.radius - 1e-9


def test_world_stepping_is_deterministic():
    def run():
        world = _world(
            [AgentBody(0, 2.0, 2.0, 0.0), AgentBody(1, 6.0, 6.0, 1.0)],
            physics=PhysicsConfig(),  # noisy: exercises the seeded streams
            seed=42,
        )
        trace = []
        for cycle in range(500):
            readings = world.step(
                {0: MotorCommand(0.8, 1.0), 1: MotorCommand(1.0, 0.7)}
            )
            if cycle % 50 == 0:
                trace.append((readings[0], readings[1], world.body(0).pose()))
        return trace

    assert run() == run()


def test_seed_changes_noise():
    world_a = _world([AgentBody(0, 2.0, 2.0, 0.0)], physics=PhysicsConfig(), seed=1)
    world_b = _world([AgentBody(0, 2.0, 2.0, 0.0)], physics=PhysicsConfig(), seed=2)
    assert sense(world_a, 0) != sense(world_b, 0)
