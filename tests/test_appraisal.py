"""Appraisal layer: event encoding, the two banks, emotional stepping."""

import os
import tracemalloc

import numpy as np
import pytest

import affectsim

from affectsim.appraisal import (
    ANGRY_LABEL,
    HAPPY_LABELS,
    AppraisalEvent,
    BankId,
    EmotionTracker,
    EventKind,
    GainConfig,
    SURVIVAL_EVENTS,
    appraise_goal,
    appraise_survival,
    encode_events,
    step_emotion,
)
from affectsim.pad import CycleOrderError, EmotionLabel, PadVector, new_state
from affectsim.temperament import TemperamentKind, sample_profile
from affectsim.world import SensorReadings, VisionContact


def _profile(kind=TemperamentKind.SANGUINE, seed=0):
    return sample_profile(kind, np.random.default_rng(seed))


def _readings(
    proximity=(1.0, 1.0, 1.0),
    beacon_bearing=None,
    compass=0.0,
    ground=False,
    collision=False,
    vision=(),
):
    return SensorReadings(
        proximity=proximity,
        beacon_bearing=beacon_bearing,
        compass=compass,
        ground=ground,
        collision=collision,
        vision=tuple(vision),
    )


def _kinds(events):
    return [e.kind for e in events]


# -- event encoding -----------------------------------------------------


def test_collision_encodes_as_wall_collision():
    events = encode_events(_readings(collision=True), _profile())
    assert EventKind.WALL_COLLISION in _kinds(events)


def test_introvert_alone_meets_social_need():
    melancholic = _profile(TemperamentKind.MELANCHOLIC)
    events = encode_events(_readings(), melancholic)
    assert EventKind.SOCIAL_NEED_MET in _kinds(events)
    assert EventKind.SOCIAL_NEED_UNMET not in _kinds(events)


def test_extravert_alone_misses_social_need():
    events = encode_events(_readings(), _profile(TemperamentKind.SANGUINE))
    assert EventKind.SOCIAL_NEED_UNMET in _kinds(events)


def test_social_event_fires_every_cycle_exactly_once():
    for kind in TemperamentKind:
        for vision in ((), (VisionContact(0.1, 2.0, EmotionLabel.BORED),)):
            events = encode_events(_readings(vision=vision), _profile(kind))
            social = [
                e
                for e in events
                if e.kind in (EventKind.SOCIAL_NEED_MET, EventKind.SOCIAL_NEED_UNMET)
            ]
            assert len(social) == 1


def test_hostile_contact_encodes_threat_with_bearing():
    contact = VisionContact(0.3, 2.0, EmotionLabel.HOSTILE)
    events = encode_events(_readings(vision=(contact,)), _profile())
    threats = [e for e in events if e.kind is EventKind.THREAT_VISIBLE]
    assert len(threats) == 1
    assert threats[0].source_bearing == pytest.approx(0.3)


def test_happy_contact_encodes_friend():
    for label in HAPPY_LABELS:
        contact = VisionContact(-0.2, 1.5, label)
        events = encode_events(_readings(vision=(contact,)), _profile())
        assert EventKind.FRIEND_VISIBLE in _kinds(events)
    # negative moods that are not hostile are neither friend nor threat
    contact = VisionContact(0.0, 1.5, EmotionLabel.BORED)
    events = encode_events(_readings(vision=(contact,)), _profile())
    assert EventKind.FRIEND_VISIBLE not in _kinds(events)
    assert EventKind.THREAT_VISIBLE not in _kinds(events)


def test_beacon_visibility_and_clear_path():
    events = encode_events(_readings(beacon_bearing=0.2), _profile())
    kinds = _kinds(events)
    assert EventKind.BEACON_VISIBLE in kinds
    assert EventKind.CLEAR_PATH_TO_GOAL in kinds  # |0.2 rad| < 30 degrees

    events = encode_events(_readings(beacon_bearing=1.0), _profile())
    kinds = _kinds(events)
    assert EventKind.BEACON_VISIBLE in kinds
    assert EventKind.CLEAR_PATH_TO_GOAL not in kinds


def test_near_obstacle_occludes_beacon():
    events = encode_events(
        _readings(proximity=(0.2, 1.0, 1.0), beacon_bearing=0.0), _profile()
    )
    assert EventKind.BEACON_VISIBLE not in _kinds(events)


def test_goal_lost_fires_on_visible_to_hidden_edge():
    hidden = _readings(proximity=(0.2, 1.0, 1.0), beacon_bearing=0.0)
    events = encode_events(hidden, _profile(), prev_beacon_visible=True)
    assert EventKind.GOAL_LOST in _kinds(events)
    # no edge if it was never visible
    events = encode_events(hidden, _profile(), prev_beacon_visible=False)
    assert EventKind.GOAL_LOST not in _kinds(events)
    # still visible: no loss
    events = encode_events(
        _readings(beacon_bearing=0.0), _profile(), prev_beacon_visible=True
    )
    assert EventKind.GOAL_LOST not in _kinds(events)


def test_wall_ahead_threshold():
    events = encode_events(_readings(proximity=(0.1, 1.0, 1.0)), _profile())
    assert EventKind.WALL_AHEAD in _kinds(events)
    events = encode_events(_readings(proximity=(0.15, 1.0, 1.0)), _profile())
    assert EventKind.WALL_AHEAD not in _kinds(events)


def test_ground_contact_encodes_goal_reached():
    events = encode_events(_readings(ground=True), _profile())
    assert EventKind.GOAL_REACHED in _kinds(events)


def test_event_intensity_is_validated():
    with pytest.raises(ValueError):
        AppraisalEvent(EventKind.WALL_AHEAD, intensity=1.5)


# -- banks ---------------------------------------------------------------


def test_survival_bank_threat_delta():
    result = appraise_survival([AppraisalEvent(EventKind.THREAT_VISIBLE)])
    assert result.bank_id is BankId.SURVIVAL
    assert result.delta == pytest.approx((-0.05, 0.05, -0.05))


def test_survival_bank_collision_delta():
    result = appraise_survival([AppraisalEvent(EventKind.WALL_COLLISION)])
    assert result.delta == pytest.approx((-0.05, 0.05, 0.0))


def test_survival_bank_caps_componentwise():
    events = [AppraisalEvent(EventKind.THREAT_VISIBLE)] * 3
    result = appraise_survival(events)
    assert result.delta == pytest.approx((-0.1, 0.1, -0.1))


def test_survival_bank_threat_boost():
    result = appraise_survival(
        [AppraisalEvent(EventKind.THREAT_VISIBLE)], threat_boost=1.5
    )
    assert result.delta[0] == pytest.approx(-0.075)


def test_survival_bank_ignores_goal_events():
    events = [
        AppraisalEvent(EventKind.BEACON_VISIBLE),
        AppraisalEvent(EventKind.SOCIAL_NEED_UNMET),
        AppraisalEvent(EventKind.GOAL_REACHED),
    ]
    result = appraise_survival(events)
    assert result.delta == (0.0, 0.0, 0.0)


GOAL_SIGNS = {
    EventKind.BEACON_VISIBLE: (+1, 0, 0),
    EventKind.GOAL_LOST: (-1, 0, 0),
    EventKind.CLEAR_PATH_TO_GOAL: (0, 0, +1),
    EventKind.WALL_AHEAD: (0, 0, -1),
    EventKind.SOCIAL_NEED_MET: (+1, 0, 0),
    EventKind.SOCIAL_NEED_UNMET: (-1, 0, 0),
    EventKind.FRIEND_VISIBLE: (0, 0, 0),
}


def test_goal_bank_sign_table():
    for kind, signs in GOAL_SIGNS.items():
        result = appraise_goal([AppraisalEvent(kind)])
        assert result.bank_id is BankId.GOAL
        for value, sign in zip(result.delta, signs):
            if sign == 0:
                assert value == pytest.approx(0.0)
            else:
                assert value == pytest.approx(sign * 0.05)


def test_goal_reached_pays_the_full_cap():
    result = appraise_goal([AppraisalEvent(EventKind.GOAL_REACHED)])
    assert result.delta[0] == pytest.approx(0.1)


def test_goal_bank_ignores_survival_events():
    result = appraise_goal(
        [
            AppraisalEvent(EventKind.THREAT_VISIBLE),
            AppraisalEvent(EventKind.WALL_COLLISION),
        ]
    )
    assert result.delta == (0.0, 0.0, 0.0)


def test_intensity_scales_gain():
    result = appraise_goal([AppraisalEvent(EventKind.BEACON_VISIBLE, intensity=0.4)])
    assert result.delta[0] == pytest.approx(0.02)


def test_survival_event_set():
    assert set(SURVIVAL_EVENTS) == {EventKind.THREAT_VISIBLE, EventKind.WALL_COLLISION}
    assert ANGRY_LABEL is EmotionLabel.HOSTILE


# -- emotional stepping ---------------------------------------------------


def test_no_events_leaves_state_untouched():
    state = new_state(PadVector(0.2, -0.1, 0.3))
    out = step_emotion(state, [], _profile(), cycle=10)
    assert out is state
    assert out.last_cycle == -1


def test_positive_pleasure_is_damped_by_anxiety():
    # Sanguine: anxiety 0.3, emotional rate 1.3. A met social need is
    # +0.05 pleasure, damped to 0.05*0.85, then scaled by the rate.
    state = step_emotion(
        new_state(), [AppraisalEvent(EventKind.SOCIAL_NEED_MET)], _profile(), cycle=0
    )
    assert state.current.pleasure == pytest.approx(0.05 * 0.85 * 1.3)
    assert state.current.arousal == pytest.approx(0.0)


def test_negative_pleasure_is_amplified_by_anxiety():
    state = step_emotion(
        new_state(), [AppraisalEvent(EventKind.SOCIAL_NEED_UNMET)], _profile(), cycle=0
    )
    assert state.current.pleasure == pytest.approx(-0.05 * 1.3 * 1.3)


def test_threat_swing_is_larger_for_excitation_dominant_kinds():
    events = [AppraisalEvent(EventKind.THREAT_VISIBLE)]
    choleric = step_emotion(new_state(), events, _profile(TemperamentKind.CHOLERIC), 0)
    sanguine = step_emotion(new_state(), events, _profile(TemperamentKind.SANGUINE), 0)
    # choleric: gain 0.05*1.5 boost, pleasure x(1+0.9), all x rate 1.9
    assert choleric.current.pleasure == pytest.approx(-0.075 * 1.9 * 1.9)
    assert choleric.current.arousal == pytest.approx(0.075 * 1.9)
    assert abs(choleric.current.pleasure) > abs(sanguine.current.pleasure)
    assert abs(choleric.current.arousal) > abs(sanguine.current.arousal)


def test_step_emotion_moves_state_to_cycle():
    state = step_emotion(
        new_state(), [AppraisalEvent(EventKind.BEACON_VISIBLE)], _profile(), cycle=17
    )
    assert state.last_cycle == 17
    with pytest.raises(CycleOrderError):
        step_emotion(state, [AppraisalEvent(EventKind.BEACON_VISIBLE)], _profile(), cycle=17)


def test_anxious_agents_diverge_under_identical_stress():
    # Same event stream, two temperaments: anxiety multiplies the emotion
    # rate, so the anxious one sinks strictly faster. Compare before the
    # [-1, 1] clamp saturates both at the floor.
    events = [AppraisalEvent(EventKind.WALL_COLLISION)]
    calm = new_state()
    anxious = new_state()
    phlegmatic = _profile(TemperamentKind.PHLEGMATIC)
    melancholic = _profile(TemperamentKind.MELANCHOLIC)
    for cycle in range(5):
        calm = step_emotion(calm, events, phlegmatic, cycle)
        anxious = step_emotion(anxious, events, melancholic, cycle)
    assert anxious.current.pleasure > -1.0
    assert anxious.current.pleasure < calm.current.pleasure


# -- tracker --------------------------------------------------------------


def test_tracker_tracks_beacon_visibility_edge():
    tracker = EmotionTracker(_profile())
    tracker.observe(_readings(beacon_bearing=0.0), 0)
    assert tracker.prev_beacon_visible
    events = tracker.observe(_readings(proximity=(0.2, 1.0, 1.0), beacon_bearing=0.0), 1)
    assert EventKind.GOAL_LOST in _kinds(events)
    assert not tracker.prev_beacon_visible


def test_tracker_feeds_stress_from_survival_events():
    tracker = EmotionTracker(_profile())
    before = tracker.profile.force.value
    tracker.observe(_readings(collision=True), 0)
    assert tracker.profile.force.value > before


def test_tracker_relaxes_without_stress():
    tracker = EmotionTracker(_profile())
    tracker.observe(_readings(collision=True), 0)
    stressed = tracker.profile.force.value
    for cycle in range(1, 400):
        tracker.observe(_readings(), cycle)
    assert tracker.profile.force.value < stressed
    assert tracker.profile.force.value >= tracker.profile.force.baseline - 1e-9


def test_tracker_label_follows_state():
    tracker = EmotionTracker(_profile())
    assert tracker.label is EmotionLabel.EXUBERANT
    for cycle in range(60):
        tracker.observe(_readings(collision=True), cycle)
    assert tracker.state.current.pleasure < 0
    assert tracker.label in (
        EmotionLabel.HOSTILE,
        EmotionLabel.ANXIOUS,
        EmotionLabel.DISDAINFUL,
        EmotionLabel.BORED,
    )


def _held_by_package() -> int:
    """Bytes currently allocated from affectsim's own source lines."""
    package = os.path.dirname(affectsim.__file__)
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, os.path.join(package, "*"))]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_tracker_memory_does_not_grow_with_cycles():
    # An emotion tracker keeps one point, not its past: memory held after
    # 20,000 cycles equals that after 1,000.
    tracker = EmotionTracker(_profile())
    readings = [_readings(beacon_bearing=0.1), _readings(collision=True)]
    tracemalloc.start()
    try:
        for cycle in range(1_000):
            tracker.observe(readings[cycle % 2], cycle)
        early = _held_by_package()
        for cycle in range(1_000, 20_000):
            tracker.observe(readings[cycle % 2], cycle)
        late = _held_by_package()
    finally:
        tracemalloc.stop()
    assert abs(late - early) <= 1024
