"""Emotion-space layer: octants, regressions, appraisal integration."""

import math

import numpy as np
import pytest

from affectsim.pad import (
    BigFive,
    CycleOrderError,
    EmotionLabel,
    EmotionalState,
    PadVector,
    big_five,
    clamp_component,
    integrate_appraisals,
    new_state,
    octant_label,
    scale_for_report,
)


def test_pad_vector_validates_range():
    PadVector(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        PadVector(1.0001, 0.0, 0.0)
    with pytest.raises(ValueError):
        PadVector(0.0, -2.0, 0.0)
    with pytest.raises(ValueError):
        PadVector(0.0, 0.0, float("nan"))


OCTANT_TABLE = {
    (0.5, 0.5, 0.5): EmotionLabel.EXUBERANT,
    (0.5, 0.5, -0.5): EmotionLabel.DEPENDENT,
    (0.5, -0.5, 0.5): EmotionLabel.RELAXED,
    (0.5, -0.5, -0.5): EmotionLabel.DOCILE,
    (-0.5, 0.5, 0.5): EmotionLabel.HOSTILE,
    (-0.5, 0.5, -0.5): EmotionLabel.ANXIOUS,
    (-0.5, -0.5, 0.5): EmotionLabel.DISDAINFUL,
    (-0.5, -0.5, -0.5): EmotionLabel.BORED,
}


def test_octant_labels_exhaustive():
    seen = set()
    for corner, expected in OCTANT_TABLE.items():
        got = octant_label(PadVector(*corner))
        assert got is expected, corner
        seen.add(got)
    assert seen == set(EmotionLabel)


def test_opposite_corners_get_opposite_moods():
    opposites = {
        EmotionLabel.EXUBERANT: EmotionLabel.BORED,
        EmotionLabel.DEPENDENT: EmotionLabel.DISDAINFUL,
        EmotionLabel.RELAXED: EmotionLabel.ANXIOUS,
        EmotionLabel.DOCILE: EmotionLabel.HOSTILE,
    }
    for (p, a, d), label in OCTANT_TABLE.items():
        mirror = octant_label(PadVector(-p, -a, -d))
        expected = opposites.get(label) or next(
            k for k, v in opposites.items() if v is label
        )
        assert mirror is expected


def test_octant_zero_counts_as_positive():
    assert octant_label(PadVector(0.0, 0.0, 0.0)) is EmotionLabel.EXUBERANT
    assert octant_label(PadVector(-0.1, 0.0, 0.0)) is EmotionLabel.HOSTILE


def test_big_five_worked_point():
    # Fully aroused and dominant, neutral pleasure.
    traits = big_five(PadVector(0.0, 1.0, 1.0))
    assert traits.extraversion == pytest.approx(0.72, abs=1e-12)
    assert traits.agreeableness == pytest.approx(-0.02, abs=1e-12)
    assert traits.conscientiousness == pytest.approx(0.28, abs=1e-12)
    assert traits.emotional_stability == pytest.approx(-0.55, abs=1e-12)
    assert traits.sophistication == pytest.approx(0.88, abs=1e-12)


def test_big_five_matches_coefficients_on_random_points():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p, a, d = rng.uniform(-1.0, 1.0, 3)
        got = big_five(PadVector(p, a, d))
        assert got.extraversion == pytest.approx(0.24 * p + 0.72 * d, abs=1e-12)
        assert got.agreeableness == pytest.approx(
            0.76 * p + 0.17 * a - 0.19 * d, abs=1e-12
        )
        assert got.conscientiousness == pytest.approx(0.29 * p + 0.28 * d, abs=1e-12)
        assert got.emotional_stability == pytest.approx(0.50 * p - 0.55 * a, abs=1e-12)
        assert got.sophistication == pytest.approx(0.28 * a + 0.60 * d, abs=1e-12)


def test_big_five_is_linear():
    rng = np.random.default_rng(7)
    u = PadVector(*rng.uniform(-0.5, 0.5, 3))
    v = PadVector(*rng.uniform(-0.5, 0.5, 3))
    w = PadVector(u.pleasure + v.pleasure, u.arousal + v.arousal, u.dominance + v.dominance)
    fu, fv, fw = big_five(u), big_five(v), big_five(w)
    for field in ("extraversion", "agreeableness", "conscientiousness",
                  "emotional_stability", "sophistication"):
        assert getattr(fw, field) == pytest.approx(
            getattr(fu, field) + getattr(fv, field), abs=1e-12
        )


def test_integrate_sums_componentwise():
    state = new_state()
    deltas = [(0.1, 0.0, -0.1), (0.2, 0.3, 0.0)]
    out = integrate_appraisals(state, deltas, cycle=0)
    assert out.current.pleasure == pytest.approx(0.3)
    assert out.current.arousal == pytest.approx(0.3)
    assert out.current.dominance == pytest.approx(-0.1)
    assert out.last_cycle == 0
    # the input state is untouched
    assert state.current == PadVector()
    assert state.last_cycle == -1


def test_integrate_clamps_to_cube():
    state = new_state(PadVector(0.95, -0.95, 0.0))
    out = integrate_appraisals(state, [(0.2, -0.2, 0.0), (0.2, -0.2, 0.0)], cycle=3)
    assert out.current == PadVector(1.0, -1.0, 0.0)


def test_integrate_requires_advancing_cycles():
    state = new_state()
    state = integrate_appraisals(state, [(0.1, 0.0, 0.0)], cycle=5)
    with pytest.raises(CycleOrderError):
        integrate_appraisals(state, [(0.1, 0.0, 0.0)], cycle=5)
    with pytest.raises(CycleOrderError):
        integrate_appraisals(state, [], cycle=2)
    # a later cycle is fine, gaps allowed
    out = integrate_appraisals(state, [], cycle=9)
    assert out.last_cycle == 9


def test_last_cycle_follows_integration_in_order():
    state = new_state()
    for cycle in (1, 4, 6):
        state = integrate_appraisals(state, [(0.1, 0.0, 0.0)], cycle)
        assert state.last_cycle == cycle
    assert state.current.pleasure == pytest.approx(0.3)


def test_deltas_may_leave_the_cube_before_the_clamp():
    # Deltas are not points: only the clamped sum is validated.
    state = integrate_appraisals(new_state(), [(1.5, -2.5, 0.3), (0.2, 0.0, -1.4)], cycle=0)
    assert state.current == PadVector(1.0, -1.0, -1.0)


def test_clamp_component():
    assert clamp_component(1.7) == 1.0
    assert clamp_component(-3.0) == -1.0
    assert clamp_component(0.25) == 0.25


def test_scale_for_report():
    assert scale_for_report(PadVector(0.9, -0.9, 0.05)) == pytest.approx(
        (9.0, -9.0, 0.5)
    )


def test_big_five_type_is_frozen():
    traits = big_five(PadVector())
    assert isinstance(traits, BigFive)
    with pytest.raises(Exception):
        traits.extraversion = 1.0


def test_emotional_state_is_immutable():
    state = EmotionalState(PadVector(0.1, 0.2, 0.3))
    with pytest.raises(Exception):
        state.current = PadVector()
    assert state.last_cycle == -1
    assert math.isclose(state.current.arousal, 0.2)
