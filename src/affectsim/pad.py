"""Pleasure-arousal-dominance emotion space.

The psychical layer of every agent lives in the unit PAD cube: pleasure is
how conducive the world currently looks to the agent's goals, arousal is how
much attention events are demanding, and dominance is how free the agent
feels to act. Emotions are points in [-1, 1]^3; moods are the octant the
point sits in; personality projections come out of fixed linear regressions
onto the Big Five factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Tuple


class CycleOrderError(ValueError):
    """Raised when appraisal integration runs backwards in time."""


class EmotionLabel(Enum):
    """Mood octants of the PAD cube, one per sign pattern (+P+A+D first)."""

    EXUBERANT = "exuberant"
    DEPENDENT = "dependent"
    RELAXED = "relaxed"
    DOCILE = "docile"
    HOSTILE = "hostile"
    ANXIOUS = "anxious"
    DISDAINFUL = "disdainful"
    BORED = "bored"


# Sign pattern (pleasure >= 0, arousal >= 0, dominance >= 0) -> octant.
# Zero counts as positive so the map is total; opposite corners carry
# opposite moods (exuberant/bored, dependent/disdainful, relaxed/anxious,
# docile/hostile).
_OCTANTS = {
    (True, True, True): EmotionLabel.EXUBERANT,
    (True, True, False): EmotionLabel.DEPENDENT,
    (True, False, True): EmotionLabel.RELAXED,
    (True, False, False): EmotionLabel.DOCILE,
    (False, True, True): EmotionLabel.HOSTILE,
    (False, True, False): EmotionLabel.ANXIOUS,
    (False, False, True): EmotionLabel.DISDAINFUL,
    (False, False, False): EmotionLabel.BORED,
}


def check_range(
    name: str, value: float, lo: float, hi: float = math.inf, lo_open: bool = False
) -> float:
    """Return `value` as a float if it lies in [lo, hi] ((lo, hi] with
    lo_open), else raise ValueError naming it. NaN and infinities never
    pass, so a config value is always a usable number."""
    value = float(value)
    above = value > lo if lo_open else value >= lo
    if not (above and value <= hi) or math.isinf(value):
        left = "(" if lo_open else "["
        right = "]" if math.isfinite(hi) else ")"
        raise ValueError(f"{name} must lie in {left}{lo:g}, {hi:g}{right}, got {value!r}")
    return value


@dataclass(frozen=True)
class PadVector:
    """A point in the PAD cube. Components are validated, not clamped.

    Only points are PadVectors; appraisal deltas, which may leave the cube
    before the sum is clamped, are plain (p, a, d) float triples.
    """

    pleasure: float = 0.0
    arousal: float = 0.0
    dominance: float = 0.0

    def __post_init__(self) -> None:
        for axis in ("pleasure", "arousal", "dominance"):
            object.__setattr__(self, axis, check_range(axis, getattr(self, axis), -1.0, 1.0))

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.pleasure, self.arousal, self.dominance)


@dataclass(frozen=True)
class BigFive:
    """Big Five factor scores regressed from a PAD point."""

    extraversion: float
    agreeableness: float
    conscientiousness: float
    emotional_stability: float
    sophistication: float


@dataclass(frozen=True)
class EmotionalState:
    """Current PAD point and the cycle that last moved it (-1: none yet).

    The state is immutable and integration returns a new one. It keeps no
    history: whoever wants a trajectory records `current` each cycle, as
    the trial engine does.
    """

    current: PadVector
    last_cycle: int = -1


def new_state(start: PadVector = PadVector()) -> EmotionalState:
    """Fresh emotional state that no cycle has moved yet."""
    return EmotionalState(current=start)


def clamp_component(x: float) -> float:
    """Pin a raw component back into [-1, 1]."""
    return -1.0 if x < -1.0 else (1.0 if x > 1.0 else x)


def integrate_appraisals(
    state: EmotionalState, deltas: Iterable[Tuple[float, float, float]], cycle: int
) -> EmotionalState:
    """Fold a cycle's appraisal deltas, (p, a, d) triples, into the state.

    The new point is the componentwise sum of the old point and every
    delta, in order, clamped back into the cube; it is the only PadVector
    built here. The state moves to `cycle` even when there are no deltas.
    Raises CycleOrderError if `cycle` does not advance past the state's
    last cycle.
    """
    if cycle <= state.last_cycle:
        raise CycleOrderError(
            f"cycle {cycle} does not advance past recorded cycle {state.last_cycle}"
        )
    p, a, d = state.current.as_tuple()
    for dp, da, dd in deltas:
        p += dp
        a += da
        d += dd
    point = PadVector(clamp_component(p), clamp_component(a), clamp_component(d))
    return EmotionalState(point, cycle)


def octant_label(v: PadVector) -> EmotionLabel:
    """Mood label for the octant containing `v` (zeros count as positive)."""
    return _OCTANTS[(v.pleasure >= 0.0, v.arousal >= 0.0, v.dominance >= 0.0)]


def big_five(v: PadVector) -> BigFive:
    """Project a PAD point onto the Big Five via the fixed regressions."""
    p, a, d = v.as_tuple()
    return BigFive(
        extraversion=0.24 * p + 0.72 * d,
        agreeableness=0.76 * p + 0.17 * a - 0.19 * d,
        conscientiousness=0.29 * p + 0.28 * d,
        emotional_stability=0.50 * p - 0.55 * a,
        sophistication=0.28 * a + 0.60 * d,
    )


def scale_for_report(v: PadVector, factor: float = 10.0) -> Tuple[float, float, float]:
    """Rescale a PAD point for display (the traditional [-10, 10] axes)."""
    return (factor * v.pleasure, factor * v.arousal, factor * v.dominance)
