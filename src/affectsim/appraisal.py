"""Psychical layer: event encoding and appraisal banks.

Raw sensor sweeps are first translated into discrete appraisal events
(threats seen, walls hit, goal visible or lost, company found or missed).
Two banks then evaluate the events: a survival bank for pain and danger
and a goal bank for progress toward the beacon and the agent's social
need. Each bank emits a small PAD delta, a plain (p, a, d) triple that
is not itself a point of the cube; anxiety skews the pleasure
channel, the temperament's emotional rate scales everything, and the
result is folded into the agent's emotional state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .pad import (
    EmotionLabel,
    EmotionalState,
    PadVector,
    check_range,
    integrate_appraisals,
    octant_label,
)
from .temperament import (
    SocialGroup,
    TemperamentProfile,
    actuation_limits,
    stress_update,
)
from .world import SensorReadings


class EventKind(Enum):
    BEACON_VISIBLE = "BeaconVisible"
    GOAL_LOST = "GoalLost"
    CLEAR_PATH_TO_GOAL = "ClearPathToGoal"
    WALL_AHEAD = "WallAhead"
    WALL_COLLISION = "WallCollision"
    THREAT_VISIBLE = "ThreatVisible"
    FRIEND_VISIBLE = "FriendVisible"
    SOCIAL_NEED_MET = "SocialNeedMet"
    SOCIAL_NEED_UNMET = "SocialNeedUnmet"
    GOAL_REACHED = "GoalReached"


class BankId(Enum):
    SURVIVAL = "Survival"
    GOAL = "Goal"


# Events the survival bank owns; these are also what the stress counter
# sees. Everything else belongs to the goal/temperamental-needs bank.
# Enum constants here are tuples, not sets: `in` then tests identity
# first instead of calling the Python-level Enum.__hash__.
SURVIVAL_EVENTS = (EventKind.THREAT_VISIBLE, EventKind.WALL_COLLISION)


@dataclass(frozen=True)
class AppraisalEvent:
    kind: EventKind
    intensity: float = 1.0
    source_bearing: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must lie in [0, 1], got {self.intensity!r}")


@dataclass(frozen=True)
class AppraisalResult:
    bank_id: BankId
    delta: Tuple[float, float, float]  # (p, a, d), each within the bank's cap


# "Happy" robots broadcast any positive-pleasure octant; "angry" is the
# hostile octant specifically.
HAPPY_LABELS = (
    EmotionLabel.EXUBERANT,
    EmotionLabel.DEPENDENT,
    EmotionLabel.RELAXED,
    EmotionLabel.DOCILE,
)
ANGRY_LABEL = EmotionLabel.HOSTILE


@dataclass(frozen=True)
class GainConfig:
    """Appraisal magnitudes; only the sign structure is fixed."""

    max_step: float = 0.1  # per-bank componentwise cap per cycle
    event_gain: float = 0.05  # delta magnitude at intensity 1
    excitation_threat_boost: float = 1.5  # threat gain for excitation-dominant kinds

    def __post_init__(self) -> None:
        for name in ("max_step", "event_gain", "excitation_threat_boost"):
            check_range(name, getattr(self, name), 0.0)


@dataclass(frozen=True)
class ThresholdConfig:
    """Percept-encoding and behavior thresholds, scenario-configurable."""

    wall_ahead_prox: float = 0.15  # front proximity below this reads as a wall
    occlusion_prox: float = 0.25  # front obstacle within this hides the beacon
    clear_path_angle: float = math.radians(30.0)
    comfort_pleasure: float = 0.5  # idle gate pleasure threshold
    idle_mobility: float = 0.5  # idle gate mobility threshold
    danger_radius: float = 3.0  # m, threats beyond this are ignored
    social_radius: float = 0.8  # m, close company; see mind.steer docs
    recover_cycles: int = 5
    steer_gain: float = 1.2
    wander_base: float = 0.6  # wander speed floor, fraction of ceiling
    wander_span: float = 0.4  # extra wander speed at full mobility

    def __post_init__(self) -> None:
        unit = ("wall_ahead_prox", "occlusion_prox", "idle_mobility", "wander_base", "wander_span")
        for name in unit:
            check_range(name, getattr(self, name), 0.0, 1.0)
        # Wander speed may reach the motor ceiling, never pass it.
        check_range("wander_base + wander_span", self.wander_base + self.wander_span, 0.0, 1.0)
        check_range("clear_path_angle", self.clear_path_angle, 0.0, math.pi)
        check_range("comfort_pleasure", self.comfort_pleasure, -1.0, 1.0)
        for name in ("danger_radius", "social_radius", "steer_gain"):
            check_range(name, getattr(self, name), 0.0)
        cycles = check_range("recover_cycles", self.recover_cycles, 0.0)
        if not cycles.is_integer():
            raise ValueError(f"recover_cycles must be a whole number, got {cycles!r}")
        object.__setattr__(self, "recover_cycles", int(cycles))


# Events that carry no bearing are the same every time; AppraisalEvent is
# frozen, so one shared instance per kind serves every agent and cycle.
_GOAL_LOST = AppraisalEvent(EventKind.GOAL_LOST, 1.0)
_WALL_AHEAD = AppraisalEvent(EventKind.WALL_AHEAD, 1.0)
_WALL_COLLISION = AppraisalEvent(EventKind.WALL_COLLISION, 1.0)
_SOCIAL_NEED_MET = AppraisalEvent(EventKind.SOCIAL_NEED_MET, 1.0)
_SOCIAL_NEED_UNMET = AppraisalEvent(EventKind.SOCIAL_NEED_UNMET, 1.0)
_GOAL_REACHED = AppraisalEvent(EventKind.GOAL_REACHED, 1.0)


def encode_events(
    readings: SensorReadings,
    profile: TemperamentProfile,
    prev_beacon_visible: bool = False,
    thresholds: ThresholdConfig = ThresholdConfig(),
) -> List[AppraisalEvent]:
    """Translate one sensor sweep into appraisal events.

    The beacon is never wall-occluded physically, so visibility uses the
    front-proximity proxy: anything closer than the occlusion threshold
    blocks the view. GoalLost fires on the visible-to-hidden edge, which
    is why the caller supplies last cycle's visibility.
    """
    events: List[AppraisalEvent] = []
    front = readings.proximity[0]
    beacon_visible = (
        readings.beacon_bearing is not None and front >= thresholds.occlusion_prox
    )
    if beacon_visible:
        events.append(
            AppraisalEvent(EventKind.BEACON_VISIBLE, 1.0, readings.beacon_bearing)
        )
        if abs(readings.beacon_bearing) <= thresholds.clear_path_angle:
            events.append(
                AppraisalEvent(
                    EventKind.CLEAR_PATH_TO_GOAL, 1.0, readings.beacon_bearing
                )
            )
    elif prev_beacon_visible:
        events.append(_GOAL_LOST)
    if front < thresholds.wall_ahead_prox:
        events.append(_WALL_AHEAD)
    if readings.collision:
        events.append(_WALL_COLLISION)
    for contact in readings.vision:
        if contact.label is ANGRY_LABEL:
            events.append(
                AppraisalEvent(EventKind.THREAT_VISIBLE, 1.0, contact.bearing)
            )
        elif contact.label in HAPPY_LABELS:
            events.append(
                AppraisalEvent(EventKind.FRIEND_VISIBLE, 1.0, contact.bearing)
            )
    company = len(readings.vision)
    if profile.group is SocialGroup.EXTRAVERT:
        met = company >= 1
    else:
        met = company == 0
    events.append(_SOCIAL_NEED_MET if met else _SOCIAL_NEED_UNMET)
    if readings.ground:
        events.append(_GOAL_REACHED)
    return events


def appraise_survival(
    events: Sequence[AppraisalEvent],
    gains: GainConfig = GainConfig(),
    threat_boost: float = 1.0,
) -> AppraisalResult:
    """Survival bank: threats and collisions hurt and demand attention."""
    p = a = d = 0.0
    for event in events:
        g = gains.event_gain * event.intensity
        if event.kind is EventKind.THREAT_VISIBLE:
            g *= threat_boost
            p -= g
            a += g
            d -= g
        elif event.kind is EventKind.WALL_COLLISION:
            p -= g
            a += g
    cap = gains.max_step
    return AppraisalResult(
        BankId.SURVIVAL, (min(max(p, -cap), cap), min(max(a, -cap), cap), min(max(d, -cap), cap))
    )


def appraise_goal(
    events: Sequence[AppraisalEvent], gains: GainConfig = GainConfig()
) -> AppraisalResult:
    """Goal bank: beacon progress and the social need move pleasure and
    dominance; losing sight of the goal costs pleasure but no attention."""
    p = a = d = 0.0
    for event in events:
        g = gains.event_gain * event.intensity
        kind = event.kind
        if kind is EventKind.BEACON_VISIBLE:
            p += g
        elif kind is EventKind.GOAL_LOST:
            p -= g
        elif kind is EventKind.CLEAR_PATH_TO_GOAL:
            d += g
        elif kind is EventKind.WALL_AHEAD:
            d -= g
        elif kind is EventKind.SOCIAL_NEED_MET:
            p += g
        elif kind is EventKind.SOCIAL_NEED_UNMET:
            p -= g
        elif kind is EventKind.GOAL_REACHED:
            p += gains.max_step
    cap = gains.max_step
    return AppraisalResult(
        BankId.GOAL, (min(max(p, -cap), cap), min(max(a, -cap), cap), min(max(d, -cap), cap))
    )


def step_emotion(
    e: EmotionalState,
    events: Sequence[AppraisalEvent],
    profile: TemperamentProfile,
    cycle: int,
    gains: GainConfig = GainConfig(),
) -> EmotionalState:
    """Evaluate both banks and integrate their deltas at this cycle.

    Anxiety skews the pleasure channel (losses amplified by 1 + anxiety,
    gains damped by 1 - anxiety/2) and the temperament's emotional rate
    scales all components, so anxious and excitable agents swing harder.
    With no events the state is returned untouched.
    """
    if not events:
        return e
    boost = (
        gains.excitation_threat_boost if profile.traits.excitation_dominant else 1.0
    )
    survival = appraise_survival(events, gains, boost)
    goal = appraise_goal(events, gains)
    rate = actuation_limits(profile).emotional_rate
    anxiety = profile.anxiety
    deltas = []
    for result in (survival, goal):
        p, a, d = result.delta
        p *= (1.0 + anxiety) if p < 0 else (1.0 - anxiety / 2.0)
        deltas.append((p * rate, a * rate, d * rate))
    return integrate_appraisals(e, deltas, cycle)


class EmotionTracker:
    """Per-agent emotional pipeline, one observe() call per cycle.

    Encodes events from the sweep, steps the emotional state, feeds the
    survival-event count into the temperament's stress drift, and keeps
    the one-cycle beacon-visibility edge detector. The same tracker runs
    inside in-process trials, remote agent clients, and the server-side
    mirror, so every mode sees identical emotions for identical readings.
    """

    def __init__(
        self,
        profile: TemperamentProfile,
        gains: GainConfig = GainConfig(),
        thresholds: ThresholdConfig = ThresholdConfig(),
        drift_rate: float = 0.01,
    ) -> None:
        self.profile = profile
        self.gains = gains
        self.thresholds = thresholds
        self.drift_rate = drift_rate
        self.state = EmotionalState(PadVector())
        self.prev_beacon_visible = False

    def observe(self, readings: SensorReadings, cycle: int) -> List[AppraisalEvent]:
        events = encode_events(
            readings, self.profile, self.prev_beacon_visible, self.thresholds
        )
        self.state = step_emotion(self.state, events, self.profile, cycle, self.gains)
        stress = 0
        beacon_visible = False
        for ev in events:
            if ev.kind in SURVIVAL_EVENTS:
                stress += 1
            elif ev.kind is EventKind.BEACON_VISIBLE:
                beacon_visible = True
        stress_update(
            self.profile, stress, self.state.current.arousal, 1, self.drift_rate
        )
        self.prev_beacon_visible = beacon_visible
        return events

    @property
    def label(self) -> EmotionLabel:
        return octant_label(self.state.current)
