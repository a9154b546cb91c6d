"""Physiological temperament layer.

Each agent carries one of the four classical Pavlovian temperaments, fixed
for life. A temperament fixes three categorical nervous-system traits
(strength, balance, mobility) which in turn pin the sampling bands for
three fuzzy state variables (force, mobility, steadiness). The fuzzy
values drive the body: motor power ceiling and sensor reach follow force,
emotional speed follows anxiety, and stress makes the values drift until
calm lets them relax back to their innate baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, NamedTuple, Tuple

import numpy as np

from .pad import check_range


class TemperamentKind(Enum):
    CHOLERIC = "choleric"
    SANGUINE = "sanguine"
    PHLEGMATIC = "phlegmatic"
    MELANCHOLIC = "melancholic"


class Strength(Enum):
    STRONG = "strong"
    WEAK = "weak"


class Balance(Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"


class Mobility(Enum):
    MOBILE = "mobile"
    INERT = "inert"


class SocialGroup(Enum):
    EXTRAVERT = "extravert"
    INTROVERT = "introvert"


@dataclass(frozen=True)
class PavlovTraits:
    """Categorical nervous-system traits of one temperament."""

    strength: Strength
    balance: Balance
    mobility: Mobility
    excitation_dominant: bool


# The classical trait table. Melancholic is only pinned as the weak type;
# its balance/mobility follow the conventional reading (unbalanced, inert).
_TRAITS: Dict[TemperamentKind, PavlovTraits] = {
    TemperamentKind.SANGUINE: PavlovTraits(
        Strength.STRONG, Balance.BALANCED, Mobility.MOBILE, False
    ),
    TemperamentKind.PHLEGMATIC: PavlovTraits(
        Strength.STRONG, Balance.BALANCED, Mobility.INERT, False
    ),
    TemperamentKind.CHOLERIC: PavlovTraits(
        Strength.STRONG, Balance.UNBALANCED, Mobility.MOBILE, True
    ),
    TemperamentKind.MELANCHOLIC: PavlovTraits(
        Strength.WEAK, Balance.UNBALANCED, Mobility.INERT, False
    ),
}

_GROUPS: Dict[TemperamentKind, SocialGroup] = {
    TemperamentKind.SANGUINE: SocialGroup.EXTRAVERT,
    TemperamentKind.CHOLERIC: SocialGroup.EXTRAVERT,
    TemperamentKind.PHLEGMATIC: SocialGroup.INTROVERT,
    TemperamentKind.MELANCHOLIC: SocialGroup.INTROVERT,
}

_DEFAULT_ANXIETY: Dict[TemperamentKind, float] = {
    TemperamentKind.CHOLERIC: 0.9,
    TemperamentKind.MELANCHOLIC: 0.8,
    TemperamentKind.SANGUINE: 0.3,
    TemperamentKind.PHLEGMATIC: 0.1,
}


@dataclass(frozen=True)
class TemperamentConfig:
    """Tunable constants of the temperament layer."""

    upper_band: Tuple[float, float] = (0.6, 0.95)
    lower_band: Tuple[float, float] = (0.05, 0.4)
    anxiety: Dict[TemperamentKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_ANXIETY)
    )
    drift_rate: float = 0.01  # rate0, fraction per cycle

    def __post_init__(self) -> None:
        for name in ("upper_band", "lower_band"):
            lo, hi = getattr(self, name)
            check_range(f"{name} low end", lo, 0.0, 1.0)
            check_range(f"{name} high end", hi, lo, 1.0)
        for kind, value in self.anxiety.items():
            check_range(f"anxiety_{kind.value}", value, 0.0, 1.0)
        check_range("drift_rate", self.drift_rate, 0.0, 1.0)


@dataclass
class FuzzyVariable:
    """A crisp value in [0, 1] with a low/medium/high triangular cover.

    The three memberships form a standard partition (peaks at 0, 0.5 and 1,
    summing to one everywhere), so the crisp value doubles as its own
    defuzzification. `baseline` is the innate resting point the value
    relaxes back to after stress.
    """

    value: float
    baseline: float

    def __post_init__(self) -> None:
        self.value = check_range("value", self.value, 0.0, 1.0)
        self.baseline = check_range("baseline", self.baseline, 0.0, 1.0)

    def memberships(self) -> Tuple[float, float, float]:
        x = self.value
        low = max(0.0, 1.0 - 2.0 * x)
        high = max(0.0, 2.0 * x - 1.0)
        medium = 1.0 - low - high
        return (low, medium, high)

    def dominant(self) -> str:
        low, medium, high = self.memberships()
        if low >= medium and low >= high:
            return "low"
        if high >= medium:
            return "high"
        return "medium"


@dataclass
class TemperamentProfile:
    """One agent's physiological makeup: traits plus live fuzzy state."""

    kind: TemperamentKind
    traits: PavlovTraits
    group: SocialGroup
    anxiety: float
    force: FuzzyVariable
    mobility: FuzzyVariable
    steadiness: FuzzyVariable

    def __post_init__(self) -> None:
        self.anxiety = check_range("anxiety", self.anxiety, 0.0, 1.0)

    def variables(self) -> Tuple[FuzzyVariable, FuzzyVariable, FuzzyVariable]:
        return (self.force, self.mobility, self.steadiness)


class ActuationLimits(NamedTuple):
    motor_ceiling: float
    sensor_reach: float
    emotional_rate: float


def pavlov_traits(kind: TemperamentKind) -> PavlovTraits:
    """Categorical trait triple for a temperament kind."""
    return _TRAITS[kind]


def eysenck_group(kind: TemperamentKind) -> SocialGroup:
    """Extravert/introvert half of the Eysenck circle for this kind."""
    return _GROUPS[kind]


def default_anxiety(kind: TemperamentKind) -> float:
    return _DEFAULT_ANXIETY[kind]


def _band(
    cfg: TemperamentConfig, favourable: bool
) -> Tuple[float, float]:
    return cfg.upper_band if favourable else cfg.lower_band


def sample_profile(
    kind: TemperamentKind,
    rng: np.random.Generator,
    cfg: TemperamentConfig = TemperamentConfig(),
) -> TemperamentProfile:
    """Draw an individual of the given temperament.

    Fuzzy values are uniform draws from the kind's band (strong, mobile and
    balanced traits map to the upper band). Draw order is fixed (force,
    mobility, steadiness) so a profile is reproducible from the generator
    state alone. Baselines start equal to the drawn values.
    """
    traits = pavlov_traits(kind)
    lo, hi = _band(cfg, traits.strength is Strength.STRONG)
    force = float(rng.uniform(lo, hi))
    lo, hi = _band(cfg, traits.mobility is Mobility.MOBILE)
    mobility = float(rng.uniform(lo, hi))
    lo, hi = _band(cfg, traits.balance is Balance.BALANCED)
    steadiness = float(rng.uniform(lo, hi))
    return TemperamentProfile(
        kind=kind,
        traits=traits,
        group=eysenck_group(kind),
        anxiety=cfg.anxiety.get(kind, _DEFAULT_ANXIETY[kind]),
        force=FuzzyVariable(force, force),
        mobility=FuzzyVariable(mobility, mobility),
        steadiness=FuzzyVariable(steadiness, steadiness),
    )


def stress_update(
    p: TemperamentProfile,
    stress_events: int,
    arousal: float,
    dt: int = 1,
    rate0: float = 0.01,
) -> TemperamentProfile:
    """Drift the fuzzy variables one tick and return the profile.

    Under stress (stress_events > 0) every variable climbs toward 1, one
    step per event; in calm cycles each relaxes toward its baseline. The
    per-cycle step is rate0 * (1 + max(arousal, 0)) * dt: high arousal up
    to doubles the speed, negative arousal neither slows nor reverses it.
    """
    if dt < 1:
        raise ValueError(f"dt must be at least one cycle, got {dt!r}")
    step = rate0 * (1.0 + max(float(arousal), 0.0)) * dt
    for var in p.variables():
        if stress_events > 0:
            var.value = min(1.0, var.value + step * stress_events)
        else:
            var.value = min(1.0, max(0.0, var.value + (var.baseline - var.value) * min(1.0, step)))
    return p


def actuation_limits(
    p: TemperamentProfile,
    motor_floor: float = 0.2,
    power_max: float = 1.0,
    reach_floor: float = 0.6,
) -> ActuationLimits:
    """Body-level limits implied by the current fuzzy state.

    Motor ceiling and sensor reach scale linearly with the force value
    (never above the world's power maximum); emotional rate is 1 + anxiety,
    so balanced low-anxiety agents change mood slowly.
    """
    f = p.force.value
    return ActuationLimits(
        motor_ceiling=motor_floor + (power_max - motor_floor) * f,
        sensor_reach=reach_floor + (1.0 - reach_floor) * f,
        emotional_rate=1.0 + p.anxiety,
    )
