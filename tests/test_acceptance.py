"""The acceptance gate: every shipping criterion, one test each.

Each test exercises one guaranteed property at its stated tolerance and
time budget and records a PASS/FAIL line for the end-of-run summary (see
conftest.py). The experiment-matrix criteria share one module-scoped
double run because the matrix is the expensive part.
"""

import filecmp
import itertools
import math
import os
import time
from itertools import product

import numpy as np
import pytest

from conftest import criterion

from affectsim.appraisal import AppraisalEvent, EventKind, step_emotion
from affectsim.config import resolve_scenario
from affectsim.harness import (
    T_MAX,
    TrialRecorder,
    builtin_teams,
    run_matrix,
    run_trial,
    score_team,
)
from affectsim.net import run_networked_trial
from affectsim.pad import BigFive, EmotionLabel, PadVector, big_five, new_state, octant_label
from affectsim.temperament import TemperamentKind, sample_profile, stress_update
from affectsim.wire import (
    Finish,
    Motors,
    PoseReport,
    Register,
    Sensors,
    ViewFrame,
    Welcome,
    WireError,
    decode,
    encode,
    q6,
)
from affectsim.world import (
    AgentBody,
    Arena,
    MotorCommand,
    PhysicsConfig,
    SensorReadings,
    VisionContact,
    World,
)

TEAMS = builtin_teams()


# -- criterion 1: Big Five regression exactness ---------------------------


def test_criterion_01_big_five_regressions():
    with criterion(1, "Big Five regressions, 1000 random points at 1e-9") as log:
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            p, a, d = (float(x) for x in rng.uniform(-1.0, 1.0, 3))
            got = big_five(PadVector(p, a, d))
            want = BigFive(
                extraversion=0.24 * p + 0.72 * d,
                agreeableness=0.76 * p + 0.17 * a - 0.19 * d,
                conscientiousness=0.29 * p + 0.28 * d,
                emotional_stability=0.50 * p - 0.55 * a,
                sophistication=0.28 * a + 0.60 * d,
            )
            for g, w in zip(
                (got.extraversion, got.agreeableness, got.conscientiousness,
                 got.emotional_stability, got.sophistication),
                (want.extraversion, want.agreeableness, want.conscientiousness,
                 want.emotional_stability, want.sophistication),
            ):
                worst = max(worst, abs(g - w))
        elapsed = time.perf_counter() - start
        log.detail = f"max err {worst:.2e}, {elapsed:.2f}s"
        assert worst <= 1e-9
        assert elapsed < 1.0


# -- criterion 2: octant labeling ------------------------------------------


OCTANT_TABLE = {
    (1, 1, 1): EmotionLabel.EXUBERANT,
    (1, 1, -1): EmotionLabel.DEPENDENT,
    (1, -1, 1): EmotionLabel.RELAXED,
    (1, -1, -1): EmotionLabel.DOCILE,
    (-1, 1, 1): EmotionLabel.HOSTILE,
    (-1, 1, -1): EmotionLabel.ANXIOUS,
    (-1, -1, 1): EmotionLabel.DISDAINFUL,
    (-1, -1, -1): EmotionLabel.BORED,
}


def test_criterion_02_octant_bijection():
    with criterion(2, "octant labels bijective over the 8 sign corners") as log:
        seen = {}
        for signs in product((1, -1), repeat=3):
            label = octant_label(PadVector(*(0.5 * s for s in signs)))
            assert label is OCTANT_TABLE[signs], signs
            seen[label] = signs
        assert len(seen) == 8
        assert set(seen) == set(EmotionLabel)
        log.detail = "8/8 corners"


# -- criterion 3: scoring worked example ------------------------------------


def test_criterion_03_score_worked_example():
    with criterion(3, "score_team worked example (1000, 200)") as log:
        got = score_team([(True, 200), (False, 1800)])
        log.detail = f"got {got}"
        assert got == (1000.0, 200.0)


# -- criteria 4 and 7: the full experiment matrix, run twice ----------------


@pytest.fixture(scope="module")
def matrix_runs(tmp_path_factory):
    """Run the full default matrix twice into separate directories."""
    outs = []
    reports = []
    first_elapsed = None
    for tag in ("a", "b"):
        out = os.fspath(tmp_path_factory.mktemp(f"matrix_{tag}"))
        start = time.perf_counter()
        reports.append(run_matrix(out_dir=out))
        elapsed = time.perf_counter() - start
        if first_elapsed is None:
            first_elapsed = elapsed
        outs.append(out)
    return outs, reports, first_elapsed


def test_criterion_04_matrix_reruns_byte_identical(matrix_runs):
    with criterion(4, "matrix reruns byte-identical, one run under 5 min") as log:
        (out_a, out_b), _, elapsed = matrix_runs
        names_a = sorted(os.listdir(out_a))
        names_b = sorted(os.listdir(out_b))
        assert names_a == names_b
        assert "metrics.csv" in names_a and "summary.csv" in names_a
        assert len(names_a) == 2 + 3 * 5 * 10  # one trajectory file per trial
        match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names_a, shallow=False)
        log.detail = f"{len(match)} files, run {elapsed:.0f}s"
        assert mismatch == [] and errors == []
        assert elapsed < 300.0


def test_criterion_07_pleasure_ordering_by_temperament(matrix_runs):
    with criterion(7, "melancholic mean pleasure below sanguine per scenario") as log:
        _, (report, _), _ = matrix_runs
        margins = []
        for scen in ("scenario1", "scenario2", "scenario3"):
            sang = report.cell(scen, "sanguine").pleasure
            mela = report.cell(scen, "melancholic").pleasure
            margins.append(f"{scen} {mela:+.2f}<{sang:+.2f}")
            assert mela < sang, scen
        log.detail = "; ".join(margins)


# -- criterion 5: boundedness under a million randomized steps --------------


EVENT_POOL = tuple(
    AppraisalEvent(kind, intensity, 0.3 if kind is EventKind.THREAT_VISIBLE else None)
    for kind in EventKind
    for intensity in (1.0, 0.55)
)


def test_criterion_05_boundedness_million_steps():
    with criterion(5, "PAD and fuzzy bounds over 1e6 randomized steps") as log:
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        profiles = [
            sample_profile(kind, rng) for kind in TemperamentKind for _ in range(4)
        ]
        total = 1_000_000
        half = total // 2

        # Appraisal half: random single-event steps on one state.
        ev_idx = rng.integers(0, len(EVENT_POOL), half)
        prof_idx = rng.integers(0, len(profiles), half)
        state = new_state()
        for i in range(half):
            state = step_emotion(
                state, (EVENT_POOL[ev_idx[i]],), profiles[prof_idx[i]], i + 1
            )
            c = state.current
            assert -1.0 <= c.pleasure <= 1.0
            assert -1.0 <= c.arousal <= 1.0
            assert -1.0 <= c.dominance <= 1.0

        # Stress/relax half: random event counts and arousals.
        counts = rng.integers(0, 4, half)
        arousals = rng.uniform(-1.0, 1.0, half)
        prof_idx = rng.integers(0, len(profiles), half)
        for i in range(half):
            p = stress_update(
                profiles[prof_idx[i]], int(counts[i]), float(arousals[i])
            )
            assert 0.0 <= p.force.value <= 1.0
            assert 0.0 <= p.mobility.value <= 1.0
            assert 0.0 <= p.steadiness.value <= 1.0

        elapsed = time.perf_counter() - start
        log.detail = f"{total} steps in {elapsed:.1f}s"
        assert elapsed < 30.0


# -- criterion 6: sociality contrast ----------------------------------------


def _mean_pairwise_distance(scenario, team, seed, t_max):
    recorder = TrialRecorder(record_positions=True)
    run_trial(scenario, team, seed, t_max=t_max, recorder=recorder)
    ids = sorted(recorder.positions)
    tracks = np.array([recorder.positions[i] for i in ids])
    pairs = [
        float(np.hypot(*(tracks[a] - tracks[b]).T).mean())
        for a, b in itertools.combinations(range(len(ids)), 2)
    ]
    return float(np.mean(pairs))


def test_criterion_06_sociality_contrast():
    with criterion(6, "sanguine teams pack tighter than melancholic, 9/10 seeds") as log:
        start = time.perf_counter()
        spec = resolve_scenario("social")
        wins = 0
        for seed in range(10):
            sang = _mean_pairwise_distance(spec, TEAMS["sanguine"], seed, 1200)
            mela = _mean_pairwise_distance(spec, TEAMS["melancholic"], seed, 1200)
            wins += sang < mela
        elapsed = time.perf_counter() - start
        log.detail = f"{wins}/10 seeds, {elapsed:.0f}s"
        assert wins >= 9
        assert elapsed < 60.0


# -- criterion 8: networked lockstep equals in-process -----------------------


def test_criterion_08_lockstep_cross_mode_equality():
    with criterion(8, "lockstep networked trial equals in-process trial") as log:
        start = time.perf_counter()
        direct = run_trial("scenario1", TEAMS["sanguine"], seed=0)
        networked = run_networked_trial("scenario1", TEAMS["sanguine"], seed=0)
        elapsed = time.perf_counter() - start
        log.detail = f"{len(direct.agents)} agents, {elapsed:.0f}s"
        assert networked == direct
        assert elapsed < 30.0


# -- criterion 9: codec round-trip -------------------------------------------


def _message_stream(count):
    rng = np.random.default_rng(9)
    labels = list(EmotionLabel)

    def real(lo, hi):
        return q6(float(rng.uniform(lo, hi)))

    for i in range(count):
        pick = i % 7
        if pick == 0:
            yield Register(("agent", "viewer")[i % 2], f"peer{i}")
        elif pick == 1:
            yield Welcome(int(rng.integers(-1, 9)), real(0.01, 1.0))
        elif pick == 2:
            vision = tuple(
                VisionContact(real(-math.pi, math.pi), real(0.0, 4.0), labels[int(rng.integers(8))])
                for _ in range(int(rng.integers(0, 4)))
            )
            yield Sensors(
                i,
                SensorReadings(
                    proximity=(real(0, 1), real(0, 1), real(0, 1)),
                    beacon_bearing=real(-math.pi, math.pi) if i % 3 else None,
                    compass=real(-math.pi, math.pi),
                    ground=bool(i % 2),
                    collision=bool(i % 5 == 0),
                    vision=vision,
                ),
            )
        elif pick == 3:
            yield Motors(i, MotorCommand(real(-1, 1), real(-1, 1)))
        elif pick == 4:
            poses = tuple(
                PoseReport(
                    j,
                    real(0, 20),
                    real(0, 20),
                    real(-math.pi, math.pi),
                    labels[int(rng.integers(8))],
                    real(-10, 10),
                    real(-10, 10),
                    real(-10, 10),
                )
                for j in range(int(rng.integers(0, 3)))
            )
            yield ViewFrame(i, poses)
        elif pick == 5:
            yield Finish(i)
        else:
            yield WireError(f"code{i % 4}", "text goes here")


def test_criterion_09_codec_round_trip():
    with criterion(9, "decode(encode(m)) identity on 1e4 messages") as log:
        start = time.perf_counter()
        n = 0
        for msg in _message_stream(10_000):
            assert decode(encode(msg)) == msg
            n += 1
        elapsed = time.perf_counter() - start
        log.detail = f"{n} messages, {elapsed:.1f}s"
        assert n == 10_000
        assert elapsed < 5.0


# -- criterion 10: motor filter convergence ----------------------------------


def test_criterion_10_filter_convergence():
    with criterion(10, "wheel filter matches geometric closed form at 1e-6") as log:
        physics = PhysicsConfig(sigma_prox=0.0, sigma_angle=0.0)
        arena = Arena(10.0, 10.0, (), None, 0.5)
        world = World(arena, [AgentBody(0, 2.0, 5.0, 0.0)], None, physics, 0)
        dt = physics.cycle_period
        worst = 0.0
        fraction = 0.0
        for k in range(1, 8):
            before = world.body(0).x
            world.step({0: MotorCommand(1.0, 1.0)})
            moved = world.body(0).x - before
            fraction = 1.0 - 0.5 ** k
            worst = max(worst, abs(moved - physics.v_max * fraction * dt))
        log.detail = f"cycle-7 speed {fraction:.7f} v_max, max err {worst:.1e}"
        assert worst <= 1e-6
        assert fraction > 0.99


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
