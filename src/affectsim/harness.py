"""Experiment harness: teams, trials, the scenario matrix, and CSV output.

A trial drops one nine-agent team into a scenario and runs it until
everyone reaches the beacon or the horizon (1800 cycles = 180 s) falls.
Team score is the mean time-to-goal with unfinished agents charged the
full horizon, plus the best single time. The matrix crosses the three
bundled scenarios with five teams (four homogeneous, one mixed) over ten
seeded runs each and emits metrics.csv / summary.csv / per-trial PAD
trajectory files.

The trial engine is mode-agnostic: it pulls motor commands from a
CommandSource, which is an in-process controller bank here and a socket
server in the networking layer. Sensor readings and commands pass
through the wire codec's six-decimal canonical form in both modes, so a
lockstep networked run reproduces the in-process run exactly.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import Field, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .appraisal import EmotionTracker
from .config import ScenarioSpec, make_world, resolve_scenario
from .mind import AgentController, Behavior
from .pad import scale_for_report
from .temperament import TemperamentConfig, TemperamentKind, TemperamentProfile, sample_profile
from .wire import canonical_command, canonical_readings
from .world import World

T_MAX = 1800  # cycles; 180 s at the 100 ms cycle

TEAM_SIZE = 9


class TrialFailure(RuntimeError):
    """A matrix trial aborted; the message names (scenario, team, seed)."""


@dataclass(frozen=True)
class TeamSpec:
    """A named team of exactly nine temperament assignments."""

    name: str
    composition: Tuple[TemperamentKind, ...]

    def __post_init__(self) -> None:
        if len(self.composition) != TEAM_SIZE:
            raise ValueError(
                f"a team has exactly {TEAM_SIZE} members, got {len(self.composition)}"
            )


def homogeneous_team(kind: TemperamentKind) -> TeamSpec:
    return TeamSpec(kind.value, (kind,) * TEAM_SIZE)


def mixed_team() -> TeamSpec:
    """The heterogeneous team: cyclic C,S,P,M over nine slots (3/2/2/2)."""
    order = (
        TemperamentKind.CHOLERIC,
        TemperamentKind.SANGUINE,
        TemperamentKind.PHLEGMATIC,
        TemperamentKind.MELANCHOLIC,
    )
    return TeamSpec("mixed", tuple(order[i % 4] for i in range(TEAM_SIZE)))


def builtin_teams() -> Dict[str, TeamSpec]:
    teams = [homogeneous_team(k) for k in TemperamentKind] + [mixed_team()]
    return {t.name: t for t in teams}


def score_team(
    times: Sequence[Tuple[bool, int]], t_max: int = T_MAX
) -> Tuple[float, float]:
    """Team score: (mean, best) time in cycles.

    Each entry is (finished, cycles). Unfinished agents contribute the
    full horizon to the mean; best is the fastest finished time, or the
    horizon when nobody finished. Permutation-invariant.
    """
    if not times:
        raise ValueError("cannot score an empty team")
    total = 0
    finished_times = []
    for finished, cycles in times:
        if finished:
            if not 0 <= cycles <= t_max:
                raise ValueError(f"finish time {cycles} outside [0, {t_max}]")
            total += cycles
            finished_times.append(cycles)
        else:
            total += t_max
    mean = total / len(times)
    best = float(min(finished_times)) if finished_times else float(t_max)
    return (mean, best)


def slot_rng(seed: int, slot: int, stream: int) -> np.random.Generator:
    """Deterministic per-slot generator; stream 0 = profile, 2 = wander.

    (Stream 1 is the world's sensor-noise lane for the same slot.) Both
    endpoints of a networked run can rebuild slot state from (seed, slot)
    alone, which is how remote clients recover their own profile.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, slot)))


def team_profiles(
    team: TeamSpec, seed: int, cfg: TemperamentConfig = TemperamentConfig()
) -> Dict[int, TemperamentProfile]:
    return {
        slot: sample_profile(kind, slot_rng(seed, slot, 0), cfg)
        for slot, kind in enumerate(team.composition)
    }


@dataclass(frozen=True)
class AgentTrial:
    slot: int
    kind: str
    finished: bool
    time_cycles: int
    trajectory: Tuple[Tuple[float, float, float], ...]  # reported PAD per cycle


@dataclass(frozen=True)
class TrialMetrics:
    scenario: str
    team: str
    seed: int
    agents: Tuple[AgentTrial, ...]
    mean_time: float
    best_time: float


class CommandSource:
    """Where the engine gets motor commands; see ControllerSource and net."""

    def commands(self, cycle: int, readings: Mapping[int, object]) -> Dict[int, object]:
        raise NotImplementedError

    def notify_finish(self, agent_id: int, cycle: int) -> None:
        pass

    def close(self, cycle: int) -> None:
        pass


@dataclass
class TrialRecorder:
    """Optional side-channel for per-trial extras the metrics don't carry."""

    record_positions: bool = False
    behavior_counts: Dict[int, Dict[Behavior, int]] = field(default_factory=dict)
    positions: Dict[int, List[Tuple[float, float]]] = field(default_factory=dict)

    def count(self, slot: int, behavior: Behavior) -> None:
        per_slot = self.behavior_counts.setdefault(slot, {})
        per_slot[behavior] = per_slot.get(behavior, 0) + 1

    def snapshot(self, world: World) -> None:
        for body in world.bodies:
            self.positions.setdefault(body.agent_id, []).append((body.x, body.y))


class ControllerSource(CommandSource):
    """In-process command source: one AgentController per slot."""

    def __init__(
        self,
        controllers: Mapping[int, AgentController],
        recorder: Optional[TrialRecorder] = None,
    ) -> None:
        self.controllers = dict(controllers)
        self.recorder = recorder

    def commands(self, cycle, readings):
        out = {}
        for agent_id in sorted(readings):
            verdict = self.controllers[agent_id].act(readings[agent_id])
            if self.recorder is not None:
                self.recorder.count(agent_id, verdict.behavior)
            out[agent_id] = verdict.command
        return out


class TrialEngine:
    """Cycle driver shared by in-process and networked runs.

    Per cycle: feed canonical readings to every live tracker, refresh
    broadcast labels, detect arrivals, then ask the command source for
    canonicalized commands and step the world. Finished agents freeze:
    body stopped, emotions no longer updated, trajectory padded with the
    final value so all trajectories stay equal length.
    """

    def __init__(
        self,
        world: World,
        trackers: Mapping[int, EmotionTracker],
        t_max: int = T_MAX,
        recorder: Optional[TrialRecorder] = None,
    ) -> None:
        self.world = world
        self.trackers = dict(trackers)
        self.t_max = t_max
        self.recorder = recorder

    def run(self, source: CommandSource) -> Tuple[Dict[int, int], Dict[int, List[Tuple[float, float, float]]]]:
        world = self.world
        ids = sorted(self.trackers)
        readings = {
            i: canonical_readings(r)
            for i, r in world.sense_active().items()
            if i in self.trackers
        }
        finish: Dict[int, int] = {}
        traj: Dict[int, List[Tuple[float, float, float]]] = {i: [] for i in ids}
        while True:
            cycle = world.cycle
            for i in ids:
                if i in finish:
                    traj[i].append(traj[i][-1])
                    continue
                tracker = self.trackers[i]
                tracker.observe(readings[i], cycle)
                world.body(i).broadcast_label = tracker.label
                traj[i].append(scale_for_report(tracker.state.current))
            if self.recorder is not None and self.recorder.record_positions:
                self.recorder.snapshot(world)
            for i in ids:
                if i not in finish and readings[i].ground:
                    finish[i] = cycle
                    world.body(i).stopped = True
                    source.notify_finish(i, cycle)
            if len(finish) == len(ids) or cycle >= self.t_max:
                break
            active = {i: readings[i] for i in ids if i not in finish}
            commands = source.commands(cycle, active)
            quantized = {
                i: canonical_command(cmd) for i, cmd in commands.items() if i in active
            }
            readings = {
                i: canonical_readings(r) for i, r in world.step(quantized).items()
            }
        source.close(world.cycle)
        return finish, traj


def _assemble_metrics(
    spec: ScenarioSpec,
    team: TeamSpec,
    seed: int,
    profiles: Mapping[int, TemperamentProfile],
    finish: Mapping[int, int],
    traj: Mapping[int, List[Tuple[float, float, float]]],
    t_max: int,
) -> TrialMetrics:
    agents = []
    for slot in sorted(traj):
        agents.append(
            AgentTrial(
                slot=slot,
                kind=profiles[slot].kind.value,
                finished=slot in finish,
                time_cycles=finish.get(slot, t_max),
                trajectory=tuple(traj[slot]),
            )
        )
    mean, best = score_team([(a.finished, a.time_cycles) for a in agents], t_max)
    return TrialMetrics(spec.name, team.name, seed, tuple(agents), mean, best)


def build_controllers(
    spec: ScenarioSpec,
    profiles: Mapping[int, TemperamentProfile],
    seed: int,
) -> Dict[int, AgentController]:
    """One mind per slot: the only place slot minds are built.

    In-process trials, networked agent clients and the server's mirror
    trackers all come from here, so every mode runs the same minds.
    """
    return {
        slot: AgentController(
            slot,
            profiles[slot],
            spec.gains,
            spec.thresholds,
            spec.physics,
            spec.temperament.drift_rate,
            rng=slot_rng(seed, slot, 2),
        )
        for slot in profiles
    }


def controller_for_slot(
    spec: ScenarioSpec, team: TeamSpec, seed: int, slot: int
) -> AgentController:
    """Rebuild slot state exactly as the trial harness would.

    This is what a networked agent client calls after learning its slot
    from the Welcome message: profile and wander stream depend only on
    (seed, slot, kind), so client and server agree on who the agent is.
    """
    profile = team_profiles(team, seed, spec.temperament)[slot]
    return build_controllers(spec, {slot: profile}, seed)[slot]


def run_trial(
    scenario,
    team: TeamSpec,
    seed: int,
    t_max: int = T_MAX,
    recorder: Optional[TrialRecorder] = None,
) -> TrialMetrics:
    """Run one seeded trial in-process and return its metrics."""
    spec = resolve_scenario(scenario)
    profiles = team_profiles(team, seed, spec.temperament)
    world = make_world(spec, profiles, seed)
    controllers = build_controllers(spec, profiles, seed)
    trackers = {slot: c.tracker for slot, c in controllers.items()}
    engine = TrialEngine(world, trackers, t_max, recorder)
    finish, traj = engine.run(ControllerSource(controllers, recorder))
    return _assemble_metrics(spec, team, seed, profiles, finish, traj, t_max)


# ---------------------------------------------------------------------
# Matrix runs and CSV emission
# ---------------------------------------------------------------------

_BEHAVIOR_COLUMNS = [b.name.lower() for b in Behavior]

_KINDS = [k.value for k in TemperamentKind]

_AXES = ("pleasure", "arousal", "dominance")


@dataclass(frozen=True)
class AgentRow:
    """One metrics.csv row: an agent's aggregate over one trial.

    The fields are the CSV's columns, in order; the last one spreads
    over one column per behavior.
    """

    scenario: str
    team: str
    seed: int
    slot: int
    kind: str
    finished: bool
    time_cycles: int
    mean_pleasure: float
    mean_arousal: float
    mean_dominance: float
    behaviors: Tuple[int, ...]  # counts in Behavior declaration order


@dataclass(frozen=True)
class CellSummary:
    """One summary.csv row: a (scenario, team) cell over its seeds.

    The fields are the CSV's columns, in order; the last one spreads
    over `<axis>_<kind>` columns, empty for a kind not on the team.
    """

    scenario: str
    team: str
    trials: int
    mean_time_mean: float
    mean_time_std: float
    best_time_mean: float
    best_time_std: float
    pleasure: float
    arousal: float
    dominance: float
    by_kind: Tuple[Tuple[str, Tuple[float, float, float]], ...]


def _scalar_fields(row_type) -> Tuple[Field, ...]:
    """Every field of a CSV row type but the last, which spreads over columns."""
    return fields(row_type)[:-1]


METRICS_HEADER = [f.name for f in _scalar_fields(AgentRow)] + _BEHAVIOR_COLUMNS

SUMMARY_HEADER = [f.name for f in _scalar_fields(CellSummary)] + [
    f"{axis}_{kind}" for kind in _KINDS for axis in _AXES
]


@dataclass(frozen=True)
class ExperimentReport:
    agent_rows: Tuple[AgentRow, ...]
    cells: Tuple[CellSummary, ...]

    def cell(self, scenario: str, team: str) -> CellSummary:
        for c in self.cells:
            if c.scenario == scenario and c.team == team:
                return c
        raise KeyError((scenario, team))


def _traj_mean(trajectory: Sequence[Tuple[float, float, float]], axis: int) -> float:
    return sum(t[axis] for t in trajectory) / len(trajectory)


def agent_rows_for_trial(
    metrics: TrialMetrics, recorder: Optional[TrialRecorder] = None
) -> List[AgentRow]:
    rows = []
    for agent in metrics.agents:
        per_slot = recorder.behavior_counts.get(agent.slot, {}) if recorder is not None else {}
        rows.append(
            AgentRow(
                scenario=metrics.scenario,
                team=metrics.team,
                seed=metrics.seed,
                slot=agent.slot,
                kind=agent.kind,
                finished=agent.finished,
                time_cycles=agent.time_cycles,
                mean_pleasure=_traj_mean(agent.trajectory, 0),
                mean_arousal=_traj_mean(agent.trajectory, 1),
                mean_dominance=_traj_mean(agent.trajectory, 2),
                behaviors=tuple(per_slot.get(b, 0) for b in Behavior),
            )
        )
    return rows


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _pstdev(xs: Sequence[float]) -> float:
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def _pad_means(rows: Sequence[AgentRow]) -> Tuple[float, float, float]:
    return (
        _mean([r.mean_pleasure for r in rows]),
        _mean([r.mean_arousal for r in rows]),
        _mean([r.mean_dominance for r in rows]),
    )


def summarize(agent_rows: Sequence[AgentRow], t_max: int = T_MAX) -> Tuple[CellSummary, ...]:
    """Aggregate agent rows into per-cell summaries.

    Cells, and seeds within a cell, come in order of first appearance.
    Works identically on freshly computed rows and on rows read back from
    metrics.csv, which is what makes the CSV round-trip exact.
    """
    groups: Dict[Tuple[str, str], List[AgentRow]] = {}
    for row in agent_rows:
        groups.setdefault((row.scenario, row.team), []).append(row)
    cells = []
    for (scenario, team), rows in groups.items():
        by_seed: Dict[int, List[AgentRow]] = {}
        for row in rows:
            by_seed.setdefault(row.seed, []).append(row)
        scores = [
            score_team([(r.finished, r.time_cycles) for r in seed_rows], t_max)
            for seed_rows in by_seed.values()
        ]
        means = [mean for mean, _ in scores]
        bests = [best for _, best in scores]
        by_kind = []
        for kind in _KINDS:
            krows = [r for r in rows if r.kind == kind]
            if krows:
                by_kind.append((kind, _pad_means(krows)))
        pleasure, arousal, dominance = _pad_means(rows)
        cells.append(
            CellSummary(
                scenario=scenario,
                team=team,
                trials=len(by_seed),
                mean_time_mean=_mean(means),
                mean_time_std=_pstdev(means),
                best_time_mean=_mean(bests),
                best_time_std=_pstdev(bests),
                pleasure=pleasure,
                arousal=arousal,
                dominance=dominance,
                by_kind=tuple(by_kind),
            )
        )
    return tuple(cells)


def default_matrix_scenarios() -> List[ScenarioSpec]:
    from .config import builtin_scenario

    return [builtin_scenario(n) for n in ("scenario1", "scenario2", "scenario3")]


def run_matrix(
    scenarios: Optional[Sequence] = None,
    teams: Optional[Sequence[TeamSpec]] = None,
    runs: int = 10,
    base_seed: int = 0,
    out_dir: Optional[str] = None,
    traj_stride: int = 10,
    t_max: int = T_MAX,
) -> ExperimentReport:
    """Run the scenario x team x seed grid and optionally emit CSVs.

    Seeds are base_seed..base_seed+runs-1 in every cell: disjoint across
    runs, shared across teams so team comparisons are paired. Trials run
    and merge in (scenario, team, seed) order, which fixes the output
    byte-for-byte for a given base seed. A failing trial aborts the whole
    matrix naming its cell.
    """
    specs = [resolve_scenario(s) for s in (scenarios or default_matrix_scenarios())]
    team_list = list(teams) if teams is not None else list(builtin_teams().values())
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    agent_rows: List[AgentRow] = []
    for spec in specs:
        for team in team_list:
            for run in range(runs):
                seed = base_seed + run
                recorder = TrialRecorder()
                try:
                    metrics = run_trial(spec, team, seed, t_max, recorder)
                except Exception as exc:
                    raise TrialFailure(
                        f"trial failed at (scenario={spec.name}, team={team.name}, seed={seed}): {exc}"
                    ) from exc
                agent_rows.extend(agent_rows_for_trial(metrics, recorder))
                if out_dir:
                    write_trajectories(metrics, out_dir, traj_stride)
    report = ExperimentReport(tuple(agent_rows), summarize(agent_rows, t_max))
    if out_dir:
        write_metrics_csv(report.agent_rows, os.path.join(out_dir, "metrics.csv"))
        write_summary_csv(report.cells, os.path.join(out_dir, "summary.csv"))
    return report


# -- CSV emission and ingestion ----------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _scalar_cells(row) -> List[str]:
    return [_fmt(getattr(row, f.name)) for f in _scalar_fields(type(row))]


# (name, parse) per scalar metrics.csv column, keyed by the field's type;
# a column whose type has no parser fails here, at import.
_CELL_PARSERS = {str: str, int: int, float: float, bool: lambda cell: cell == "1"}
_HINTS = get_type_hints(AgentRow)
_METRICS_PARSERS = [(f.name, _CELL_PARSERS[_HINTS[f.name]]) for f in _scalar_fields(AgentRow)]


def write_metrics_csv(rows: Sequence[AgentRow], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for r in rows:
            writer.writerow(_scalar_cells(r) + [str(c) for c in r.behaviors])


def read_metrics_csv(path: str) -> List[AgentRow]:
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != METRICS_HEADER:
            raise ValueError(f"{path}: unexpected metrics header {header!r}")
        for rec in reader:
            values = {name: parse(cell) for (name, parse), cell in zip(_METRICS_PARSERS, rec)}
            counts = tuple(int(c) for c in rec[len(_METRICS_PARSERS) :])
            rows.append(AgentRow(**values, behaviors=counts))
    return rows


def write_summary_csv(cells: Sequence[CellSummary], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for c in cells:
            kinds = dict(c.by_kind)
            row = _scalar_cells(c)
            for kind in _KINDS:
                row += [_fmt(v) for v in kinds[kind]] if kind in kinds else ["", "", ""]
            writer.writerow(row)


def write_trajectories(metrics: TrialMetrics, out_dir: str, stride: int = 10) -> str:
    """Write pad_traj_<scenario>_<team>_<seed>.csv (reported PAD scale)."""
    if stride < 1:
        raise ValueError("stride must be positive")
    name = f"pad_traj_{metrics.scenario}_{metrics.team}_{metrics.seed}.csv"
    path = os.path.join(out_dir, name)
    header = ["cycle"]
    for agent in metrics.agents:
        header += [
            f"s{agent.slot}_pleasure",
            f"s{agent.slot}_arousal",
            f"s{agent.slot}_dominance",
        ]
    length = len(metrics.agents[0].trajectory) if metrics.agents else 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for cycle in range(0, length, stride):
            row = [cycle]
            for agent in metrics.agents:
                row += [_fmt(v) for v in agent.trajectory[cycle]]
            writer.writerow(row)
    return path
