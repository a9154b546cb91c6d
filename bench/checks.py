"""Output checks for the benchmark, computed with the benchmark's own code.

Every check here is a property of the method or a total reached by two
independent paths; none compares against a stored copy of earlier
output. A failed check raises CheckError naming the file and the value.

- metrics.csv: each agent's behavior counts (counted by the controller)
  sum to its time_cycles (set by the engine's finish detection), an
  unfinished agent is charged exactly the horizon, and every PAD mean
  lies in the reported [-10, 10] range.
- summary.csv: every cell is recomputed from the metrics.csv rows
  (unfinished agents charged the horizon, population std) and must match
  to the last bit.
- pad_traj_*.csv: one file per trial, one row per `stride` cycles of a
  trajectory that runs to the trial's last cycle, values in [-10, 10].
- ArenaGeometry re-checks poses against the scenario's own geometry:
  no overlaps, nothing outside the arena or inside a wall, and finishers
  inside the arrival zone.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

FIXED_COLUMNS = [
    "scenario",
    "team",
    "seed",
    "slot",
    "kind",
    "finished",
    "time_cycles",
    "mean_pleasure",
    "mean_arousal",
    "mean_dominance",
]
CELL_COLUMNS = [
    "mean_time_mean",
    "mean_time_std",
    "best_time_mean",
    "best_time_std",
    "pleasure",
    "arousal",
    "dominance",
]
AXES = ("pleasure", "arousal", "dominance")
PAD_LIMIT = 10.0

# Slack for comparing poses computed by the world (numpy) with this
# module's geometry (math): the same inequality evaluated by two codes may
# disagree in the last bits, never by a nanometre.
GEOMETRY_SLACK = 1e-9

TrialKey = Tuple[str, str, int]  # scenario, team, seed


class CheckError(Exception):
    """An output of the program failed one of the benchmark's checks."""


class Row(NamedTuple):
    scenario: str
    team: str
    seed: int
    slot: int
    kind: str
    finished: bool
    time_cycles: int
    pad: Tuple[float, float, float]
    behaviors: Dict[str, int]

    @property
    def trial(self) -> TrialKey:
        return (self.scenario, self.team, self.seed)


class OutputSummary(NamedTuple):
    rows: List[Row]
    agent_cycles: int
    csv_bytes: int


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not an integer") from None


def _pad_value(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not a number") from None
    if not -PAD_LIMIT <= value <= PAD_LIMIT:
        raise CheckError(f"{where}: PAD value {value!r} outside [-10, 10]")
    return value


def read_rows(path: str, t_max: int) -> List[Row]:
    """Parse metrics.csv and check every row on its own."""
    with open(path, newline="") as handle:
        records = list(csv.reader(handle))
    if not records or records[0][: len(FIXED_COLUMNS)] != FIXED_COLUMNS:
        raise CheckError(f"{path}: unexpected header")
    header = records[0]
    behavior_columns = header[len(FIXED_COLUMNS) :]
    if "recover" not in behavior_columns or "seek_beacon" not in behavior_columns:
        raise CheckError(f"{path}: behavior columns missing from header")
    rows = []
    for line, rec in enumerate(records[1:], start=2):
        where = f"{path}:{line}"
        if len(rec) != len(header):
            raise CheckError(f"{where}: {len(rec)} fields, header has {len(header)}")
        if rec[5] not in ("0", "1"):
            raise CheckError(f"{where}: finished flag {rec[5]!r}")
        row = Row(
            scenario=rec[0],
            team=rec[1],
            seed=_int(rec[2], where),
            slot=_int(rec[3], where),
            kind=rec[4],
            finished=rec[5] == "1",
            time_cycles=_int(rec[6], where),
            pad=tuple(_pad_value(v, where) for v in rec[7:10]),
            behaviors={
                name: _int(v, where) for name, v in zip(behavior_columns, rec[10:])
            },
        )
        if not 0 <= row.time_cycles <= t_max:
            raise CheckError(f"{where}: time_cycles {row.time_cycles} outside [0, {t_max}]")
        if not row.finished and row.time_cycles != t_max:
            raise CheckError(
                f"{where}: unfinished agent charged {row.time_cycles}, horizon is {t_max}"
            )
        if any(count < 0 for count in row.behaviors.values()):
            raise CheckError(f"{where}: negative behavior count")
        total = sum(row.behaviors.values())
        if total != row.time_cycles:
            raise CheckError(
                f"{where}: behavior counts sum to {total}, time_cycles is {row.time_cycles}"
            )
        rows.append(row)
    return rows


def check_trials(rows: Sequence[Row], trials: Sequence[TrialKey], team_size: int) -> None:
    """Exactly the expected trials, each with slots 0..team_size-1."""
    slots: Dict[TrialKey, List[int]] = {}
    for row in rows:
        slots.setdefault(row.trial, []).append(row.slot)
    if sorted(slots) != sorted(trials):
        raise CheckError(
            f"metrics.csv holds trials {sorted(slots)}, expected {sorted(trials)}"
        )
    for trial, got in slots.items():
        if sorted(got) != list(range(team_size)):
            raise CheckError(f"metrics.csv trial {trial}: slots {got}")


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _pstdev(xs: Sequence[float]) -> float:
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def expected_cells(rows: Sequence[Row], t_max: int) -> List[Dict[str, object]]:
    """Recompute summary.csv from the metrics rows, cells in row order."""
    cells: Dict[Tuple[str, str], List[Row]] = {}
    for row in rows:
        cells.setdefault((row.scenario, row.team), []).append(row)
    out = []
    for (scenario, team), cell_rows in cells.items():
        by_seed: Dict[int, List[Row]] = {}
        for row in cell_rows:
            by_seed.setdefault(row.seed, []).append(row)
        means, bests = [], []
        for seed_rows in by_seed.values():
            charged = [r.time_cycles if r.finished else t_max for r in seed_rows]
            finished = [r.time_cycles for r in seed_rows if r.finished]
            means.append(sum(charged) / len(charged))
            bests.append(float(min(finished)) if finished else float(t_max))
        cell: Dict[str, object] = {
            "scenario": scenario,
            "team": team,
            "trials": str(len(by_seed)),
            "mean_time_mean": _mean(means),
            "mean_time_std": _pstdev(means),
            "best_time_mean": _mean(bests),
            "best_time_std": _pstdev(bests),
        }
        for axis, name in enumerate(AXES):
            cell[name] = _mean([r.pad[axis] for r in cell_rows])
        kinds: Dict[str, List[Row]] = {}
        for row in cell_rows:
            kinds.setdefault(row.kind, []).append(row)
        for kind, kind_rows in kinds.items():
            for axis, name in enumerate(AXES):
                cell[f"{name}_{kind}"] = _mean([r.pad[axis] for r in kind_rows])
        out.append(cell)
    return out


def check_summary(path: str, rows: Sequence[Row], t_max: int) -> None:
    """summary.csv must equal the recomputation bit for bit."""
    with open(path, newline="") as handle:
        records = list(csv.reader(handle))
    if not records:
        raise CheckError(f"{path}: empty")
    header = records[0]
    if header[:3] != ["scenario", "team", "trials"] or header[3:10] != CELL_COLUMNS:
        raise CheckError(f"{path}: unexpected header")
    expected = expected_cells(rows, t_max)
    if len(records) - 1 != len(expected):
        raise CheckError(f"{path}: {len(records) - 1} cells, metrics.csv has {len(expected)}")
    for line, (rec, cell) in enumerate(zip(records[1:], expected), start=2):
        where = f"{path}:{line}"
        if len(rec) != len(header):
            raise CheckError(f"{where}: {len(rec)} fields, header has {len(header)}")
        for name, text in zip(header, rec):
            want = cell.get(name)
            if isinstance(want, float):
                try:
                    got = float(text)
                except ValueError:
                    raise CheckError(f"{where}: {name} {text!r} is not a number") from None
                if got != want:
                    raise CheckError(f"{where}: {name} is {got!r}, recomputed {want!r}")
                if name not in CELL_COLUMNS[:4] and not -PAD_LIMIT <= got <= PAD_LIMIT:
                    raise CheckError(f"{where}: {name} {got!r} outside [-10, 10]")
            elif text != ("" if want is None else want):
                raise CheckError(f"{where}: {name} is {text!r}, expected {want!r}")


def check_trajectories(
    out_dir: str, rows: Sequence[Row], t_max: int, stride: int
) -> None:
    """One pad_traj file per trial, sampled every `stride` cycles.

    A trial runs until every agent finishes or the horizon falls, so its
    trajectories have (t_max if anyone is unfinished else the last finish
    time) + 1 points.
    """
    trials: Dict[TrialKey, List[Row]] = {}
    for row in rows:
        trials.setdefault(row.trial, []).append(row)
    expected_files = set()
    for (scenario, team, seed), trial_rows in trials.items():
        name = f"pad_traj_{scenario}_{team}_{seed}.csv"
        expected_files.add(name)
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            raise CheckError(f"{path}: missing")
        if all(r.finished for r in trial_rows):
            last = max(r.time_cycles for r in trial_rows)
        else:
            last = t_max
        points = last + 1
        with open(path, newline="") as handle:
            records = list(csv.reader(handle))
        header = ["cycle"] + [
            f"s{r.slot}_{axis}" for r in trial_rows for axis in AXES
        ]
        if not records or records[0] != header:
            raise CheckError(f"{path}: unexpected header")
        cycles = list(range(0, points, stride))
        if len(records) - 1 != len(cycles):
            raise CheckError(
                f"{path}: {len(records) - 1} rows, a trajectory of {points} points "
                f"at stride {stride} has {len(cycles)}"
            )
        for line, (rec, cycle) in enumerate(zip(records[1:], cycles), start=2):
            where = f"{path}:{line}"
            if len(rec) != len(header) or rec[0] != str(cycle):
                raise CheckError(f"{where}: expected cycle {cycle} with {len(header)} fields")
            for text in rec[1:]:
                _pad_value(text, where)
    present = {n for n in os.listdir(out_dir) if n.startswith("pad_traj_")}
    if present != expected_files:
        raise CheckError(f"{out_dir}: unexpected trajectory files {sorted(present - expected_files)}")


def check_outputs(
    out_dir: str,
    trials: Sequence[TrialKey],
    t_max: int,
    stride: int,
    team_size: int,
) -> OutputSummary:
    """Run every file check on one workload round's output directory."""
    rows = read_rows(os.path.join(out_dir, "metrics.csv"), t_max)
    check_trials(rows, trials, team_size)
    check_summary(os.path.join(out_dir, "summary.csv"), rows, t_max)
    check_trajectories(out_dir, rows, t_max, stride)
    csv_bytes = sum(
        os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
    )
    return OutputSummary(rows, sum(r.time_cycles for r in rows), csv_bytes)


def check_goal_unreachable(rows: Sequence[Row]) -> None:
    """In an arena without a beacon nobody finishes or seeks one."""
    for row in rows:
        if row.finished:
            raise CheckError(f"{row.trial} slot {row.slot} finished without a beacon")
        if row.behaviors["seek_beacon"]:
            raise CheckError(f"{row.trial} slot {row.slot} sought a beacon that is not there")


def behavior_shares(rows: Iterable[Row], behavior: str) -> Dict[str, float]:
    """Share of agent-cycles spent in `behavior`, per team and overall ('')."""
    spent: Counter = Counter()
    cycles: Counter = Counter()
    for row in rows:
        for team in (row.team, ""):
            spent[team] += row.behaviors[behavior]
            cycles[team] += row.time_cycles
    return {team: spent[team] / cycles[team] for team in cycles if cycles[team]}


class ArenaGeometry:
    """The scenario's geometry, re-implemented to check world poses."""

    def __init__(
        self,
        width: float,
        height: float,
        walls: Sequence[Tuple[float, float, float, float]],
        radius: float,
        beacon: Optional[Tuple[float, float]],
        arrival_radius: float,
    ) -> None:
        self.width = width
        self.height = height
        self.walls = tuple(walls)
        self.radius = radius
        self.beacon = beacon
        self.arrival_radius = arrival_radius

    @classmethod
    def from_spec(cls, spec) -> "ArenaGeometry":
        arena = spec.arena
        return cls(
            arena.width,
            arena.height,
            [(w.xmin, w.ymin, w.xmax, w.ymax) for w in arena.walls],
            spec.physics.body_radius,
            arena.beacon,
            arena.arrival_radius,
        )

    def check_poses(self, poses: Sequence[Tuple[int, float, float]], where: str) -> None:
        """No body outside the arena, in a wall, or overlapping another."""
        r = self.radius
        lo = r - GEOMETRY_SLACK
        for agent_id, x, y in poses:
            if not (lo <= x <= self.width - lo and lo <= y <= self.height - lo):
                raise CheckError(f"{where}: body {agent_id} at ({x}, {y}) leaves the arena")
            for xmin, ymin, xmax, ymax in self.walls:
                gap = math.hypot(x - min(max(x, xmin), xmax), y - min(max(y, ymin), ymax))
                if gap < lo:
                    raise CheckError(f"{where}: body {agent_id} at ({x}, {y}) overlaps a wall")
        for j, (a, ax, ay) in enumerate(poses):
            for b, bx, by in poses[j + 1 :]:
                if math.hypot(ax - bx, ay - by) < 2.0 * r - GEOMETRY_SLACK:
                    raise CheckError(f"{where}: bodies {a} and {b} overlap")

    def check_arrival(self, agent_id: int, x: float, y: float, where: str) -> None:
        """A finisher must stand inside the beacon's arrival zone."""
        if self.beacon is None:
            raise CheckError(f"{where}: body {agent_id} finished in an arena without a beacon")
        gap = math.hypot(x - self.beacon[0], y - self.beacon[1])
        if gap > self.arrival_radius + GEOMETRY_SLACK:
            raise CheckError(
                f"{where}: body {agent_id} finished {gap} from the beacon, "
                f"arrival radius is {self.arrival_radius}"
            )
