"""affectsim benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload matrix --seed 0 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the workload repeats in whole rounds until --seconds have
passed, every round's outputs are checked, and the last line of stdout is
a JSON object with the end-to-end metrics (medians over rounds). With
--trace 1 one round runs three times: untraced as the reference, under
the layer timers, and under the probes that count calls and check
geometry; both traced rounds must write the reference's bytes, and the
last line carries the per-layer metrics. See bench/README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from checks import CheckError, behavior_shares, check_goal_unreachable, check_outputs
from layers import LayerTimer, Patches, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
STRIDE = 10  # trajectory CSV sampling, the harness default
TEAM_SIZE = 9
COLD_STARTS = 7  # fresh interpreters timed per run for setup_s


def cold_setup(trial) -> float:
    """Median seconds from spawning a fresh interpreter to `trial`'s first cycle.

    Each spawn runs cold_start.py: interpreter start-up, the affectsim
    import, scenario parsing, profiles, world and controllers. One cold
    set-up moves by 10-25 % with the host; the median of several does not.
    """
    scenario, team, seed = trial
    cmd = [sys.executable, str(HERE / "cold_start.py"), scenario, team, str(seed)]
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
        if child.returncode != 0 or line != "ready\n":
            raise CheckError(f"cold set-up of {trial} did not reach its first cycle (exit {child.returncode})")
    return statistics.median(times)


class Workload:
    """One round of simulated work plus the checks its outputs must pass."""

    t_max: int
    seeds_per_round = 2

    def __init__(self, sim, seed: int) -> None:
        self.sim = sim
        self.seed = seed

    def _seeds(self):
        base = self.seed * self.seeds_per_round
        return range(base, base + self.seeds_per_round)

    def trials(self):
        raise NotImplementedError

    def run_round(self, out_dir: str):
        raise NotImplementedError

    def check(self, out_dir: str, result):
        return check_outputs(out_dir, self.trials(), self.t_max, STRIDE, TEAM_SIZE)


class Matrix(Workload):
    """All 15 default cells at seeds 2n and 2n+1, CSVs via run_matrix."""

    t_max = 1800

    def trials(self):
        teams = list(self.sim.harness.builtin_teams())
        return [
            (scenario, team, seed)
            for scenario in ("scenario1", "scenario2", "scenario3")
            for team in teams
            for seed in self._seeds()
        ]

    def run_round(self, out_dir: str):
        return self.sim.harness.run_matrix(
            runs=self.seeds_per_round,
            base_seed=self._seeds()[0],
            out_dir=out_dir,
            traj_stride=STRIDE,
            t_max=self.t_max,
        )


class LongHorizon(Workload):
    """Mixed teams in the open social arena for ten default horizons.

    A round is two trials, at seeds 2n and 2n+1: one trial's time moves
    by several per cent with its seed, so a round averages two.
    """

    t_max = 18_000

    def trials(self):
        return [("social", "mixed", seed) for seed in self._seeds()]

    def _trial(self, seed: int, out_dir: str):
        """One trial and its trajectory file; returns (rows, trajectory lengths)."""
        h = self.sim.harness
        recorder = h.TrialRecorder()
        metrics = h.run_trial("social", h.builtin_teams()["mixed"], seed, self.t_max, recorder)
        h.write_trajectories(metrics, out_dir, STRIDE)
        lengths = [len(agent.trajectory) for agent in metrics.agents]
        return h.agent_rows_for_trial(metrics, recorder), lengths

    def run_round(self, out_dir: str):
        h = self.sim.harness
        rows, trajectories = [], []
        for seed in self._seeds():
            trial_rows, lengths = self._trial(seed, out_dir)
            rows += trial_rows
            trajectories += lengths
        h.write_metrics_csv(rows, os.path.join(out_dir, "metrics.csv"))
        h.write_summary_csv(h.summarize(rows, self.t_max), os.path.join(out_dir, "summary.csv"))
        return trajectories

    def check(self, out_dir: str, result):
        summary = super().check(out_dir, result)
        check_goal_unreachable(summary.rows)
        if any(points != self.t_max + 1 for points in result):
            raise CheckError(f"trajectory lengths {sorted(set(result))}, expected {self.t_max + 1}")
        return summary


WORKLOADS = {"matrix": Matrix, "long_horizon": LongHorizon}


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def _round(workload: Workload, work: str, label: str):
    """Run one round into a fresh directory; returns (wall_s, dir, result)."""
    out_dir = os.path.join(work, label)
    os.mkdir(out_dir)
    t0 = time.perf_counter()
    result = workload.run_round(out_dir)
    return time.perf_counter() - t0, out_dir, result


def measure(workload: Workload, work: str, seconds: float):
    """Untraced rounds until `seconds` pass; end-to-end metrics."""
    setup = cold_setup(workload.trials()[0])
    walls, rates, reference, summary = [], [], None, None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, out_dir, result = _round(workload, work, f"round{len(walls)}")
        if reference is None:
            summary = workload.check(out_dir, result)
            reference = _digest(out_dir)
        elif _digest(out_dir) != reference:
            raise CheckError(f"round {len(walls)} wrote different bytes than round 0")
        del result
        shutil.rmtree(out_dir)
        walls.append(wall)
        rates.append(summary.agent_cycles / wall)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "agent_cycles_per_s": (statistics.median(rates), "agent-cycles/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    print(
        f"bench: {len(walls)} rounds, {summary.agent_cycles} agent-cycles each, "
        f"walls {[round(w, 3) for w in walls]}",
        file=sys.stderr,
    )
    return len(walls) * len(workload.trials()), metrics


def trace(workload: Workload, work: str):
    """Reference, timed and probed rounds; per-layer metrics."""
    sim = workload.sim
    ref_wall, ref_dir, result = _round(workload, work, "reference")
    summary = workload.check(ref_dir, result)
    del result
    reference = _digest(ref_dir)

    timer = LayerTimer(workload.t_max)
    with Patches() as patches:
        timer.install(sim, patches)
        timed_wall, timed_dir, result = _round(workload, work, "timed")
    del result
    probe = Probe()
    with Patches() as patches:
        probe.install(sim, patches)
        probe_wall, probe_dir, result = _round(workload, work, "probed")
    del result
    for out_dir in (timed_dir, probe_dir):
        if _digest(out_dir) != reference:
            raise CheckError(f"{os.path.basename(out_dir)} round wrote different bytes than the untraced round")
    probe.check_against(summary.rows, summary.agent_cycles)

    trials = len(workload.trials())
    metrics = timer.metrics(summary.agent_cycles, trials, summary.csv_bytes)
    metrics.update(probe.metrics(summary.agent_cycles))
    recover = behavior_shares(summary.rows, "recover")
    metrics["mind.recover_share"] = (recover[""], "ratio")
    print(
        f"bench: untraced {ref_wall:.3f} s, timed {timed_wall:.3f} s "
        f"(+{timed_wall - ref_wall:.3f}), probed {probe_wall:.3f} s "
        f"(+{probe_wall - ref_wall:.3f}); {summary.agent_cycles} agent-cycles; "
        "recover share by team "
        + ", ".join(f"{team or 'all'} {share:.4f}" for team, share in sorted(recover.items())),
        file=sys.stderr,
    )
    return 3 * trials, metrics


def _import_sim():
    """Import affectsim from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "affectsim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    names = ("harness", "world", "wire", "appraisal", "pad", "mind")
    modules = {n: importlib.import_module(f"affectsim.{n}") for n in names}
    if not Path(modules["harness"].__file__).resolve().is_relative_to(src):
        return None
    return SimpleNamespace(**modules)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sim = _import_sim()
    if sim is None:
        print(f"bench: no affectsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](sim, args.seed)
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.trace:
            attempted, metrics = trace(workload, work)
        else:
            attempted, metrics = measure(workload, work, args.seconds)
    except CheckError as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": 0,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
