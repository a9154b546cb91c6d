"""Layer timers and probes, installed from outside the program.

Each wrapper replaces a public function or method where its caller looks
it up (a module global or a class attribute) and the original is put
back on uninstall, so nothing under src/ changes and an untraced run
runs the program's own code. Two kinds of traced pass use them:

- LayerTimer times spans. A span's self time is its duration minus the
  spans nested directly inside it, so the self times of all spans in a
  trial add up to the trial's time without double counting.
- Probe counts calls (q6, PadVector, actuation_limits) and checks every
  World.step from outside with the benchmark's own geometry. Counting
  wrappers are cheap but not free, so they never run in a timed pass.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from checks import ArenaGeometry, CheckError, Row


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


class LayerTimer:
    """Per-span call counts, total time and self time, in seconds."""

    def __init__(self, t_max: int) -> None:
        self.stats: Dict[str, List[float]] = {}
        self._stack: List[float] = [0.0]
        # integrate_appraisals cost by horizon position: [calls, seconds]
        # for cycles in the first tenth and in the last tenth of t_max.
        self.first_tenth = [0, 0.0]
        self.last_tenth = [0, 0.0]
        self._early = t_max // 10
        self._late = t_max - t_max // 10

    def span(self, name: str) -> Callable[[Callable], Callable]:
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def timed(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = stack.pop()
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - inner
                    stack[-1] += dt

            return timed

        return make

    def integrate_span(self, fn):
        """Span for integrate_appraisals(state, deltas, cycle) with buckets."""
        timed = self.span("pad.integrate")(fn)
        rec = self.stats["pad.integrate"]
        first, last = self.first_tenth, self.last_tenth
        early, late = self._early, self._late

        def bucketed(state, deltas, cycle):
            before = rec[1]
            out = timed(state, deltas, cycle)
            if cycle < early:
                first[0] += 1
                first[1] += rec[1] - before
            elif cycle >= late:
                last[0] += 1
                last[1] += rec[1] - before
            return out

        return bucketed

    def total(self, name: str) -> float:
        return self.stats[name][1]

    def self_time(self, name: str) -> float:
        return self.stats[name][2]

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def install(self, sim, patches: Patches) -> None:
        """Wrap every timed layer of the affectsim modules in `sim`."""
        World = sim.world.World
        patches.replace(sim.harness.TrialEngine, "run", self.span("harness.engine"))
        patches.replace(World, "sense_active", self.span("world.sweep"))
        patches.replace(World, "step", self.span("world.step"))
        patches.replace(sim.world, "apply_motors", self.span("world.apply_motors"))
        patches.replace(sim.harness, "canonical_readings", self.span("wire.readings"))
        patches.replace(sim.harness, "canonical_command", self.span("wire.command"))
        patches.replace(sim.appraisal.EmotionTracker, "observe", self.span("appraisal.observe"))
        patches.replace(sim.appraisal, "integrate_appraisals", self.integrate_span)
        patches.replace(sim.appraisal, "stress_update", self.span("temperament.stress_update"))
        patches.replace(sim.mind.AgentController, "act", self.span("mind.act"))
        for name in ("resolve_scenario", "team_profiles", "make_world", "build_controllers"):
            patches.replace(sim.harness, name, self.span("config." + name))
        for name in ("write_trajectories", "write_metrics_csv", "write_summary_csv"):
            patches.replace(sim.harness, name, self.span("harness." + name))

    def metrics(self, agent_cycles: int, trials: int, csv_bytes: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer (value, unit); "us" is microseconds per agent-cycle."""
        per_ac = 1e6 / agent_cycles
        first_mean = self.first_tenth[1] / self.first_tenth[0]
        last_mean = self.last_tenth[1] / self.last_tenth[0]
        config = sum(
            self.total("config." + n)
            for n in ("resolve_scenario", "team_profiles", "make_world", "build_controllers")
        )
        csv_s = sum(
            self.total("harness." + n)
            for n in ("write_trajectories", "write_metrics_csv", "write_summary_csv")
        )
        canonical = self.total("wire.readings") + self.total("wire.command")
        return {
            "world.sweep_us": (self.total("world.sweep") * per_ac, "us"),
            "world.step_self_us": (self.self_time("world.step") * per_ac, "us"),
            "world.apply_motors_us": (self.total("world.apply_motors") * per_ac, "us"),
            "wire.canonical_us": (canonical * per_ac, "us"),
            "appraisal.observe_self_us": (self.self_time("appraisal.observe") * per_ac, "us"),
            "pad.integrate_us": (
                self.total("pad.integrate") * 1e6 / self.calls("pad.integrate"),
                "us",
            ),
            "pad.integrate_growth": (last_mean / first_mean, "ratio"),
            "temperament.stress_update_us": (
                self.total("temperament.stress_update") * per_ac,
                "us",
            ),
            "mind.act_us": (self.total("mind.act") * per_ac, "us"),
            "harness.engine_self_us": (self.self_time("harness.engine") * per_ac, "us"),
            "harness.csv_s": (csv_s, "s"),
            "harness.csv_bytes": (float(csv_bytes), "bytes"),
            "config.setup_ms": (config * 1e3 / trials, "ms"),
        }


class Probe:
    """Call counters plus outside checks of geometry and call balance."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {
            "q6": 0,
            "pad_vector": 0,
            "actuation_limits": 0,
            "act": 0,
            "observe": 0,
            "collision": 0,
            "steps": 0,
        }
        self.finishes: Dict[Tuple[str, str, int, int], int] = {}
        # The running trial: its key (scenario, team, seed), world and geometry.
        self._team = ""
        self._trial = ("", "", -1)
        self._world = None
        self._geometry = None

    def _count(self, key: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _run_trial(self, fn):
        counts = self.counts

        def run_trial(scenario, team, seed, *args, **kwargs):
            self._team = team.name
            observe0, act0 = counts["observe"], counts["act"]
            metrics = fn(scenario, team, seed, *args, **kwargs)
            observed, acted = counts["observe"] - observe0, counts["act"] - act0
            agents = len(metrics.agents)
            if observed != acted + agents:
                raise CheckError(
                    f"{self._trial}: {observed} observe calls, expected "
                    f"{acted} act calls + {agents} agents"
                )
            return metrics

        return run_trial

    def _make_world(self, fn):
        def make_world(spec, profiles=None, seed=0):
            world = fn(spec, profiles, seed)
            self._trial = (spec.name, self._team, seed)
            self._world = world
            self._geometry = ArenaGeometry.from_spec(spec)
            self._geometry.check_poses(self._poses(world), f"{self._trial} spawn")
            return world

        return make_world

    @staticmethod
    def _poses(world) -> List[Tuple[int, float, float]]:
        return [(b.agent_id, b.x, b.y) for b in world.bodies]

    def _step(self, fn):
        def step(world, commands):
            readings = fn(world, commands)
            self.counts["steps"] += 1
            self._geometry.check_poses(self._poses(world), f"{self._trial} cycle {world.cycle}")
            return readings

        return step

    def _notify_finish(self, fn):
        def notify_finish(source, agent_id, cycle):
            world = self._world
            where = f"{self._trial} cycle {cycle}"
            if cycle != world.cycle:
                raise CheckError(f"{where}: finish reported at world cycle {world.cycle}")
            body = world.body(agent_id)
            self._geometry.check_arrival(agent_id, body.x, body.y, where)
            self.finishes[self._trial + (agent_id,)] = cycle
            return fn(source, agent_id, cycle)

        return notify_finish

    def _act_call(self, fn):
        counts = self.counts

        def act(controller, readings):
            counts["act"] += 1
            if readings.collision:
                counts["collision"] += 1
            return fn(controller, readings)

        return act

    def install(self, sim, patches: Patches) -> None:
        patches.replace(sim.harness, "run_trial", self._run_trial)
        patches.replace(sim.harness, "make_world", self._make_world)
        patches.replace(sim.world.World, "step", self._step)
        patches.replace(sim.harness.CommandSource, "notify_finish", self._notify_finish)
        patches.replace(sim.appraisal.EmotionTracker, "observe", self._count("observe"))
        patches.replace(sim.mind.AgentController, "act", self._act_call)
        patches.replace(sim.wire, "q6", self._count("q6"))
        patches.replace(sim.pad.PadVector, "__post_init__", self._count("pad_vector"))
        for module in (sim.appraisal, sim.mind, sim.world):
            patches.replace(module, "actuation_limits", self._count("actuation_limits"))

    def check_against(self, rows: List[Row], agent_cycles: int) -> None:
        """Finishes and act calls seen here must match the written outputs."""
        written = {
            (r.scenario, r.team, r.seed, r.slot): r.time_cycles for r in rows if r.finished
        }
        if written != self.finishes:
            missing = set(written.items()) ^ set(self.finishes.items())
            raise CheckError(f"finishes in metrics.csv and at the beacon differ: {sorted(missing)[:5]}")
        if self.counts["act"] != agent_cycles:
            raise CheckError(
                f"{self.counts['act']} act calls, metrics.csv counts {agent_cycles} agent-cycles"
            )

    def metrics(self, agent_cycles: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer (value, unit); counts are per agent-cycle."""
        c = self.counts
        return {
            "world.collision_share": (c["collision"] / c["act"], "ratio"),
            "wire.q6_calls": (c["q6"] / agent_cycles, "count"),
            "pad.vectors_per_agent_cycle": (c["pad_vector"] / agent_cycles, "count"),
            "temperament.actuation_limits_calls": (
                c["actuation_limits"] / agent_cycles,
                "count",
            ),
        }
