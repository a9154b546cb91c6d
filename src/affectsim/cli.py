"""Command-line front end.

Subcommands:
  run     one seeded trial, print per-agent results and the team score
  matrix  full scenario x team x seed sweep, CSV output
  score   recompute cell aggregates from an emitted metrics.csv
  label   classify a PAD point: octant label plus Big Five estimate
  serve   run one trial as a TCP server for remote agent minds
  client  connect one agent mind to a running server
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .harness import (
    T_MAX,
    TeamSpec,
    TrialRecorder,
    agent_rows_for_trial,
    builtin_teams,
    read_metrics_csv,
    run_matrix,
    run_trial,
    summarize,
    write_metrics_csv,
    write_summary_csv,
    write_trajectories,
)
from .config import BUILTIN_SCENARIOS, resolve_scenario
from .net import AgentClient, SimulationServer
from .pad import PadVector, big_five, octant_label


def _team(name: str) -> TeamSpec:
    teams = builtin_teams()
    if name not in teams:
        raise SystemExit(f"unknown team {name!r}; choose from {', '.join(teams)}")
    return teams[name]


def _print_trial(metrics) -> None:
    for agent in metrics.agents:
        status = f"finished at cycle {agent.time_cycles}" if agent.finished else "did not finish"
        print(f"  slot {agent.slot} ({agent.kind}): {status}")
    print(
        f"team {metrics.team} on {metrics.scenario} seed {metrics.seed}: "
        f"mean {metrics.mean_time:.1f} best {metrics.best_time:.1f}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    recorder = TrialRecorder()
    metrics = run_trial(args.scenario, _team(args.team), args.seed, args.max_cycles, recorder)
    _print_trial(metrics)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        rows = agent_rows_for_trial(metrics, recorder)
        write_metrics_csv(rows, os.path.join(args.out, "metrics.csv"))
        write_summary_csv(summarize(rows, args.max_cycles), os.path.join(args.out, "summary.csv"))
        write_trajectories(metrics, args.out, stride=1 if args.full_traj else 10)
        print(f"wrote metrics.csv, summary.csv and trajectories to {args.out}")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    scenarios = None
    if args.scenarios:
        scenarios = [resolve_scenario(s) for s in args.scenarios.split(",")]
    teams = None
    if args.teams:
        teams = [_team(t) for t in args.teams.split(",")]
    report = run_matrix(
        scenarios=scenarios,
        teams=teams,
        runs=args.runs,
        base_seed=args.base_seed,
        out_dir=args.out,
        traj_stride=1 if args.full_traj else 10,
        t_max=args.max_cycles,
    )
    for cell in report.cells:
        print(
            f"{cell.scenario:<12} {cell.team:<12} trials {cell.trials:>3} "
            f"mean {cell.mean_time_mean:8.1f} best {cell.best_time_mean:8.1f} "
            f"P {cell.pleasure:+.3f}"
        )
    print(f"wrote metrics.csv and summary.csv to {args.out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    rows = read_metrics_csv(args.csv)
    t_max = args.max_cycles
    if t_max is None:
        # An unfinished row's time_cycles is the horizon and no finish lies
        # beyond it; if every row finished, the horizon enters no score.
        t_max = max((r.time_cycles for r in rows), default=T_MAX)
    for cell in summarize(rows, t_max=t_max):
        print(
            f"{cell.scenario:<12} {cell.team:<12} trials {cell.trials:>3} "
            f"mean {cell.mean_time_mean:8.1f} (sd {cell.mean_time_std:7.1f}) "
            f"best {cell.best_time_mean:8.1f} (sd {cell.best_time_std:7.1f})"
        )
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    point = PadVector(args.p, args.a, args.d)
    traits = big_five(point)
    print(f"octant: {octant_label(point).value}")
    print(
        "big five: "
        f"extraversion {traits.extraversion:+.3f}, "
        f"agreeableness {traits.agreeableness:+.3f}, "
        f"conscientiousness {traits.conscientiousness:+.3f}, "
        f"emotional stability {traits.emotional_stability:+.3f}, "
        f"sophistication {traits.sophistication:+.3f}"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    server = SimulationServer(
        args.scenario,
        _team(args.team),
        args.seed,
        host=args.host,
        port=args.port,
        lockstep=not args.realtime,
        t_max=args.max_cycles,
    )
    server.start()
    try:
        print(f"listening on {server.host}:{server.port}; waiting for agents")
        metrics = server.run_trial()
        _print_trial(metrics)
    finally:
        server.close()
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    from .harness import controller_for_slot

    spec = resolve_scenario(args.scenario)
    team = _team(args.team)
    client = AgentClient(
        args.host,
        args.port,
        lambda slot: controller_for_slot(spec, team, args.seed, slot),
        name=args.name,
    )
    slot = client.run()
    print(f"agent {slot} done after {client.cycles} cycles")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affectsim",
        description="temperament-driven multi-robot simulation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            default="scenario1",
            help=f"builtin name ({', '.join(BUILTIN_SCENARIOS)}) or a config file path",
        )
        p.add_argument("--team", default="mixed", help="builtin team name")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-cycles", type=int, default=T_MAX)

    p_run = sub.add_parser("run", help="run one seeded trial in-process")
    add_common(p_run)
    p_run.add_argument("--out", help="directory for CSV output")
    p_run.add_argument("--full-traj", action="store_true", help="per-cycle PAD rows")
    p_run.set_defaults(func=cmd_run)

    p_matrix = sub.add_parser("matrix", help="run the full experiment matrix")
    p_matrix.add_argument("--base-seed", type=int, default=0)
    p_matrix.add_argument("--out", required=True, help="directory for CSV output")
    p_matrix.add_argument("--runs", type=int, default=10, help="seeds per cell")
    p_matrix.add_argument("--scenarios", help="comma-separated names or paths")
    p_matrix.add_argument("--teams", help="comma-separated team names")
    p_matrix.add_argument("--max-cycles", type=int, default=T_MAX)
    p_matrix.add_argument("--full-traj", action="store_true")
    p_matrix.set_defaults(func=cmd_matrix)

    p_score = sub.add_parser("score", help="recompute aggregates from metrics.csv")
    p_score.add_argument("--csv", required=True)
    p_score.add_argument(
        "--max-cycles", type=int, default=None, help="horizon (default: read from the rows)"
    )
    p_score.set_defaults(func=cmd_score)

    p_label = sub.add_parser("label", help="octant and Big Five for a PAD point")
    p_label.add_argument("--p", type=float, required=True)
    p_label.add_argument("--a", type=float, required=True)
    p_label.add_argument("--d", type=float, required=True)
    p_label.set_defaults(func=cmd_label)

    p_serve = sub.add_parser("serve", help="serve one trial to networked agents")
    add_common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p_serve.add_argument(
        "--realtime",
        action="store_true",
        help="enforce the cycle deadline instead of lockstep waiting",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser("client", help="attach one agent mind to a server")
    add_common(p_client)
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, required=True)
    p_client.add_argument("--name", default="agent")
    p_client.set_defaults(func=cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
