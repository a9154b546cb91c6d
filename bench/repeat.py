"""Run one benchmark workload repeatedly and print median and quartiles.

    python3 bench/repeat.py --workload matrix --runs 10 --first-seed 0

Each run is a fresh `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...), one after another. The table gives, per metric,
the median, the first and third quartiles (statistics.quantiles, n=4)
and their distance as a share of the median. Every run's result line is
also appended to bench/_work/results.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values = {}
    units = {}
    (HERE / "_work").mkdir(exist_ok=True)
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        with open(HERE / "_work" / "results.jsonl", "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed, "trace": args.trace, **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}, {args.runs} runs, trace {args.trace}")
    print(f"{'metric':38} {'unit':16} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:38} {units[name]:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
