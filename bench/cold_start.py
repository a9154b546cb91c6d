"""Cold set-up of one trial, in a fresh interpreter, up to its first cycle.

    python3 bench/cold_start.py <scenario> <team> <seed>

Imports affectsim from the checkout's src/ and calls `harness.run_trial`,
which parses the scenario and builds the profiles, the world and the
controllers. At the first `TrialEngine.run` it prints `ready` and exits
at once. `run.py` times this process from its spawn to that line.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from affectsim import harness  # noqa: E402


def _first_cycle(engine, source):
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os._exit(0)


def main() -> int:
    scenario, team, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    harness.TrialEngine.run = _first_cycle
    harness.run_trial(scenario, harness.builtin_teams()[team], seed)
    return 1  # TrialEngine.run was not reached


if __name__ == "__main__":
    sys.exit(main())
