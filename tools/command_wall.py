"""Process wall time of whole ``exorecover`` commands, interleaved over checkouts.

    python3 tools/command_wall.py TREE [TREE ...] --pairs 10 [--cached]

Each TREE is a checkout of this repository.  Every command runs as
``python -m exorecover ...`` in a fresh interpreter with that tree's
``src`` on ``PYTHONPATH``, and is timed from start to exit, so the
figure includes interpreter start-up, imports, compiling and the
command's work:

- ``plan``: one step plan for a 0.12 m forward DCM excursion;
- ``sweep_weights``: the same state over a three-triple weight grid;
- ``simulate``: a 3 s run with a 0.12 m forward push at 0.5 s;
- ``simulate_noisy``: the same run with 0.2 deg attitude noise;
- ``simulate_quiet``: 8 s of noisy standing that never steps, shaped like
  the bench's ``quiet_stance`` runs (a few mm of initial CoM offset and
  velocity, 0.15 deg of attitude noise): past start-up, its time goes
  to 8,000 standing ticks and to writing their 8,000 trace rows.

Each pair runs every command once per tree, command by command, with
the trees in the given order on even pairs and in reverse on odd ones.
By default ``PYTHONDONTWRITEBYTECODE=1`` is set and a tree that holds a
``__pycache__`` under ``src`` is refused, so every run compiles the
package from source.  With ``--cached`` each tree gets its own bytecode
cache directory (``PYTHONPYCACHEPREFIX``), filled by one untimed run of
each command first.

The run ends by printing one JSON object: per command, per tree, the
seconds of every pair and their median and quartiles.  ``DIR`` in the
command lines stands for the temporary directory of the inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Scenario lines of the timed runs; an impulse of d*mass*omega shifts the DCM by d.
FORWARD_PUSH = ["sim.duration = 3.0", "push.0.time = 0.5",
                f"push.0.impulse = {0.12 * 70.0 * math.sqrt(9.81 / 0.88)!r}, 0.0"]
NOISE = "sim.attitude_noise_deg = 0.2"
QUIET = ["sim.duration = 8.0", "lipm.com0 = 0.003, -0.002", "lipm.vel0 = -0.002, 0.004",
         "sim.attitude_noise_deg = 0.15", "sim.seed = 7"]
STATE = ["--xi0", "0.12,0", "--cop0", "0,-0.1"]


def commands(inputs: Path, out: Path) -> dict[str, list[str]]:
    """The ``exorecover`` argument lists, by name, with their input files written."""
    scenario, noisy, grid = inputs / "scenario.txt", inputs / "noisy.txt", inputs / "grid.txt"
    quiet = inputs / "quiet.txt"
    scenario.write_text("\n".join(FORWARD_PUSH) + "\n")
    noisy.write_text("\n".join(FORWARD_PUSH + [NOISE]) + "\n")
    quiet.write_text("\n".join(QUIET) + "\n")
    grid.write_text("1, 5, 0.02\n1, 50, 0.02\n1, 5, 2.0\n")
    return {
        "plan": ["plan", "--scenario", str(scenario), *STATE],
        "sweep_weights": ["sweep-weights", "--scenario", str(scenario), *STATE,
                          "--grid", str(grid), "--out", str(out / "sweep")],
        "simulate": ["simulate", "--scenario", str(scenario), "--out", str(out / "run")],
        "simulate_noisy": ["simulate", "--scenario", str(noisy), "--out", str(out / "noisy")],
        "simulate_quiet": ["simulate", "--scenario", str(quiet), "--out", str(out / "quiet")],
    }


def run(tree: Path, env: dict[str, str], argv: list[str]) -> float:
    """Seconds from start to exit of ``python -m exorecover argv`` on ``tree``."""
    env = {**env, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "exorecover", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{tree}: exorecover {' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return seconds


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="checkouts to compare")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cached", action="store_true",
                        help="time with bytecode caches, one directory per tree")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    trees = {str(tree): tree.resolve() for tree in args.trees}  # by the name given

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        envs = {}
        for i, tree in enumerate(trees.values()):
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            if args.cached:
                env.pop("PYTHONDONTWRITEBYTECODE", None)
                env["PYTHONPYCACHEPREFIX"] = str(scratch / f"pycache{i}")
            elif any((tree / "src").rglob("__pycache__")):
                raise SystemExit(f"{tree} holds __pycache__ under src; remove it first")
            else:
                env["PYTHONDONTWRITEBYTECODE"] = "1"
            envs[tree] = env
        (scratch / "inputs").mkdir()
        named = commands(scratch / "inputs", scratch / "out")
        if args.cached:
            for tree in trees.values():
                for argv in named.values():
                    run(tree, envs[tree], argv)
        seconds = {name: {given: [] for given in trees} for name in named}
        for pair in range(args.pairs):
            order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            for name, argv in named.items():
                for given in order:
                    tree = trees[given]
                    seconds[name][given].append(round(run(tree, envs[tree], argv), 4))

    report = {"cached": args.cached, "pairs": args.pairs,
              "order": "trees as given on even pairs, reversed on odd",
              "scenario": FORWARD_PUSH, "noisy_adds": NOISE, "quiet_scenario": QUIET,
              "commands": {name: " ".join(["python", "-m", "exorecover", *argv])
                           .replace(str(scratch), "DIR") for name, argv in named.items()},
              "seconds": {name: {tree: {"runs": values, **summary(values)}
                                 for tree, values in by_tree.items()}
                          for name, by_tree in seconds.items()}}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
