"""Seeded inputs for the three benchmark workloads.

Each workload is a list of CLI commands built from one seed.  The
generator writes every scenario and grid file the commands read into an
input directory, so the program under test sees only those files and its
command-line arguments.  Commands are single-process, single-thread and
run one after another (a closed loop with one client).

``work`` is the amount of work one command does, in the unit the
throughput metrics count: simulated control ticks (1 ms each) for
``simulate``, grid rows for ``sweep-weights``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Default wearer of ``ScenarioConfig``; an impulse of ``d * MASS * OMEGA``
#: shifts the DCM by ``d`` metres.
MASS = 70.0
OMEGA = math.sqrt(9.81 / 0.88)
DT = 0.001  # s, the default control period; no scenario here changes it

PUSH_DURATION = 3.0  # s per push_recovery run
QUIET_DURATION = 8.0  # s per quiet_stance run
GRID_ROWS = 6  # weight triples per sweep grid
SWEEP_GRIDS = 8  # distinct grid files per seed

#: Distinct commands per seed.  Each run executes all of them once per
#: pass, in whole passes, so every run of a workload measures the same mix.
#: A weight_sweep command sweeps one grid at one state; see weight_sweep
#: for why there are many states and short grids.
BATCH = {"push_recovery": 24, "quiet_stance": 8, "weight_sweep": 480}


@dataclass(frozen=True)
class Command:
    name: str  # stable within one seed, e.g. "push_003_forward"
    kind: str  # "simulate" or "sweep"
    argv: tuple[str, ...]  # arguments of exorecover.cli.main, minus --out
    work: int  # ticks for simulate, grid rows for sweep
    scenario: Path


def _num(x: float) -> str:
    return repr(float(x))


def _push(index: int, t: float, dx: float, dy: float) -> list[str]:
    return [
        f"push.{index}.time = {_num(t)}",
        f"push.{index}.impulse = {_num(dx * MASS * OMEGA)}, {_num(dy * MASS * OMEGA)}",
    ]


#: ROADMAP's named cases: (pushes as (time, dx, dy), extra scenario lines).
NAMED_PUSHES = {
    "forward": ([(0.5, 0.12, 0.0)], []),
    "lateral": ([(0.5, 0.0, 0.12)], []),
    "midswing": ([(0.5, 0.12, 0.0), (0.62, 0.0, 0.06)], []),
    "noisy": ([(0.5, 0.12, 0.0)], ["sim.attitude_noise_deg = 0.2"]),
}


#: Modifiers of the seeded pushes, taken in turn, so that every seed has
#: the same mix: a plain push, a mid-swing shove, attitude noise, and
#: zero-torque mode with wearer pulses.
SEEDED_SLOTS = ("plain", "shove", "noise", "zerotorque")


def _seeded_push(rng: np.random.Generator, slot: str, heading: float) -> list[str]:
    """A 0.07-0.15 m DCM shift along ``heading`` plus the slot's modifier."""
    t0 = rng.uniform(0.3, 0.7)
    size = rng.uniform(0.07, 0.15)
    lines = _push(0, t0, size * math.cos(heading), size * math.sin(heading))
    if slot == "shove":
        ts = t0 + rng.uniform(0.08, 0.25)
        shove, angle = rng.uniform(0.03, 0.07), rng.uniform(0.0, 2.0 * math.pi)
        lines += _push(1, ts, shove * math.cos(angle), shove * math.sin(angle))
    elif slot == "noise":
        lines += [f"sim.attitude_noise_deg = {_num(rng.uniform(0.05, 0.3))}",
                  f"sim.seed = {int(rng.integers(2**31))}"]
    elif slot == "zerotorque":
        lines.append("control.mode = zero_torque")
        for i in range(int(rng.integers(1, 3))):
            start = t0 + rng.uniform(0.05, 0.3)
            lines += [
                f"human.{i}.joint = {int(rng.integers(3))}",
                f"human.{i}.start = {_num(start)}",
                f"human.{i}.end = {_num(start + rng.uniform(0.05, 0.2))}",
                f"human.{i}.torque = {_num(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))}",
            ]
    return lines


def _simulate(name: str, path: Path, lines: list[str], duration: float) -> Command:
    path.write_text("\n".join([f"sim.duration = {_num(duration)}"] + lines) + "\n")
    return Command(name, "simulate", ("simulate", "--scenario", str(path)),
                   int(round(duration / DT)), path)


def push_recovery(rng: np.random.Generator, inputs: Path) -> list[Command]:
    commands = []
    for name, (pushes, extra) in NAMED_PUSHES.items():
        lines = [line for i, p in enumerate(pushes) for line in _push(i, *p)] + extra
        cid = f"push_{len(commands):03d}_{name}"
        commands.append(_simulate(cid, inputs / f"{cid}.cfg", lines, PUSH_DURATION))
    # Headings are stratified: one per equal sector, in seeded order.
    seeded = BATCH["push_recovery"] - len(commands)
    for i, sector in enumerate(rng.permutation(seeded)):
        slot = SEEDED_SLOTS[i % len(SEEDED_SLOTS)]
        heading = 2.0 * math.pi * (sector + rng.uniform()) / seeded
        lines = _seeded_push(rng, slot, heading)
        cid = f"push_{len(commands):03d}_{slot}"
        commands.append(_simulate(cid, inputs / f"{cid}.cfg", lines, PUSH_DURATION))
    return commands


def quiet_stance(rng: np.random.Generator, inputs: Path) -> list[Command]:
    """Noisy standing: a few mm of initial offset and up to 0.25 deg of
    attitude noise (a few mm of CoM estimate), well inside the 5 cm sway
    ellipse, so no step is ever triggered."""
    commands = []
    for i in range(BATCH["quiet_stance"]):
        com0 = rng.uniform(-0.005, 0.005, 2)
        vel0 = rng.uniform(-0.005, 0.005, 2)
        lines = [
            f"lipm.com0 = {_num(com0[0])}, {_num(com0[1])}",
            f"lipm.vel0 = {_num(vel0[0])}, {_num(vel0[1])}",
            f"sim.attitude_noise_deg = {_num(rng.uniform(0.05, 0.25))}",
            f"sim.seed = {int(rng.integers(2**31))}",
        ]
        cid = f"quiet_{i:03d}"
        commands.append(_simulate(cid, inputs / f"{cid}.cfg", lines, QUIET_DURATION))
    return commands


def weight_sweep(rng: np.random.Generator, inputs: Path) -> list[Command]:
    """Cold solves at many seeded states: the DCM sits 4-30 cm from a
    stance CoP in any direction, so most states lie outside the
    landing-CoP box and many of them need the solver's slack phase.
    Distance and heading form a Latin hypercube, so every seed covers
    both evenly.

    A cold solve at a given state costs either about 1.5 ms or 10-14 ms,
    for every weight triple alike; which of the two a state gets flips
    under a millimetre of change in the state, so no choice of states
    fixes the share of slow ones.  That share, and with it a seed's
    throughput, spreads like 1/sqrt(states): 12 states swept over 196
    triples each took 6.6 s for one seed and 12.5 s for another.  Many
    states with short grids keep the seed-to-seed spread small, while
    the solves still take about 90% of each command.
    """
    scenario = inputs / "sweep.cfg"
    scenario.write_text("planner.weights = 1.0, 5.0, 0.02\n")
    scale = np.array([1.0, 5.0, 0.02])
    grids = []
    for g in range(SWEEP_GRIDS):
        rows = scale * 10.0 ** rng.uniform(-1.0, 1.0, (GRID_ROWS, 3))
        path = inputs / f"grid_{g}.txt"
        path.write_text("".join(",".join(_num(v) for v in row) + "\n" for row in rows))
        grids.append(path)
    n = BATCH["weight_sweep"]
    distance = 0.04 + 0.26 * (rng.permutation(n) + rng.uniform(size=n)) / n
    heading = 2.0 * math.pi * (rng.permutation(n) + rng.uniform(size=n)) / n
    commands = []
    for i in range(n):
        cop0 = rng.uniform(-0.05, 0.05, 2)
        xi0 = cop0 + distance[i] * np.array([math.cos(heading[i]), math.sin(heading[i])])
        argv = ("sweep-weights", "--scenario", str(scenario),
                "--grid", str(grids[i % SWEEP_GRIDS]),
                f"--xi0={_num(xi0[0])},{_num(xi0[1])}",
                f"--cop0={_num(cop0[0])},{_num(cop0[1])}")
        commands.append(Command(f"sweep_{i:03d}", "sweep", argv, GRID_ROWS, scenario))
    return commands


BUILDERS = {
    "push_recovery": push_recovery,
    "quiet_stance": quiet_stance,
    "weight_sweep": weight_sweep,
}


def generate(workload: str, seed: int, inputs: Path) -> list[Command]:
    """Write the workload's input files under ``inputs`` and list its commands."""
    inputs.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](np.random.default_rng([seed, sorted(BUILDERS).index(workload)]),
                              inputs)
