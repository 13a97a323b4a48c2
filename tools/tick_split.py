"""Per-tick split of the control loop's time, by the phase a tick starts in.

    python3 tools/tick_split.py TREE [TREE ...] --workload push_recovery --seed 1 \
        --passes 8 --rounds 2

Each TREE is a checkout of this repository; its ``src/`` is imported in a
fresh worker process per round, so two trees can be compared.  Rounds
interleave the trees, and the order of the trees flips every round.  The
scenarios are the ``simulate`` commands of ``bench/workloads.py`` (of the
checkout this file sits in) for ``--workload`` and ``--seed``, loaded by
each tree's own ``load_scenario``.

The worker wraps ``Plant.measure``, ``Controller.step`` and ``Plant.step``
of the tree it imported with ``perf_counter`` timers and runs every
scenario through that tree's unmodified ``run_scenario``, once per pass.
A tick's plant time is ``Plant.measure`` plus ``Plant.step``, its
controller time ``Controller.step``.  Ticks are grouped by the phase the
detector is in when the tick starts; a ``Swing`` or ``SteppingPlanned``
tick that ``Controller.step`` sends down its ``episode is None`` branch
(no step in flight after a ``StepAborted``) is grouped apart, as
``<phase>/aborted``.  A ``Swing`` tick with a step in flight is grouped
by what the controller did in it: ``Swing/retarget`` when it re-solved
the step and spliced the trajectory (it emitted ``Replanned``),
``Swing/replan`` when it re-solved the step and kept the trajectory, and
``Swing/terminal`` when the plan was already terminal and nothing was
solved.  A tick that moves into ``SteppingPlanned`` from another phase,
from ``Standing`` or, for a chained step, from ``Landed``, plans a step
(or aborts one at once) and goes in the ``trigger`` group instead.  Per
group the worker reports the tick count, the mean controller and plant
microseconds per tick and the slowest tick's controller microseconds,
each the minimum over passes; the wrappers' own cost is in those figures.

The ticks that ``run_scenario`` runs in its inner loop make no per-tick
call to wrap, so the worker wraps each call of the loop instead and
reports its ticks as the ``Standing/loop`` group: the tick count and
``us``, the loop's microseconds per tick it finished (pushes, sensor,
clamp, phase machine, row, pendulum and leg together), the minimum over
passes.  The loop is ``simulation._run_stance`` in a current checkout,
which runs every tick that starts in ``Standing``, ``Landed`` or
``Captured``; ``simulation._run_standing`` in an older one, which ran the
``Standing`` ticks with no push due and no wearer pulse active, the rest
going through the three per-tick calls; and ``simulation._stand_at_rest``
in one older still, which ran only the ones whose leg was at rest.  A
tick that plans a step in the loop is finished by ``Controller._trigger``
or, for a chained step, ``Controller._chain`` (which a checkout from
before the stance loop lacks), and both are wrapped too: that tick goes
in the ``trigger`` group, with the call as its controller time and
``Plant.step`` as its plant time, and the loop's part of it stays in the
loop's time.

The loop's own cost, which no wrapper sees (logging the row, reading
the phase, passing the measurement and command along), is reported as
``loop_us``: the pass's ``run_scenario`` time per tick minus the wrapped
time per tick, the minimum over passes.  It includes each run's set-up
(validation, plant and controller construction) and the part of the
wrappers' own cost outside their timers, so it is an upper bound.

Once the wrappers are removed, the worker times the same passes again and
reports ``run_us``: the unwrapped ``run_scenario`` time per tick, the
minimum over passes, so the end-to-end tick stands beside the split.

The run ends by printing one JSON object, laid out for a ``BENCH_*.json``
file: per tree, per group, the tick count and one mean and one slowest
tick per round, and one ``loop_us`` and one ``run_us`` per round.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The group of the ticks ``run_scenario`` runs in its standing loop.
LOOP = "Standing/loop"

#: The inner loop's name in ``simulation``, newest first: the stance loop,
#: the standing loop before it took the pushes, pulses and ``Landed`` and
#: ``Captured`` ticks, and the at-rest loop before it took the moving leg.
LOOP_NAMES = ("_run_stance", "_run_standing", "_stand_at_rest")


def _group(controller) -> str:
    """The group of the tick ``controller`` is about to step: its phase, with
    ``/aborted`` appended when ``Controller.step`` takes its ``episode is
    None`` branch, the one a ``StepAborted`` leaves in flight, and
    ``/terminal`` for a step in flight whose plan is terminal, which is not
    re-solved.  An in-flight ``Swing`` tick that re-solves stays ``Swing``
    until :func:`_solved` names what the solve did."""
    phase = controller.detector.phase._value_
    if phase in ("Swing", "SteppingPlanned"):
        if controller.episode is None:
            return phase + "/aborted"
        if phase == "Swing" and controller.episode.plan.status == "terminal":
            return "Swing/terminal"
    return phase


def _solved(events, before: int) -> str:
    """The group of an in-flight ``Swing`` tick that re-solved the step, from
    the events it appended after the first ``before``: ``Swing/retarget``
    when one is ``Replanned``, else ``Swing/replan``."""
    if any(event.kind == "Replanned" for event in events[before:]):
        return "Swing/retarget"
    return "Swing/replan"


def split_ticks(configs, passes: int) -> dict[str, dict]:
    """The per-group split of :func:`split_loop`."""
    return split_loop(configs, passes)[0]


def split_loop(configs, passes: int) -> tuple[dict[str, dict], float]:
    """``({group: {"ticks", "controller_us", "plant_us", "controller_max_us"}},
    loop_us)`` over ``passes`` runs of every config, with the exorecover that
    is imported; the figures per tick are each the minimum over passes.  The
    ``Standing/loop`` group holds ``{"ticks", "us"}``."""
    from exorecover import simulation
    from exorecover.detector import RecoveryPhase

    Plant, Controller = simulation.Plant, simulation.Controller
    planned = RecoveryPhase.STEPPING_PLANNED
    measure, control, integrate = Plant.measure, Controller.step, Plant.step
    # A checkout from before the standing loop has no loop and no
    # _trigger, and one from before the stance loop no _chain.
    finishers = [name for name in ("_trigger", "_chain") if hasattr(Controller, name)]
    loop_name = next((name for name in LOOP_NAMES if hasattr(simulation, name)), None)
    stand = getattr(simulation, loop_name) if loop_name else None
    clock = time.perf_counter
    # Per pass: group -> [ticks, controller seconds, plant seconds, slowest
    # controller seconds]; the loop's group's row is [ticks, seconds].
    sums: dict[str, list] = {}
    state = {"group": None, "plant": 0.0, "in_loop": False, "trigger": 0.0}

    def timed_measure(self, t):
        start = clock()
        meas = measure(self, t)
        state["plant"] = clock() - start
        return meas

    def timed_control(self, meas, t):
        group, before, logged = _group(self), self.detector.phase, len(self.events)
        start = clock()
        command = control(self, meas, t)
        elapsed = clock() - start
        if self.detector.phase is planned and before is not planned:
            group = "trigger"
        elif group == "Swing":
            group = _solved(self.events, logged)
        row = sums.setdefault(group, [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += elapsed
        row[2] += state["plant"]
        if elapsed > row[3]:
            row[3] = elapsed
        state["group"] = row
        return command

    def timed_integrate(self, command, t):
        start = clock()
        integrate(self, command, t)
        state["group"][2] += clock() - start

    def timed_finisher(finish):
        def timed(self, *args):
            if not state["in_loop"]:  # inside Controller.step, whose timer covers it
                return finish(self, *args)
            start = clock()
            command = finish(self, *args)
            elapsed = clock() - start
            state["trigger"] += elapsed
            row = sums.setdefault("trigger", [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += elapsed
            if elapsed > row[3]:
                row[3] = elapsed
            state["group"] = row  # Plant.step integrates the tick next
            return command
        return timed

    def timed_stand(plant, controller, k, *args):
        state["in_loop"], state["trigger"] = True, 0.0
        start = clock()
        end, command = stand(plant, controller, k, *args)
        elapsed = clock() - start
        state["in_loop"] = False
        row = sums.setdefault(LOOP, [0, 0.0])
        row[0] += end - k
        row[1] += elapsed - state["trigger"]
        return end, command

    best: dict[str, dict] = {}
    loop_us = float("inf")
    wrappers = [(Plant, "measure", timed_measure), (Controller, "step", timed_control),
                (Plant, "step", timed_integrate)]
    if stand is not None:
        wrappers += [(Controller, name, timed_finisher(getattr(Controller, name))) for name in finishers]
        wrappers.append((simulation, loop_name, timed_stand))
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in wrappers]
    for owner, name, wrapper in wrappers:
        setattr(owner, name, wrapper)
    try:
        for _ in range(passes):
            sums.clear()
            start = clock()
            for config in configs:
                simulation.run_scenario(config)
            run_s = clock() - start
            all_ticks = sum(row[0] for row in sums.values())
            # Controller plus plant seconds; the loop's group's row holds its seconds
            # alone, and counts as loop time when its calls ran no tick.
            wrapped_s = sum(sum(row[1:3]) for row in sums.values() if row[0])
            loop_us = min(loop_us, (run_s - wrapped_s) / all_ticks * 1e6)
            for group, sums_row in sums.items():
                ticks = sums_row[0]
                if group == LOOP:
                    if ticks:
                        row = best.setdefault(group, {"ticks": ticks, "us": float("inf")})
                        row["us"] = min(row["us"], sums_row[1] / ticks * 1e6)
                    continue
                _, control_s, plant_s, slowest_s = sums_row
                row = best.setdefault(group, {"ticks": ticks, "controller_us": float("inf"),
                                              "plant_us": float("inf"),
                                              "controller_max_us": float("inf")})
                row["controller_us"] = min(row["controller_us"], control_s / ticks * 1e6)
                row["plant_us"] = min(row["plant_us"], plant_s / ticks * 1e6)
                row["controller_max_us"] = min(row["controller_max_us"], slowest_s * 1e6)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return dict(sorted(best.items())), loop_us


def unwrapped_us(configs, passes: int) -> float:
    """The unwrapped ``run_scenario`` time per tick over every config, with the
    exorecover that is imported, the minimum over ``passes``."""
    from exorecover import simulation

    clock = time.perf_counter
    best = float("inf")
    for _ in range(passes):
        ticks, start = 0, clock()
        for config in configs:
            ticks += len(simulation.run_scenario(config).t)
        best = min(best, (clock() - start) / ticks * 1e6)
    return best


def _worker(tree: Path, workload: str, seed: int, passes: int) -> tuple[dict, float, float]:
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from exorecover import cli

    with tempfile.TemporaryDirectory() as inputs:
        commands = [c for c in workloads.generate(workload, seed, Path(inputs))
                    if c.kind == "simulate"]
        if not commands:
            raise SystemExit(f"tick_split: workload {workload} runs no simulation")
        configs = [cli.load_scenario(c.scenario) for c in commands]
    groups, loop_us = split_loop(configs, passes)
    return groups, loop_us, unwrapped_us(configs, passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="checkouts to compare")
    parser.add_argument("--workload", default="push_recovery")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.trees[0].resolve(), args.workload, args.seed, args.passes)))
        return 0

    trees = [tree.resolve() for tree in args.trees]
    if len({tree.name for tree in trees}) < len(trees):
        parser.error("the trees are reported by directory name, so the names must differ")
    result = {tree.name: {"groups": {}, "loop_us": [], "run_us": []} for tree in trees}
    for r in range(args.rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            out = subprocess.run(
                [sys.executable, __file__, str(tree), "--worker", "--workload", args.workload,
                 "--seed", str(args.seed), "--passes", str(args.passes)],
                check=True, capture_output=True, text=True).stdout
            groups, loop_us, run_us = json.loads(out.splitlines()[-1])
            result[tree.name]["loop_us"].append(round(loop_us, 2))
            result[tree.name]["run_us"].append(round(run_us, 2))
            for group, row in groups.items():
                figures = [key for key in row if key != "ticks"]
                entry = result[tree.name]["groups"].setdefault(
                    group, {"ticks": row["ticks"], **{key: [] for key in figures}})
                for key in figures:
                    entry[key].append(round(row[key], 2))
            print(f"round {r} {tree.name}: done", file=sys.stderr)
    print(json.dumps({
        "method": "tools/tick_split.py: perf_counter wrappers around Plant.measure, "
                  "Controller.step and Plant.step, ticks grouped by start phase, "
                  "post-abort ticks and trigger ticks apart, in-flight Swing ticks by "
                  "retarget, replan and terminal, and run_scenario's inner "
                  "loop timed per call as Standing/loop (us per tick); min over passes of the "
                  "mean per tick and of the slowest tick; "
                  "loop_us is run_scenario time per tick minus the wrapped time; "
                  "run_us is the unwrapped run_scenario time per tick, timed after",
        "workload": args.workload, "seed": args.seed, "passes": args.passes,
        "rounds": args.rounds, "trees": result,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
