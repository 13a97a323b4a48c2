"""tools/tick_split.py: the per-tick split covers every tick of a run once."""

import gc
import importlib.util
import math
from pathlib import Path

from exorecover import PushEvent, ScenarioConfig, run_scenario, simulation
from exorecover.simulation import Controller, Plant

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tick_split.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("tick_split", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOOP = "Standing/loop"


def rows_of(configs) -> int:
    return sum(len(run_scenario(config).t) for config in configs)


def test_tick_counts_sum_to_the_rows():
    """Over a recovered push and a push whose step aborts on a hip-flexion
    limit, each 0.5 s, the groups' tick counts sum to the trace rows, every
    tick that starts in ``Standing``, ``Landed`` or ``Captured`` is in the
    loop's own group (the push ticks and the recovered step's ``Landed``
    ticks included) but for each run's trigger tick (fired in the loop, the
    tick after the push), which is in the ``trigger`` group, the ticks
    after the abort are grouped apart, no general-path ``Standing`` group is
    left, and every wrapped function is unwrapped after."""
    push = PushEvent(0.1, (0.12 * 70.0 * math.sqrt(9.81 / 0.88), 0.0))
    configs = [ScenarioConfig(duration=0.5, pushes=(push,)),
               ScenarioConfig(duration=0.5, pushes=(push,), hip_flex_limits_deg=(-20.0, 15.0))]
    originals = (Plant.measure, Controller.step, Plant.step, Controller._trigger,
                 Controller._chain, simulation._run_stance)
    split = load_tool().split_ticks(configs, passes=2)
    assert (Plant.measure, Controller.step, Plant.step, Controller._trigger,
            Controller._chain, simulation._run_stance) == originals
    rows = rows_of(configs)
    assert rows == 1000
    assert sum(group["ticks"] for group in split.values()) == rows
    assert {LOOP, "Swing/replan", "Swing/aborted", "trigger"} <= set(split)
    assert not {"Standing", "Landed", "Captured"} & set(split)
    assert split["trigger"]["ticks"] == 2 and split[LOOP]["ticks"] == planted_ticks(configs) - 2 == 295
    assert split[LOOP]["us"] > 0.0
    for name, group in split.items():
        if name != LOOP:
            assert group["controller_us"] > 0.0 and group["plant_us"] > 0.0
            assert group["controller_max_us"] >= group["controller_us"]


def planted_ticks(configs) -> int:
    """The ticks of ``configs``' runs that start in ``Standing``, ``Landed``
    or ``Captured``; a tick starts in the phase the row above logged."""
    planted = ("Standing", "Landed", "Captured")
    return sum(sum(1 for k in range(len(trace.t)) if (trace.phase[k - 1] if k else "Standing") in planted)
               for trace in map(run_scenario, configs))


def test_the_loop_cost_outside_the_wrappers_is_reported():
    """``loop_us``, the run's time per tick that no wrapper sees (the log
    row, the orchestration), is finite and positive, next to the same
    per-group split ``split_ticks`` reports."""
    configs = [ScenarioConfig(duration=0.3, attitude_noise_deg=0.2, seed=3)]
    groups, loop_us = load_tool().split_loop(configs, passes=2)
    assert math.isfinite(loop_us) and loop_us > 0.0
    assert set(groups) == {LOOP} and groups[LOOP]["ticks"] == rows_of(configs) == 300


def test_the_unwrapped_run_is_timed_below_the_wrapped_split():
    """``run_us``, the run's time per tick once the wrappers are gone, is
    positive and below the wrapped controller, plant, stance loop and
    loop times per tick summed, since the wrappers' own cost is in those.
    The stance loop is wrapped once per call, not per tick, so the run is
    a noisy push at 0.1 s whose step aborts on a hip-flexion limit: the
    loop runs the 101 ticks up to the trigger, and the 899 ticks from the
    trigger on pay the per-tick wrappers.
    The wrapped and unwrapped passes interleave, each after a
    ``gc.collect()``, so a drift in the machine's load or a collection
    lands on both sides; each figure is the minimum over the passes, as
    ``split_loop`` takes it."""
    push = PushEvent(0.1, (0.12 * 70.0 * math.sqrt(9.81 / 0.88), 0.0))
    configs = [ScenarioConfig(duration=1.0, attitude_noise_deg=0.2, seed=3, pushes=(push,),
                              hip_flex_limits_deg=(-20.0, 15.0))]
    tool = load_tool()
    groups, loop_us, run_us = {}, math.inf, math.inf
    for _ in range(6):
        gc.collect()
        split, loop = tool.split_loop(configs, passes=1)
        loop_us = min(loop_us, loop)
        for name, group in split.items():
            best = groups.setdefault(name, dict(group))
            for key in ("us",) if name == LOOP else ("controller_us", "plant_us"):
                best[key] = min(best[key], group[key])
        gc.collect()
        run_us = min(run_us, tool.unwrapped_us(configs, passes=1))
    ticks = sum(group["ticks"] for group in groups.values())
    assert ticks == rows_of(configs) and groups[LOOP]["ticks"] == planted_ticks(configs) - 1 == 101
    assert "Standing" not in groups and groups["Swing/aborted"]["ticks"] == 855
    wrapped = sum(group["ticks"] * (group["us"] if name == LOOP
                                    else group["controller_us"] + group["plant_us"])
                  for name, group in groups.items()) / ticks + loop_us
    assert 0.0 < run_us < wrapped


def test_in_flight_ticks_are_split_by_what_the_controller_did():
    """Over a forward push, a mid-swing shove and a step that aborts on a
    hip-flexion limit, the ``Swing/retarget``, ``Swing/replan`` and
    ``Swing/terminal`` groups sum to the ticks that start in ``Swing`` with
    the step still in flight, and ``Swing/retarget`` counts the runs'
    ``Replanned`` events."""
    omega_m = 70.0 * math.sqrt(9.81 / 0.88)
    forward = PushEvent(0.1, (0.12 * omega_m, 0.0))
    shove = PushEvent(0.22, (0.0, 0.06 * omega_m))
    configs = [ScenarioConfig(duration=1.0, pushes=(forward,)),
               ScenarioConfig(duration=1.0, pushes=(forward, shove)),
               ScenarioConfig(duration=1.0, pushes=(forward,), hip_flex_limits_deg=(-20.0, 15.0))]
    split = load_tool().split_ticks(configs, passes=1)
    assert sum(group["ticks"] for group in split.values()) == rows_of(configs)
    in_flight = replanned = 0
    for config in configs:
        trace = run_scenario(config)
        aborts = [e.time for e in trace.events if e.kind == "StepAborted"]
        last = aborts[0] if aborts else math.inf
        # A tick starts in the phase the row above logged.
        in_flight += sum(1 for k in range(1, len(trace.t))
                         if trace.phase[k - 1] == "Swing" and trace.t[k] <= last)
        replanned += sum(1 for e in trace.events if e.kind == "Replanned")
    kinds = ("Swing/retarget", "Swing/replan", "Swing/terminal")
    assert "Swing" not in split and set(kinds) <= set(split)
    assert sum(split[kind]["ticks"] for kind in kinds) == in_flight
    assert split["Swing/retarget"]["ticks"] == replanned > 0
