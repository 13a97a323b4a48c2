"""``run_scenario``'s per-tick loop against a reference loop on the public API.

The reference steps the same ``Plant`` and ``Controller`` one tick at a
time, builds every ``Measurement`` and ``Command`` through the NamedTuple
constructors and logs each row with a numpy row assignment from a list.
``run_scenario`` must give the same trace bit for bit: signed zeros and
NaN payloads count, so the float columns are compared as ``int64`` views.
"""

import math

import numpy as np
import pytest

from exorecover import HumanPulse, PushEvent, ScenarioConfig, run_scenario
from exorecover.simulation import _LOG_COLUMNS, Command, Controller, Measurement, Plant

MASS = 70.0
OMEGA = math.sqrt(9.81 / 0.88)
FORWARD_012 = PushEvent(0.3, (0.12 * MASS * OMEGA, 0.0))


def reference_run(config):
    """``(columns, phases, events)`` of ``config``, stepped through the public API."""
    config.validate()
    n_rows = int(round(config.duration / config.dt))
    events = []
    plant = Plant(config, events, n_rows)
    controller = Controller(config, events, plant.q)
    omega = plant.params.omega
    log = np.empty((n_rows, 21))
    phases = []
    for k in range(n_rows):
        t = k * config.dt
        meas = Measurement(*plant.measure(t))
        command = Command(*controller.step(meas, t))
        (x, y), (vx, vy) = plant.com, plant.vel
        log[k] = [t, x, y, vx, vy, x + vx / omega, y + vy / omega, *command.cop,
                  *controller.foot_point, *controller.q_des, *controller.q, *command.torque]
        phases.append(controller.detector.phase.value)
        plant.step(command, t)
    return {name: log[:, col] for name, col in _LOG_COLUMNS.items()}, phases, events


CASES = {
    "noisy_standing": ScenarioConfig(duration=1.5, attitude_noise_deg=0.2, seed=3),
    "forward_push_012": ScenarioConfig(duration=1.5, pushes=(FORWARD_012,)),
    # The wearer's pulse acts on the planted leg before the push triggers a step.
    "zero_torque_pulse_before_trigger": ScenarioConfig(
        duration=1.2, mode="zero_torque", pushes=(FORWARD_012,),
        human_pulses=(HumanPulse(joint=1, start=0.1, end=0.2, torque=1.5),)),
    "aborting_push": ScenarioConfig(duration=1.2, pushes=(FORWARD_012,),
                                    hip_flex_limits_deg=(-20.0, 15.0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_scenario_is_the_reference_loop_bit_for_bit(name):
    config = CASES[name]
    columns, phases, events = reference_run(config)
    trace = run_scenario(config)
    for field, want in columns.items():
        got = getattr(trace, field)
        assert got.dtype == np.float64 and got.shape == want.shape, field
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), field
    assert trace.phase == phases
    assert trace.events == events
    kinds = {event.kind for event in events}
    expected = {
        "noisy_standing": set(),
        "forward_push_012": {"PushApplied", "BalanceLost", "PlanIssued", "TouchDown", "Captured"},
        "zero_torque_pulse_before_trigger": {"PushApplied", "BalanceLost", "PlanIssued"},
        "aborting_push": {"PushApplied", "BalanceLost", "PlanIssued", "StepAborted"},
    }[name]
    assert expected <= kinds


def test_the_pulse_moves_the_standing_leg_before_the_trigger():
    """The zero-torque case integrates the planted leg while standing, so
    it exercises the rest rule's wearer-torque test, not only its idle path."""
    trace = run_scenario(CASES["zero_torque_pulse_before_trigger"])
    standing = np.array([phase == "Standing" for phase in trace.phase])
    q_hip = trace.joint_measured[standing, 1]
    assert np.ptp(q_hip[100:300]) > 0.0
    assert q_hip[0] == q_hip[99]


def test_the_per_tick_calls_run_once_per_tick(monkeypatch):
    """``Plant.measure``, ``Controller.step`` and ``Plant.step`` each run
    once per tick, on a push that steps and on one that aborts."""
    for config in (CASES["forward_push_012"], CASES["aborting_push"]):
        counts = dict.fromkeys(("measure", "control", "integrate"), 0)
        for cls, attr, key in ((Plant, "measure", "measure"), (Controller, "step", "control"),
                               (Plant, "step", "integrate")):
            original = getattr(cls, attr)

            def counted(self, *args, _original=original, _key=key):
                counts[_key] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, attr, counted)
        rows = len(run_scenario(config).t)
        monkeypatch.undo()
        assert counts == dict.fromkeys(counts, rows)
