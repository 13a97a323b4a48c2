"""``run_scenario``'s per-tick loop against a reference loop on the public API.

The reference steps the same ``Plant`` and ``Controller`` one tick at a
time, builds every ``Measurement`` and ``Command`` through the NamedTuple
constructors and logs each row with a numpy row assignment from a list.
Its controller tick is ``oracle_utils.reference_control``, which writes
out the ``Standing``, ``Landed`` and ``Captured`` ticks that
``run_scenario``'s stance loop runs.  ``run_scenario`` must give the same
trace bit for bit: signed zeros and NaN payloads count, so the float
columns are compared as ``int64`` views.  The cases run pushes and wearer
pulses through the stance loop, leave it at each of its exits (a trigger,
with one and with two debounce cycles, after isolated outside samples,
and a chained step) and run it on a landed leg that still moves: after a
recovered step, after a chained step, around wearer pulses, and up to a
second push's trigger.
"""

import math

import numpy as np
import pytest

from exorecover import HumanPulse, PushEvent, ScenarioConfig, run_scenario, simulation
from exorecover.simulation import _LOG_COLUMNS, Command, Controller, Measurement, Plant

from oracle_utils import reference_control

MASS = 70.0
OMEGA = math.sqrt(9.81 / 0.88)
FORWARD_012 = PushEvent(0.3, (0.12 * MASS * OMEGA, 0.0))
#: Pushes at 1.2 s, after FORWARD_012's step is captured (0.807 s), that
#: trigger while the landed leg still moves: a lateral one steps, a forward
#: one aborts on the swing start pose.
LATERAL_AFTER = PushEvent(1.2, (0.0, 0.1 * MASS * OMEGA))
FORWARD_AFTER = PushEvent(1.2, (0.1 * MASS * OMEGA, 0.0))
#: Noisy standing on a sway ellipse narrow enough for the noise to leave it.
NOISY_TIGHT = dict(duration=1.0, attitude_noise_deg=0.2, seed=7)


def reference_tick(plant, controller, log, phases, k):
    """Tick ``k`` through the public API, logged as row ``k`` of ``log``."""
    t = k * plant.dt
    meas = Measurement(*plant.measure(t))
    command = Command(*reference_control(controller, meas, t))
    (x, y), (vx, vy), omega = plant.com, plant.vel, plant.omega
    log[k] = [t, x, y, vx, vy, x + vx / omega, y + vy / omega, *command.cop,
              *controller.foot_point, *controller.q_des, *controller.q, *command.torque]
    phases.append(controller.detector.phase.value)
    plant.step(command, t)


def reference_run(config):
    """``(columns, phases, events)`` of ``config``, stepped through the public API."""
    config.validate()
    n_rows = int(round(config.duration / config.dt))
    events = []
    plant = Plant(config, events, n_rows)
    controller = Controller(config, events, plant.q)
    log = np.empty((n_rows, 21))
    phases = []
    for k in range(n_rows):
        reference_tick(plant, controller, log, phases, k)
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
    # Pushes too small to trigger: the loop applies them and runs on.
    "pushes_inside_the_ellipse": ScenarioConfig(
        duration=0.8, attitude_noise_deg=0.1, seed=2,
        pushes=(PushEvent(0.2, (0.02 * MASS * OMEGA, 0.0)), PushEvent(0.2, (0.0, -0.01 * MASS * OMEGA)),
                PushEvent(0.45, (-0.03 * MASS * OMEGA, 0.0)))),
    # Wearer pulses of zero torque: the loop integrates the leg in each
    # window and after it; the push then steps.
    "zero_pulse_windows": ScenarioConfig(
        duration=1.2, pushes=(FORWARD_012,),
        human_pulses=(HumanPulse(joint=1, start=0.05, end=0.08, torque=0.0),
                      HumanPulse(joint=2, start=0.2, end=0.25, torque=0.0))),
    # The noise fires the trigger inside the loop: at the first outside
    # sample with one debounce cycle, after isolated outside samples with two.
    "noisy_trigger_debounce_1": ScenarioConfig(
        **NOISY_TIGHT, ellipse_a=0.006, ellipse_b=0.006, debounce_cycles=1),
    "noisy_trigger_debounce_2": ScenarioConfig(
        **NOISY_TIGHT, ellipse_a=0.006, ellipse_b=0.006, debounce_cycles=2),
    # Outside samples, none three in a row: the count resets and never fires.
    "isolated_outside_samples": ScenarioConfig(
        **NOISY_TIGHT, ellipse_a=0.008, ellipse_b=0.008, debounce_cycles=3),
    # The leg that landed at 0.606 s still moves under zero torque through
    # the Standing ticks after the capture, with the sensor noise on.
    "landed_leg_moves": ScenarioConfig(duration=1.6, attitude_noise_deg=0.05, seed=4,
                                       pushes=(FORWARD_012,)),
    # A second push triggers in the loop while the planted leg moves.
    "second_push_steps": ScenarioConfig(duration=1.5, pushes=(FORWARD_012, LATERAL_AFTER)),
    "second_push_aborts": ScenarioConfig(duration=1.3, pushes=(FORWARD_012, FORWARD_AFTER)),
    # A lateral push chains a second step on the first Landed tick; the loop
    # takes the ticks after its capture, and the drift fires the trigger in
    # it at 1.557 s.
    "chained_step": ScenarioConfig(duration=1.7, pushes=(PushEvent(0.3, (0.0, 0.15 * MASS * OMEGA)),)),
    # Wearer pulses after touchdown: one from Landed into Standing, one in
    # Standing; the loop runs both windows.
    "pulses_after_touchdown": ScenarioConfig(
        duration=1.3, pushes=(FORWARD_012,),
        human_pulses=(HumanPulse(joint=2, start=0.7, end=0.85, torque=0.5),
                      HumanPulse(joint=1, start=1.0, end=1.1, torque=-0.5))),
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
        "pushes_inside_the_ellipse": {"PushApplied"},
        "zero_pulse_windows": {"PushApplied", "BalanceLost", "PlanIssued", "TouchDown"},
        "noisy_trigger_debounce_1": {"BalanceLost", "PlanIssued"},
        "noisy_trigger_debounce_2": {"BalanceLost", "PlanIssued"},
        "isolated_outside_samples": set(),
        "landed_leg_moves": {"PushApplied", "BalanceLost", "PlanIssued", "TouchDown", "Captured"},
        "second_push_steps": {"PushApplied", "BalanceLost", "PlanIssued", "TouchDown", "Captured"},
        "second_push_aborts": {"PushApplied", "BalanceLost", "PlanIssued", "TouchDown", "Captured",
                               "StepAborted"},
        "chained_step": {"PushApplied", "BalanceLost", "PlanIssued", "TouchDown", "Captured",
                         "StepAborted"},
        "pulses_after_touchdown": {"PushApplied", "BalanceLost", "PlanIssued", "TouchDown",
                                   "Captured"},
    }[name]
    assert expected <= kinds
    if name in ("pushes_inside_the_ellipse", "isolated_outside_samples"):
        assert "BalanceLost" not in kinds


def outside_standing_samples(name):
    """How many rows of case ``name`` before it first leaves ``Standing``
    log a CoP outside the sway ellipse about the origin; the CoP is the DCM
    estimate wherever the support box leaves it, as it does in these cases."""
    config = CASES[name]
    trace = run_scenario(config)
    first = trace.phase.index("SteppingPlanned") if "SteppingPlanned" in trace.phase else None
    (x, y) = trace.cop[:first].T
    return int((((x / config.ellipse_a) ** 2 + (y / config.ellipse_b) ** 2) > 1.0).sum())


def test_the_trigger_cases_see_isolated_outside_samples_first():
    """The two-cycle trigger and the three-cycle case log outside samples
    on ``Standing`` rows, which reset the count; the one-cycle trigger
    fires at its first."""
    assert outside_standing_samples("noisy_trigger_debounce_1") == 0
    assert outside_standing_samples("noisy_trigger_debounce_2") > 0
    assert outside_standing_samples("isolated_outside_samples") > 0


def test_the_pulse_moves_the_standing_leg_before_the_trigger():
    """The zero-torque case integrates the planted leg while standing, so
    it exercises the wearer torque on a standing leg, not only the idle torque."""
    trace = run_scenario(CASES["zero_torque_pulse_before_trigger"])
    standing = np.array([phase == "Standing" for phase in trace.phase])
    q_hip = trace.joint_measured[standing, 1]
    assert np.ptp(q_hip[100:300]) > 0.0
    assert q_hip[0] == q_hip[99]


def test_the_per_tick_calls_run_once_per_tick(monkeypatch):
    """Each tick runs exactly once: either in ``run_scenario``'s stance
    loop or through ``Plant.measure``, ``Controller.step`` and
    ``Plant.step``.  A tick whose sample fires the trigger or chains a
    step in the loop is finished by ``Controller._trigger`` or
    ``Controller._chain`` and integrated by ``Plant.step``.  No tick that
    starts in ``Standing``, ``Landed`` or ``Captured`` reaches
    ``Plant.measure`` or ``Controller.step``.  The sensor function and
    ``step_lipm`` run once per row, so a doubled or skipped tick on either
    side shows.  No call of the loop runs no tick unless its first tick
    plans a step: push ticks and pulse windows do not leave it."""
    for name, config in sorted(CASES.items()):
        calls = {key: [] for key in ("measure", "control", "integrate", "loop", "finished")}
        for owner, attr, key in ((Plant, "measure", "measure"), (Controller, "step", "control"),
                                 (Plant, "step", "integrate")):
            original = getattr(owner, attr)

            def counted(self, *args, _original=original, _key=key):
                calls[_key].append(round(args[-1] / config.dt))
                return _original(self, *args)

            monkeypatch.setattr(owner, attr, counted)
        counts = dict.fromkeys(("sensor", "step_lipm"), 0)
        for attr, key in (("_sensed_com", "sensor"), ("step_lipm", "step_lipm")):
            def once(*args, _original=getattr(simulation, attr), _key=key):
                counts[_key] += 1
                return _original(*args)

            monkeypatch.setattr(simulation, attr, once)
        stance, empty = simulation._run_stance, []

        def in_stance(plant, controller, k, *args):
            end, command = stance(plant, controller, k, *args)
            calls["loop"].extend(range(k, end))
            if command is not None:
                calls["finished"].append(end)
            elif end == k:
                empty.append(k)
            return end, command

        monkeypatch.setattr(simulation, "_run_stance", in_stance)
        trace = run_scenario(config)
        monkeypatch.undo()
        rows = len(trace.t)
        every = list(range(rows))
        loop, finished = calls["loop"], calls["finished"]
        assert counts == {"sensor": rows, "step_lipm": rows}, name
        assert sorted(calls["measure"] + loop + finished) == every, name
        assert sorted(calls["control"] + loop + finished) == every, name
        assert sorted(calls["integrate"] + loop) == every, name
        assert loop and empty == [], name
        # A tick starts in the phase the row above logged.
        planted = [k for k in every if (trace.phase[k - 1] if k else "Standing")
                   in ("Standing", "Landed", "Captured")]
        assert sorted(loop + finished) == planted, name
        assert set(planted).isdisjoint(calls["measure"] + calls["control"]), name
        # One call of the loop runs each stretch, push ticks and pulse
        # windows included: from the start, and from the tick after the
        # touchdown (0.606 s) to the end of the run.
        starts = [k for k in loop if k - 1 not in loop]
        if name == "pushes_inside_the_ellipse":
            assert starts == [0], name
        elif name == "zero_pulse_windows":
            assert starts == [0, 607], name
        elif name == "pulses_after_touchdown":
            assert starts == [0, 607], name


def test_a_trigger_from_a_moving_leg_hands_over_its_joint_state(monkeypatch):
    """When a second push's trigger fires in the loop while the landed leg
    moves, ``Controller._trigger`` is handed the reference's
    ``Measurement``, the moving leg's angles, rates and torques included,
    and the controller holds the reference's joint state and CoP then.
    The cases' traces do not show all of it: a step that lifts replaces
    the controller's joint state before its row is logged."""
    seen, rates, in_loop, stance = [], [], [], simulation._run_stance
    trigger, inside = Controller._trigger, [False]

    def recording(self, meas, t, excursion):
        seen.append(repr((t, meas, excursion, self.q, self.qd, self.tau, self.cop)))
        rates.append(meas.qd)
        if inside[0]:
            in_loop.append(round(t / self.config.dt))
        return trigger(self, meas, t, excursion)

    def in_stance(*args):
        inside[0] = True
        try:
            return stance(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Controller, "_trigger", recording)
    monkeypatch.setattr(simulation, "_run_stance", in_stance)
    for name in ("second_push_steps", "second_push_aborts", "chained_step"):
        config = CASES[name]
        seen.clear()
        reference_run(config)
        want = list(seen)
        seen.clear()
        rates.clear()
        in_loop.clear()
        trace = run_scenario(config)
        assert seen == want and len(seen) == 2, name
        # Both _trigger calls come from the loop, the second with the leg moving.
        assert len(in_loop) == 2, name
        k = in_loop[1]
        assert trace.phase[k - 1] == "Standing" and trace.phase[k] == "SteppingPlanned", name
        # The first trigger's leg is at rest, its rates +0.0 (compared as
        # int64 bits); the second's moves.
        assert np.array(rates[0]).view(np.int64).tolist() == [0, 0, 0] and any(rates[1]), name


def test_an_at_rest_tick_is_the_reference_tick_at_the_clamps_edges():
    """One tick of the stance loop with the leg at rest leaves the row
    and the plant and controller state that one reference tick leaves, on
    states built for the ankle clamp's edge cases: a ``-0.0`` bound
    against a ``0.0`` DCM on each side of the box, a DCM on each bound (a
    tie gives the bound) and a NaN CoM."""
    config = ScenarioConfig()
    off = (0.01, -0.02)
    plant = Plant(config, [], 1)
    plant.com = off
    xi = plant.measure(0.0).xi
    states = [  # (com, support box (lo_x, hi_x, lo_y, hi_y)); the DCM is 0.0 at the origin
        ((0.0, 0.0), (-0.0, 0.1, -0.0, 0.1)),
        ((0.0, 0.0), (-0.1, -0.0, -0.1, -0.0)),
        ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
        (off, (xi[0], xi[0] + 0.1, xi[1] - 0.1, xi[1])),
        (off, (xi[0] - 0.1, xi[0], xi[1], xi[1] + 0.1)),
        ((math.nan, 0.0), (-0.1, 0.1, -0.1, 0.1)),
    ]
    for com, box in states:
        outcomes = []
        for in_loop in (True, False):
            plant = Plant(config, [], 1)
            controller = Controller(config, [], plant.q)
            plant.com, controller.support_box = com, box
            log, phases = np.zeros((1, 21)), []
            if in_loop:
                assert simulation._run_stance(
                    plant, controller, 0, 1, memoryview(log).cast("B"), phases) == (1, None)
            else:
                reference_tick(plant, controller, log, phases, 0)
            outcomes.append((log.tobytes(), phases, repr((plant.com, plant.vel, plant.q, plant.tau)),
                             repr((controller.cop, controller.q, controller.qd, controller.tau))))
        assert outcomes[0] == outcomes[1], (com, box)
