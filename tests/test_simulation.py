"""Closed-loop scenario tests: measurement, phase flow, recovery outcomes."""

import dataclasses
import itertools
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from exorecover import (
    ConfigurationError,
    Event,
    HumanPulse,
    ImpedanceGains,
    PushEvent,
    ScenarioConfig,
    SimTrace,
    ankle_clamp,
    estimate_com,
    run_scenario,
    summarize,
)
from exorecover.simulation import Plant

MASS = 70.0
OMEGA = math.sqrt(9.81 / 0.88)  # default scenario pendulum frequency


def push_for_excursion(exc_x, exc_y, t=0.5):
    """Impulse that shifts the default wearer's DCM by (exc_x, exc_y)."""
    return PushEvent(t, [exc_x * MASS * OMEGA, exc_y * MASS * OMEGA])


def events_of(trace, kind):
    return [e for e in trace.events if e.kind == kind]


# --------------------------------------------------------------------------
# measurement pathway and small helpers


def test_estimate_com_inverts_the_attitude_pathway():
    L = 0.88
    rng = np.random.default_rng(411)
    for _ in range(200):
        com = rng.uniform(-0.8, 0.8, size=2) * L
        back = estimate_com(math.asin(com[1] / L), math.asin(com[0] / L), L)
        assert np.allclose(back, com, rtol=0.0, atol=1e-12)

    flat = estimate_com(0.0, 0.0, L)
    assert flat[0] == 0.0 and flat[1] == 0.0
    tilted = estimate_com(0.0, 0.1, L)
    assert tilted[0] == pytest.approx(L * math.sin(0.1), abs=1e-15)
    assert tilted[1] == 0.0


def test_push_event_and_human_pulse_validation():
    PushEvent(0.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        PushEvent(-0.1, [1.0, 0.0])
    with pytest.raises(ValueError):
        PushEvent(0.5, [1.0, 0.0, 0.0])

    HumanPulse(joint=2, start=0.1, end=0.2, torque=-3.0)
    with pytest.raises(ValueError):
        HumanPulse(joint=3, start=0.1, end=0.2, torque=1.0)
    with pytest.raises(ValueError):
        HumanPulse(joint=0, start=0.2, end=0.2, torque=1.0)
    with pytest.raises(ValueError):
        HumanPulse(joint=0, start=-0.1, end=0.2, torque=1.0)


def test_ankle_clamp_boxes_the_dcm():
    center = np.array([0.3, -0.1])
    half = np.array([0.10, 0.06])

    inside = np.array([0.35, -0.08])
    assert np.array_equal(ankle_clamp(inside, center, half), inside)

    far = ankle_clamp(np.array([0.9, -0.5]), center, half)
    assert np.array_equal(far, center + half * [1, -1])

    one_axis = ankle_clamp(np.array([0.05, -0.1]), center, half)
    assert np.array_equal(one_axis, [center[0] - half[0], -0.1])

    pinned = ankle_clamp(np.array([9.0, 9.0]), center, np.zeros(2))
    assert np.array_equal(pinned, center)


def test_ankle_clamp_is_np_clip_bit_for_bit():
    """The float clamp returns np.clip's bits over random points, the box
    edges and signed zeros, where ``min(max(x, lo), hi)`` would not."""

    def reference(xi, center, half):
        center, half = np.array(center), np.array(half)
        return np.clip(np.array(xi), center - half, center + half)

    def check(xi, center, half):
        out = ankle_clamp(xi, center, half)
        assert all(type(v) is float for v in out)
        assert np.array(out).tobytes() == reference(xi, center, half).tobytes(), (xi, center, half)

    rng = np.random.default_rng(53)
    for _ in range(2000):
        center = rng.uniform(-0.3, 0.3, 2).tolist()
        half = rng.uniform(0.0, 0.2, 2).tolist()
        check(rng.uniform(-0.6, 0.6, 2).tolist(), center, half)
        lo, hi = reference([-1.0, -1.0], center, half), reference([1.0, 1.0], center, half)
        check(lo.tolist(), center, half)
        check(hi.tolist(), center, half)
    signed = (0.0, -0.0, 0.1, -0.1)
    for x, y, cx, cy, hx in itertools.product(signed, repeat=5):
        for hy in (0.0, -0.0, 0.1):
            check([x, y], [cx, cy], [abs(hx), hy])


# --------------------------------------------------------------------------
# configuration


def test_config_validation_collects_every_error():
    cfg = ScenarioConfig(
        gravity=-9.81,
        mass=0.0,
        dt=0.02,
        torque_kp=-0.1,
        mode="hover",
        duration=3.0,
        pushes=(PushEvent(5.0, [1.0, 0.0]),),
    )
    with pytest.raises(ConfigurationError) as err:
        cfg.validate()
    msg = str(err.value)
    for fragment in ("gravity", "mass", "dt", "torque_kp", "mode", "push 0"):
        assert fragment in msg


NUMERIC_FIELDS = [
    f for f in dataclasses.fields(ScenarioConfig) if "key" in f.metadata and f.name != "mode"
]


@pytest.mark.parametrize("name", [f.name for f in NUMERIC_FIELDS])
def test_config_rejects_non_finite_numbers(name):
    default = getattr(ScenarioConfig(), name)
    for bad in (math.inf, -math.inf, math.nan):
        value = (bad,) + default[1:] if isinstance(default, tuple) else bad
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            ScenarioConfig(**{name: value}).validate()


def test_config_helper_resolution():
    cfg = ScenarioConfig()
    assert cfg.resolved_stance_width() == pytest.approx(2 * (cfg.l0 + cfg.l1))
    assert ScenarioConfig(stance_width=0.3).resolved_stance_width() == 0.3

    params = cfg.lipm_params()
    assert params.omega == pytest.approx(OMEGA, abs=1e-15)

    gait = cfg.nominal_gait()
    assert np.array_equal(gait.cop_T_nom, cfg.cop_nom)
    assert np.array_equal(gait.gamma_nom, cfg.gamma_nom)
    assert gait.T_nom == cfg.t_nom
    assert tuple(gait.weights) == tuple(cfg.weights)

    bounds = cfg.step_bounds()
    assert np.array_equal(bounds.cop_min, cfg.cop_min)
    assert np.array_equal(bounds.cop_max, cfg.cop_max)
    assert (bounds.T_min, bounds.T_max) == (cfg.t_min, cfg.t_max)


# --------------------------------------------------------------------------
# quiet standing and sub-threshold pushes


def test_quiet_standing_stays_put():
    trace = run_scenario(ScenarioConfig(duration=0.5))
    n = round(0.5 / 0.001)
    assert trace.t.shape == (n,)
    assert trace.events == []
    assert set(trace.phase) == {"Standing"}
    assert float(np.max(np.abs(trace.com))) == 0.0
    assert float(np.max(np.abs(trace.xi))) == 0.0
    assert float(np.max(np.abs(trace.cop))) == 0.0
    assert float(np.max(np.abs(trace.torque))) == 0.0


def test_small_push_held_by_ankle_strategy():
    # A 0.04 m DCM excursion stays inside the 0.05 m sway ellipse; the
    # standing CoP regulation pins it without a step.
    trace = run_scenario(
        ScenarioConfig(pushes=(push_for_excursion(0.04, 0.0, t=0.2),), duration=1.5)
    )
    assert [e.kind for e in trace.events] == ["PushApplied"]
    assert set(trace.phase) == {"Standing"}
    assert float(np.max(np.abs(trace.xi[:, 0]))) < 0.05
    # After the push the clamp holds the DCM where it stopped.
    assert float(np.max(np.abs(trace.xi[300:, 0] - trace.xi[300, 0]))) < 1e-9
    summary = summarize(trace)
    assert not summary.step_taken and summary.num_steps == 0


def test_summary_scalars_are_float_sums():
    """final_dcm_offset and the landing angle equal the Python-float formulas
    bit for bit, so summary.txt does not depend on the BLAS build."""
    rng = np.random.default_rng(29)
    config = ScenarioConfig()
    z2, z3 = np.zeros((1, 2)), np.zeros((1, 3))
    for _ in range(2000):
        xi, cop, start, planned, landed = rng.uniform(-0.4, 0.4, size=(5, 2)).tolist()
        events = [
            Event(0.5, "PlanIssued", {"swing": "right"}),
            Event(0.8, "TouchDown", {"swing_start": start, "initial_planned": planned,
                                     "landed": landed, "trigger_time": 0.5}),
        ]
        trace = SimTrace(t=np.zeros(1), com=z2, com_vel=z2, xi=np.array([xi]),
                         cop=np.array([cop]), phase=["Landed"], foot=z3, joint_desired=z3,
                         joint_measured=z3, torque=z3, events=events, config=config)
        summary = summarize(trace)

        dx, dy = xi[0] - cop[0], xi[1] - cop[1]
        assert summary.final_dcm_offset == math.sqrt(dx * dx + dy * dy)
        vx, vy = planned[0] - start[0], planned[1] - start[1]
        wx, wy = landed[0] - start[0], landed[1] - start[1]
        assert summary.planned_vs_landed_angle_deg == math.degrees(
            math.atan2(vx * wy - vy * wx, vx * wx + vy * wy))


# --------------------------------------------------------------------------
# single forward step


def forward_push_trace():
    return run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),)))


def test_forward_push_recovers_in_one_step():
    trace = forward_push_trace()
    summary = summarize(trace)

    assert summary.step_taken and summary.num_steps == 1
    assert summary.captured and not summary.aborted
    assert summary.swing_side == "right"
    assert summary.trigger_time == pytest.approx(0.501, abs=1e-12)
    assert 0.7 < summary.touchdown_time < 0.95
    assert summary.capture_time - summary.touchdown_time <= 0.5
    assert summary.step_duration == pytest.approx(
        summary.touchdown_time - summary.trigger_time, abs=1e-12
    )

    kinds = [e.kind for e in trace.events]
    assert kinds[0] == "PushApplied"
    assert kinds[1] == "BalanceLost"
    assert kinds[2] == "PlanIssued"
    assert kinds[-2] == "TouchDown"
    assert kinds[-1] == "Captured"
    assert set(kinds[3:-2]) <= {"Replanned"}

    # After touchdown the CoP lives inside the landed foot's rectangle.
    landed = np.asarray(events_of(trace, "TouchDown")[0].payload["landed"])
    k_td = int(round(summary.touchdown_time / trace.config.dt))
    for k in range(k_td + 1, len(trace.t)):
        if trace.phase[k] != "Landed":
            break
        assert abs(trace.cop[k, 0] - landed[0]) <= trace.config.foot_half_x + 1e-12
        assert abs(trace.cop[k, 1] - landed[1]) <= trace.config.foot_half_y + 1e-12

    assert summary.final_dcm_offset < 1e-8
    assert trace.phase[-1] == "Standing"


def test_phase_sequence_follows_the_machine():
    trace = forward_push_trace()
    allowed = {
        ("Standing", "SteppingPlanned"),
        ("SteppingPlanned", "Swing"),
        ("Swing", "Landed"),
        ("Landed", "Captured"),
        ("Landed", "SteppingPlanned"),
        ("Captured", "Standing"),
    }
    seen = {
        (a, b) for a, b in zip(trace.phase, trace.phase[1:]) if a != b
    }
    assert seen <= allowed
    # The full cycle actually happened.
    assert seen >= {
        ("Standing", "SteppingPlanned"),
        ("SteppingPlanned", "Swing"),
        ("Swing", "Landed"),
        ("Landed", "Captured"),
        ("Captured", "Standing"),
    }


def test_event_payloads_serialize_to_json():
    trace = run_scenario(
        ScenarioConfig(
            pushes=(push_for_excursion(0.12, 0.0), push_for_excursion(0.0, 0.06, t=0.62)),
        )
    )
    for event in trace.events:
        rebuilt = json.loads(json.dumps(event.payload, sort_keys=True))
        assert set(rebuilt) == set(event.payload)


# --------------------------------------------------------------------------
# lateral pushes


def test_swing_side_matches_fall_side():
    # Falling to one side loads that leg; the opposite leg swings.
    left_fall = summarize(run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.0, 0.07),))))
    right_fall = summarize(run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.0, -0.07),))))

    assert left_fall.swing_side == "right"
    assert right_fall.swing_side == "left"
    assert left_fall.captured and right_fall.captured
    assert left_fall.num_steps == 1 and right_fall.num_steps == 1
    # The swing foot starts from its own home position.
    assert left_fall.swing_start == pytest.approx((0.0, -0.1), abs=1e-12)
    assert right_fall.swing_start == pytest.approx((0.0, 0.1), abs=1e-12)


def test_lateral_recovery_mirrors_exactly():
    plus = run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.0, 0.07),)))
    minus = run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.0, -0.07),)))
    flip = np.array([1.0, -1.0])

    assert np.array_equal(plus.com, minus.com * flip)
    assert np.array_equal(plus.xi, minus.xi * flip)
    assert np.array_equal(plus.cop, minus.cop * flip)
    # Abduction-positive joints and their torques are side-symmetric.
    assert np.array_equal(plus.joint_measured, minus.joint_measured)
    assert np.array_equal(plus.torque, minus.torque)
    assert plus.phase == minus.phase
    # The commanded foot mirrors once the step is under way.
    k_trig = int(round(summarize(plus).trigger_time / plus.config.dt))
    assert np.array_equal(
        plus.foot[k_trig:], minus.foot[k_trig:] * np.array([1.0, -1.0, 1.0])
    )


# --------------------------------------------------------------------------
# mid-swing replanning


def test_push_during_swing_triggers_material_replans():
    first = push_for_excursion(0.12, 0.0)
    nudge = push_for_excursion(0.0, 0.06, t=0.62)

    ref = run_scenario(ScenarioConfig(pushes=(first,)))
    bumped = run_scenario(ScenarioConfig(pushes=(first, nudge)))

    replans = events_of(bumped, "Replanned")
    assert any(e.time >= 0.62 for e in replans)
    remaining = [e.payload["remaining"] for e in replans]
    assert all(b <= a + 1e-12 for a, b in zip(remaining, remaining[1:]))

    td = events_of(bumped, "TouchDown")[0]
    shift = td.payload["landed"][1] - td.payload["initial_planned"][1]
    assert shift > 0.05  # landing moved toward the second push

    bumped_angle = summarize(bumped).planned_vs_landed_angle_deg
    ref_angle = summarize(ref).planned_vs_landed_angle_deg
    assert bumped_angle > ref_angle + 5.0


def test_control_loop_does_not_call_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the control loop called LAPACK")

    for name in ("svd", "lstsq", "cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    forward, lateral = push_for_excursion(0.12, 0.0), push_for_excursion(0.0, 0.12)
    mid_swing = push_for_excursion(0.0, 0.06, t=0.62)
    for pushes in ((forward,), (lateral,), (forward, mid_swing)):
        trace = run_scenario(ScenarioConfig(pushes=pushes))
        assert events_of(trace, "TouchDown") and events_of(trace, "Replanned")
        assert not events_of(trace, "StepAborted")


def test_each_tick_steps_the_pendulum_once_and_each_joint_once(monkeypatch):
    """``step_lipm`` runs once per tick and ``joint_plant_step`` once per
    joint per tick, each through its module-level name, over a forward push
    (the spans of ``bench/spans.py`` time the tick by them)."""
    from exorecover.impedance import joint_plant_step
    from exorecover.lipm import step_lipm

    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "exorecover"]
    for module in modules:
        for name, fn in (("step_lipm", step_lipm), ("joint_plant_step", joint_plant_step)):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))

    trace = run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),), duration=2.0))
    assert events_of(trace, "TouchDown") and events_of(trace, "Captured")
    ticks = len(trace.t)
    assert counts == {"step_lipm": ticks, "joint_plant_step": 3 * ticks}


def test_noisy_readings_match_per_tick_draws(monkeypatch):
    """The noise drawn once per run reads as two scalar draws per tick: every
    CoM and DCM estimate of a noisy run equals, bit for bit, the array
    formula fed by per-tick ``rng.normal`` calls, before and after the
    attitude anchor moves at touchdown."""
    config = ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),),
                            attitude_noise_deg=0.2, seed=5, duration=2.0)
    readings = []
    measure = Plant.measure

    def recording(plant, t):
        meas = measure(plant, t)
        readings.append((plant.com, plant.vel, plant.anchor, meas.com, meas.xi))
        return meas

    monkeypatch.setattr(Plant, "measure", recording)
    trace = run_scenario(config)
    assert events_of(trace, "TouchDown") and len(readings) == len(trace.t)
    assert len({anchor for _, _, anchor, _, _ in readings}) == 2

    rng = np.random.default_rng(config.seed)
    std = config.attitude_noise_deg * math.pi / 180.0
    L, omega = config.com_height, config.lipm_params().omega
    lim = 0.5 * math.pi - 1e-9
    for com, vel, anchor, com_hat, xi_hat in readings:
        scaled = np.clip((np.array(com) - anchor) / L, -1.0 + 1e-12, 1.0 - 1e-12)
        pitch = min(max(math.asin(scaled[0]) + rng.normal(0.0, std), -lim), lim)
        roll = min(max(math.asin(scaled[1]) + rng.normal(0.0, std), -lim), lim)
        ref_com = np.array(anchor) + np.array([L * math.sin(pitch), L * math.sin(roll)])
        ref_xi = ref_com + np.array(vel) / omega
        assert com_hat.tobytes() == ref_com.tobytes()
        assert xi_hat.tobytes() == ref_xi.tobytes()


def test_control_loop_checks_inputs_once(monkeypatch):
    """No per-tick call re-checks the loop's own arrays.

    Every ``exorecover`` binding of ``as_vec2`` and ``_as_vec3`` is
    counted.  The forward push is captured before 2 s, so a third second
    adds only standing ticks and no ``as_vec2`` call; and a whole run
    calls ``_as_vec3`` only to build its impedance gains.
    """
    from exorecover.impedance import _as_vec3
    from exorecover.lipm import as_vec2

    counts = {"as_vec2": 0, "_as_vec3": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "exorecover"]
    for module in modules:
        for name, fn in (("as_vec2", as_vec2), ("_as_vec3", _as_vec3)):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))

    def calls(action):
        before = dict(counts)
        result = action()
        return result, {k: counts[k] - before[k] for k in counts}

    push = (push_for_excursion(0.12, 0.0),)
    short, short_calls = calls(lambda: run_scenario(ScenarioConfig(pushes=push, duration=2.0)))
    config = ScenarioConfig(pushes=push, duration=3.0)
    _, long_calls = calls(lambda: run_scenario(config))
    _, gain_calls = calls(lambda: ImpedanceGains.from_deg(config.stiffness_deg, config.damping))

    assert summarize(short).capture_time < 2.0
    assert long_calls["as_vec2"] == short_calls["as_vec2"]
    assert long_calls["_as_vec3"] == gain_calls["_as_vec3"] > 0


# --------------------------------------------------------------------------
# chaining, aborts, control modes


def test_chained_step_when_landing_box_too_small():
    # With the landing box cut to 0.18 m the first step cannot absorb a
    # 0.16 m DCM excursion; a second step with the trailing foot finishes
    # the recovery.
    trace = run_scenario(
        ScenarioConfig(
            pushes=(push_for_excursion(0.16, 0.0),),
            cop_max=(0.18, -0.04),
            duration=4.0,
        )
    )
    plans = events_of(trace, "PlanIssued")
    touchdowns = events_of(trace, "TouchDown")
    assert len(plans) == 2
    assert len(touchdowns) == 2
    assert plans[1].time > touchdowns[0].time  # second plan chains off the landing
    assert [p.payload["swing"] for p in plans] == ["right", "left"]

    summary = summarize(trace)
    assert summary.num_steps == 2
    assert summary.captured and not summary.aborted
    assert trace.phase[-1] == "Standing"


def test_unreachable_swing_target_aborts():
    trace = run_scenario(
        ScenarioConfig(
            pushes=(push_for_excursion(0.12, 0.0),),
            cop_min=(0.5, -0.21),
            cop_max=(0.52, -0.19),
            cop_nom=(0.51, -0.2),
        )
    )
    aborts = events_of(trace, "StepAborted")
    assert len(aborts) == 1
    assert "unreachable" in aborts[0].payload["reason"]
    # events.csv carries this string; pin it byte for byte.
    assert aborts[0].payload["reason"] == (
        "swing target unreachable: unreachable target "
        "[0.30282027203474327, -0.0033893789823797454, -0.8487467085585687]: "
        "target beyond full knee extension (knee cosine 1.00119)"
    )
    assert events_of(trace, "TouchDown") == []

    summary = summarize(trace)
    assert summary.aborted and summary.num_steps == 0 and not summary.captured

    # Actuation stops with the abort and the machine stays in Swing.
    k_abort = int(round(aborts[0].time / trace.config.dt))
    assert float(np.max(np.abs(trace.torque[k_abort:]))) == 0.0
    assert trace.phase[-1] == "Swing"


def test_joint_limit_on_swing_target_aborts():
    # The standing pose flexes the hip 12.1 deg; a 15 deg cap lets the
    # wearer stand but not swing the leg forward.
    trace = run_scenario(
        ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),), hip_flex_limits_deg=(-20.0, 15.0))
    )
    aborts = events_of(trace, "StepAborted")
    assert [(a.time, a.payload["reason"]) for a in aborts] == [(
        0.545,
        "swing target unreachable: solution [0.0006, 0.2636, 0.5556] rad "
        "violates limits on: hip_flex",
    )]
    assert events_of(trace, "TouchDown") == []
    assert summarize(trace).aborted


def test_zero_torque_mode_never_actuates():
    push = (push_for_excursion(0.12, 0.0),)
    passive = run_scenario(ScenarioConfig(pushes=push, mode="zero_torque"))
    assert float(np.max(np.abs(passive.torque))) == 0.0

    # Without actuation the leg never tracks the swing, so the recovery
    # that succeeds under assist fails here.
    assert summarize(run_scenario(ScenarioConfig(pushes=push))).captured
    assert not summarize(passive).captured


def test_human_pulse_perturbs_the_swing_leg():
    push = (push_for_excursion(0.12, 0.0),)
    ref = run_scenario(ScenarioConfig(pushes=push))
    pulsed = run_scenario(
        ScenarioConfig(pushes=push, human_pulses=(HumanPulse(2, 0.6, 0.7, 3.0),))
    )
    dq = np.abs(pulsed.joint_measured - ref.joint_measured)
    assert float(dq[:, 2].max()) > 1e-3
    # Nothing happens before the pulse starts.
    assert np.array_equal(pulsed.joint_measured[:600], ref.joint_measured[:600])


# --------------------------------------------------------------------------
# noise, determinism, trace invariants


def test_sensor_noise_is_seeded_and_bounded():
    push = (push_for_excursion(0.12, 0.0),)
    a = run_scenario(ScenarioConfig(pushes=push, attitude_noise_deg=0.2, seed=7, duration=4.0))
    b = run_scenario(ScenarioConfig(pushes=push, attitude_noise_deg=0.2, seed=7, duration=4.0))
    c = run_scenario(ScenarioConfig(pushes=push, attitude_noise_deg=0.2, seed=8, duration=4.0))

    assert np.array_equal(a.cop, b.cop)
    assert np.array_equal(a.joint_measured, b.joint_measured)
    assert not np.array_equal(a.cop, c.cop)

    # Moderate sensor noise does not break the recovery.
    for trace in (a, c):
        summary = summarize(trace)
        assert summary.captured and not summary.aborted
        assert trace.phase[-1] == "Standing"


def test_rerun_is_bit_identical():
    cfg = dict(pushes=(push_for_excursion(0.12, 0.0), push_for_excursion(0.0, 0.06, t=0.62)))
    a = run_scenario(ScenarioConfig(**cfg))
    b = run_scenario(ScenarioConfig(**cfg))

    for name in ("t", "com", "com_vel", "xi", "cop", "foot",
                 "joint_desired", "joint_measured", "torque"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.phase == b.phase
    assert [(e.time, e.kind, e.payload) for e in a.events] == [
        (e.time, e.kind, e.payload) for e in b.events
    ]


def test_trace_grid_and_dcm_consistency():
    cfg = ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),), duration=2.0)
    trace = run_scenario(cfg)
    n = round(cfg.duration / cfg.dt)
    assert trace.t.shape == (n,)
    assert len(trace.phase) == n
    assert np.array_equal(trace.t, np.arange(n) * cfg.dt)
    # The logged DCM is exactly com + vel / omega of the logged state.
    omega = cfg.lipm_params().omega
    assert np.allclose(trace.xi, trace.com + trace.com_vel / omega, rtol=0.0, atol=1e-15)


def test_summary_reports_the_step_facts():
    trace = forward_push_trace()
    summary = summarize(trace)

    plan = events_of(trace, "PlanIssued")[0]
    td = events_of(trace, "TouchDown")[0]
    cap = events_of(trace, "Captured")[0]

    assert summary.num_replans == len(events_of(trace, "Replanned"))
    assert summary.trigger_time == td.payload["trigger_time"]
    assert summary.touchdown_time == td.time
    assert summary.capture_time == cap.time
    assert summary.planned_landing == tuple(td.payload["initial_planned"])
    assert summary.landed_position == tuple(td.payload["landed"])
    assert summary.swing_start == tuple(td.payload["swing_start"])
    assert summary.swing_side == plan.payload["swing"]
    # The planned and achieved step vectors subtend a small angle here.
    assert abs(summary.planned_vs_landed_angle_deg) < 15.0
