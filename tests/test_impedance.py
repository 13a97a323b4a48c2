"""Impedance law, inner torque loop and the leg's joint plants."""

import math

import numpy as np
import pytest
from oracle_utils import joint_rk4

from exorecover import ScenarioConfig, command_torques, impedance_torque, joint_plant_step
from exorecover.impedance import RAD_PER_DEG
from exorecover.simulation import Controller

DEFAULT = ScenarioConfig()
#: The default gains, in N*m/rad and N*m*s/rad, as the controller holds them.
_CONTROLLER = Controller(DEFAULT, [], DEFAULT.standing_pose())
GAINS = _CONTROLLER.stiffness, _CONTROLLER.damping
#: The default wearer's joint plant: inertia and viscous damping.
PLANT = DEFAULT.inertia, DEFAULT.viscous_damping
ZERO3 = (0.0, 0.0, 0.0)


def test_one_degree_error_gives_exact_per_degree_torque():
    """The rad-per-deg conversion must round-trip bit-exactly."""
    desired = np.array([RAD_PER_DEG, RAD_PER_DEG, RAD_PER_DEG])
    tau = impedance_torque(desired, np.zeros(3), np.zeros(3), *GAINS)
    assert list(tau) == [1.5, 0.4, 0.4]
    # Sign flips with the error.
    tau_neg = impedance_torque(np.zeros(3), desired, np.zeros(3), *GAINS)
    assert list(tau_neg) == [-1.5, -0.4, -0.4]


def test_zero_torque_mode_commands_exactly_zero(monkeypatch):
    """In zero-torque mode the controller does not call the law, and every
    applied torque of a step is ``+0.0``, compared as ``int64`` bits; the
    same step in assist mode calls it on each swing tick."""
    from exorecover import PushEvent, run_scenario, simulation

    calls = []

    def law(*args):
        calls.append(args)
        return impedance_torque(*args)

    monkeypatch.setattr(simulation, "impedance_torque", law)
    push = PushEvent(0.3, (0.12 * DEFAULT.mass * DEFAULT.omega, 0.0))
    for mode in ("assist", "zero_torque"):
        calls.clear()
        trace = run_scenario(ScenarioConfig(mode=mode, pushes=(push,), duration=1.5))
        swing = np.array([phase == "Swing" for phase in trace.phase])
        assert swing.sum() > 100, mode
        torque = np.ascontiguousarray(trace.torque[swing]).view(np.int64)
        if mode == "assist":
            assert len(calls) >= swing.sum() and torque.any()
        else:
            assert calls == [] and not torque.any()


def test_damping_term_opposes_velocity():
    tau = impedance_torque(np.zeros(3), np.zeros(3), np.array([1.0, 1.0, -2.0]), ZERO3, (0.1, 0.2, 0.3))
    assert np.allclose(tau, [-0.1, -0.2, 0.6], atol=1e-15)


def test_command_torques_formula():
    """``tau_d + kp * (tau_d - tau_m)`` on the sensed joints (kp is checked by validate)."""
    out = command_torques(np.array([9.0, 2.0, 2.0]), np.array([0.0, 1.5, 2.0]), 1.0)
    assert out[1] == pytest.approx(2.5)
    assert out[2] == 2.0
    out = command_torques(np.array([9.0, 2.0, 0.0]), np.array([0.0, 2.0, 1.0]), 5.0)
    assert out[1] == 2.0
    out = command_torques(np.array([9.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]), 0.5)
    assert list(out) == [9.0, -0.5, -0.5]


def test_command_torques_bypass_hip_ab_sensor():
    tau_d = np.array([1.0, 2.0, 3.0])
    tau_m = np.array([0.5, 1.0, 1.5])
    out = command_torques(tau_d, tau_m, kp=1.0)
    assert out[0] == 1.0  # open loop, no torque feedback
    assert out[1] == pytest.approx(3.0)
    assert out[2] == pytest.approx(4.5)


def test_plant_constant_torque_matches_closed_form():
    """inertia*acc = tau - b*vel has v(t) = (tau/b)(1 - exp(-b t / I)), per joint."""
    q, v = ZERO3, ZERO3
    taus = (0.8, -0.3, 0.0)
    for _ in range(1000):
        q, v = joint_plant_step(q, v, taus, ZERO3, 0.05, 0.5, 0.001)
    t = 1.0
    for tau, q_j, v_j in zip(taus, q, v):
        v_ref = (tau / 0.5) * (1.0 - math.exp(-0.5 * t / 0.05))
        q_ref = (tau / 0.5) * (t + (0.05 / 0.5) * (math.exp(-0.5 * t / 0.05) - 1.0))
        assert v_j == pytest.approx(v_ref, abs=1e-9)
        assert q_j == pytest.approx(q_ref, abs=1e-9)


def test_plant_human_torque_adds_to_actuator():
    s1 = s2 = (ZERO3, ZERO3)
    for _ in range(100):
        s1 = joint_plant_step(*s1, (0.3, -0.1, 0.0), (0.2, 0.6, -0.4), *PLANT, 0.001)
        s2 = joint_plant_step(*s2, (0.5, 0.5, -0.4), ZERO3, *PLANT, 0.001)
    assert s1[0] == pytest.approx(s2[0], abs=1e-15)
    assert s1[1] == pytest.approx(s2[1], abs=1e-15)


def test_plant_undamped_free_motion_is_linear():
    q, v = (0.2, -0.1, 0.0), (0.5, 0.0, -0.25)
    for _ in range(200):
        q, v = joint_plant_step(q, v, ZERO3, ZERO3, 0.1, 0.0, 0.005)
    assert q == pytest.approx((0.7, -0.1, -0.25), abs=1e-12)
    assert v == pytest.approx((0.5, 0.0, -0.25), abs=1e-12)


@pytest.mark.parametrize("q", [-0.0, 0.0, 5e-324, -0.3, 1.2])
def test_plant_at_rest_returns_the_angle_plus_zero(q):
    """On positive zero rate and torques RK4 returns ``(q + 0.0, 0.0)`` bit
    for bit per joint (``-0.0`` turns into ``0.0``): the standing loop
    ``simulation._run_standing`` relies on it for a leg at rest."""
    angles = (q, -q, q)
    for plant in (PLANT, (0.1, 0.0)):
        for dt in (0.001, 0.01):
            got = joint_plant_step(angles, ZERO3, ZERO3, ZERO3, *plant, dt)
            assert repr(got) == repr((tuple(a + 0.0 for a in angles), ZERO3))


def test_closed_loop_spring_settles_on_target():
    """Impedance assist drives the plant to the desired angle."""
    desired = (0.1, 0.3, -0.2)
    q, v, tau_m = ZERO3, ZERO3, ZERO3
    for _ in range(4000):
        tau_d = impedance_torque(desired, q, v, *GAINS)
        tau_c = command_torques(tau_d, tau_m, kp=1.0)
        q, v = joint_plant_step(q, v, tau_c, ZERO3, 0.05, 0.5, 0.001)
        tau_m = tau_c
    assert np.abs(np.subtract(q, desired)).max() < 1e-3


def _signed(rng, scale: float, n: int) -> tuple[float, ...]:
    """``n`` normal floats of ``scale``, about a third of them a signed zero."""
    values = rng.normal(0.0, scale, n).tolist()
    return tuple(float(rng.choice((0.0, -0.0))) if rng.uniform() < 0.3 else v for v in values)


def test_the_leg_step_is_the_scalar_rk4_per_joint_bit_for_bit():
    """Each joint of ``joint_plant_step`` equals one scalar RK4 step of that
    joint (``oracle_utils.joint_rk4``) bit for bit, signed zeros included,
    over seeded states, torques, wearer torques, plants and steps."""
    rng = np.random.default_rng(2901)
    for _ in range(3000):
        q, qd = _signed(rng, 0.8, 3), _signed(rng, 3.0, 3)
        tau, human = _signed(rng, 5.0, 3), _signed(rng, 2.0, 3)
        plant = (float(rng.uniform(0.01, 0.2)), float(rng.choice((0.0, rng.uniform(0.0, 2.0)))))
        dt = float(rng.choice((0.001, 0.002, 0.01, rng.uniform(1e-4, 0.01))))
        got_q, got_qd = joint_plant_step(q, qd, tau, human, *plant, dt)
        want = [joint_rk4(*state, *plant, dt) for state in zip(q, qd, tau, human)]
        assert all(type(v) is float for v in got_q + got_qd)
        assert repr((got_q, got_qd)) == repr((tuple(w[0] for w in want), tuple(w[1] for w in want)))


@pytest.mark.parametrize("slot", range(6))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_torque_in_any_of_the_six_inputs_raises(slot, bad):
    """Any one of the three applied and three wearer torques that is not
    finite raises the step's ValueError."""
    torques = [0.5, -0.2, 0.1, 0.0, 1.0, -0.3]
    torques[slot] = bad
    with pytest.raises(ValueError, match="^torques must be finite, got "):
        joint_plant_step((0.1, 0.2, 0.3), ZERO3, tuple(torques[:3]), tuple(torques[3:]), *PLANT, 0.001)


def test_float_triples_are_the_array_formulas_bit_for_bit():
    """``impedance_torque`` and ``command_torques`` on float triples equal the
    elementwise array formulas bit for bit, and return plain floats."""
    rng = np.random.default_rng(808)
    for _ in range(2000):
        desired, measured, velocity, tau_m = rng.normal(0.0, 0.5, (4, 3))
        stiffness, damping = rng.uniform(0.0, 100.0, 3), rng.uniform(0.0, 2.0, 3)
        kp = float(rng.uniform(0.0, 5.0))

        want = stiffness * (desired - measured) - damping * velocity
        got = impedance_torque(tuple(desired.tolist()), tuple(measured.tolist()),
                               tuple(velocity.tolist()), tuple(stiffness.tolist()),
                               tuple(damping.tolist()))
        assert all(type(v) is float for v in got)
        assert list(got) == want.tolist()

        command = want + kp * (want - tau_m)
        command[0] = want[0]
        got_command = command_torques(got, tuple(tau_m.tolist()), kp)
        assert all(type(v) is float for v in got_command)
        assert list(got_command) == command.tolist()
