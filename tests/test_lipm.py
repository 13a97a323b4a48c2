"""Pendulum dynamics: frozen constants, closed forms, RK4 accuracy."""

import math

import numpy as np
import pytest

from exorecover import (
    LipmParams,
    apply_impulse,
    com_closed_form,
    dcm_closed_form,
    dcm_of,
    natural_frequency,
    step_lipm,
)


def test_natural_frequency_frozen_value():
    # sqrt(9.81 / 0.9), evaluated independently.
    assert natural_frequency(9.81, 0.9) == 3.3015148038438356


def test_natural_frequency_rejects_nonpositive():
    with pytest.raises(ValueError):
        natural_frequency(0.0, 0.9)
    with pytest.raises(ValueError):
        natural_frequency(9.81, -0.1)
    with pytest.raises(ValueError):
        natural_frequency(9.81, 0.0)


def test_params_omega_consistent_after_replace():
    from dataclasses import replace

    p = LipmParams(gravity=9.81, com_height=0.9)
    assert p.omega == 3.3015148038438356
    q = replace(p, com_height=0.88)
    assert q.omega == math.sqrt(9.81 / 0.88)


def test_dcm_of_definition():
    p = LipmParams(com_height=0.9)
    com, com_vel = np.array([0.1, -0.2]), np.array([0.3, 0.6])
    xi = dcm_of(com, com_vel, p)
    assert np.allclose(xi, com + com_vel / p.omega, rtol=0, atol=0)


def test_dcm_flow_sign_and_magnitude():
    """The DCM moves away from the CoP at ``omega * (xi - cop)``."""
    p = LipmParams(com_height=0.9)
    h = 1e-7
    flow = (dcm_closed_form([0.2, 0.0], [0.1, 0.0], p, h) - [0.2, 0.0]) / h
    assert flow[0] == pytest.approx(p.omega * 0.1, rel=1e-6)
    assert flow[1] == 0.0
    # On the CoP the DCM is stationary.
    assert np.all(dcm_closed_form([0.3, -0.1], [0.3, -0.1], p, 0.5) == [0.3, -0.1])


def test_dcm_closed_form_frozen_value():
    # omega = 3, t = 0.3: (0.12 - 0.02) * e^0.9 + 0.02, e^0.9 frozen.
    p = LipmParams(gravity=9.0, com_height=1.0)
    assert p.omega == 3.0
    xi = dcm_closed_form([0.12, 0.0], [0.02, 0.0], p, 0.3)
    assert xi[0] == pytest.approx(0.2659603111156949, abs=1e-16)
    assert xi[1] == 0.0


def test_dcm_closed_form_t0_identity_and_negative_t():
    p = LipmParams()
    xi0 = np.array([0.05, -0.03])
    assert np.all(dcm_closed_form(xi0, [0.0, 0.0], p, 0.0) == xi0)
    with pytest.raises(ValueError):
        dcm_closed_form(xi0, [0.0, 0.0], p, -0.1)


def test_com_closed_form_relaxes_to_dcm():
    p = LipmParams(com_height=0.9)
    com0 = np.array([0.0, 0.0])
    xi0 = np.array([0.1, -0.05])
    # Monotone approach; after many time constants it sits on xi.
    prev = com0
    for t in (0.1, 0.3, 0.6, 1.0, 3.0):
        c = com_closed_form(com0, xi0, p, t)
        assert np.linalg.norm(xi0 - c) < np.linalg.norm(xi0 - prev)
        prev = c
    assert np.allclose(com_closed_form(com0, xi0, p, 10.0), xi0, atol=1e-13)


def test_com_flow_matches_derivative_of_closed_form():
    p = LipmParams(com_height=0.9)
    com0 = np.array([0.02, 0.04])
    xi0 = np.array([0.1, -0.05])
    h = 1e-6
    for t in (0.0, 0.2, 0.7):
        c = com_closed_form(com0, xi0, p, t)
        num = (com_closed_form(com0, xi0, p, t + h) - com_closed_form(com0, xi0, p, t)) / h
        ana = p.omega * (xi0 - c)
        assert np.allclose(num, ana, atol=1e-5)


def test_step_lipm_equilibrium_is_exact():
    p = LipmParams()
    com = np.array([0.04, -0.02])
    out_com, out_vel = map(np.array, step_lipm(com, np.zeros(2), [0.04, -0.02], p, 1e-3))
    assert np.all(out_com == com)
    assert np.all(out_vel == 0.0)


def _array_rk4(com, com_vel, cop, params, dt):
    """One RK4 step on ``(2,)`` arrays, the elementwise form ``step_lipm`` follows."""
    w2 = params.omega * params.omega
    half = 0.5 * dt
    sixth = dt / 6.0
    a1 = w2 * (com - cop)
    x2 = com + half * com_vel
    v2 = com_vel + half * a1
    a2 = w2 * (x2 - cop)
    x3 = com + half * v2
    v3 = com_vel + half * a2
    a3 = w2 * (x3 - cop)
    x4 = com + dt * v3
    v4 = com_vel + dt * a3
    a4 = w2 * (x4 - cop)
    return (com + sixth * (com_vel + 2.0 * (v2 + v3) + v4),
            com_vel + sixth * (a1 + 2.0 * (a2 + a3) + a4))


def test_float_pair_step_is_the_array_formula_bit_for_bit():
    """``step_lipm`` on Python floats returns the array formula's bits, over
    random states, signed zeros and whole 1 kHz trajectories."""
    rng = np.random.default_rng(43)
    for _ in range(300):
        p = LipmParams(com_height=float(rng.uniform(0.5, 1.2)))
        dt = float(rng.choice([1e-3, 2.5e-3, 1e-2]))
        com, vel, cop = rng.uniform(-0.3, 0.3, size=(3, 2))
        ref_com, ref_vel = com, vel
        state = com.tolist(), vel.tolist()
        for _ in range(50):
            ref_com, ref_vel = _array_rk4(ref_com, ref_vel, cop, p, dt)
            state = step_lipm(*state, cop.tolist(), p, dt)
            assert all(type(v) is float for v in state[0] + state[1])
            assert np.array(state).tobytes() == np.array([ref_com, ref_vel]).tobytes()

    p = LipmParams()
    zeros = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]
    for com in zeros:
        for vel in zeros:
            for cop in zeros:
                ref = _array_rk4(np.array(com), np.array(vel), np.array(cop), p, 1e-3)
                out = step_lipm(com, vel, cop, p, 1e-3)
                assert np.array(out).tobytes() == np.array(ref).tobytes()


def test_rk4_tracks_closed_form_dcm():
    """Integrated DCM agrees with the analytic solution to well under 1e-6 m."""
    rng = np.random.default_rng(2024)
    for _ in range(20):
        omega = rng.uniform(2.0, 4.0)
        p = LipmParams(gravity=9.81, com_height=9.81 / omega**2)
        com, vel = rng.uniform(-0.1, 0.1, 2), rng.uniform(-0.5, 0.5, 2)
        cop = rng.uniform(-0.1, 0.1, 2)
        xi0 = dcm_of(com, vel, p)
        for _ in range(1000):
            com, vel = map(np.array, step_lipm(com, vel, cop, p, 1e-3))
        xi_ref = dcm_closed_form(xi0, cop, p, 1.0)
        assert np.abs(dcm_of(com, vel, p) - xi_ref).max() < 1e-8


def test_rk4_com_matches_frozen_dcm_form_when_cop_tracks():
    """With the CoP servoed onto the DCM, the CoM follows the relaxation law."""
    p = LipmParams(com_height=0.9)
    com, vel = np.zeros(2), np.array([0.33015148038438356, 0.0])  # xi0 = (0.1, 0)
    xi0 = dcm_of(com, vel, p)
    for _ in range(800):
        com, vel = map(np.array, step_lipm(com, vel, dcm_of(com, vel, p), p, 1e-3))
    ref = com_closed_form([0.0, 0.0], xi0, p, 0.8)
    assert np.abs(com - ref).max() < 1e-9


def test_apply_impulse_shifts_dcm_by_impulse_over_m_omega():
    p = LipmParams(com_height=0.88, mass=70.0)
    com, vel = np.zeros(2), np.zeros(2)
    J = np.array([28.0, -7.0])
    out = apply_impulse(vel, J, p)
    assert np.allclose(out, J / 70.0, rtol=0, atol=0)
    assert np.allclose(dcm_of(com, out, p) - dcm_of(com, vel, p), J / (70.0 * p.omega), atol=1e-18)


def test_state_validation():
    with pytest.raises(ValueError):
        LipmParams(mass=0.0)
