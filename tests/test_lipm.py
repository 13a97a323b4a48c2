"""Pendulum dynamics: frozen constants, the test oracle's closed forms, RK4 accuracy."""

import itertools
import math

import numpy as np
import pytest
from oracle_utils import com_closed_form, dcm_closed_form

from exorecover import ScenarioConfig, apply_impulse, natural_frequency, step_lipm
from exorecover.lipm import as_vec2, clip

#: The default wearer's pendulum.
DEFAULT = ScenarioConfig()


def omega_of(com_height: float = DEFAULT.com_height, gravity: float = DEFAULT.gravity) -> float:
    return natural_frequency(gravity, com_height)


def dcm(com, com_vel, omega: float):
    """The divergent component, ``com + com_vel / omega``."""
    return np.asarray(com) + np.asarray(com_vel) / omega


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

    config = ScenarioConfig(com_height=0.9)
    assert config.omega == 3.3015148038438356
    assert replace(config, com_height=0.88).omega == math.sqrt(9.81 / 0.88)


def test_dcm_flow_sign_and_magnitude():
    """The DCM moves away from the CoP at ``omega * (xi - cop)``."""
    w = omega_of(0.9)
    h = 1e-7
    flow = (np.asarray(dcm_closed_form([0.2, 0.0], [0.1, 0.0], w, h)) - [0.2, 0.0]) / h
    assert flow[0] == pytest.approx(w * 0.1, rel=1e-6)
    assert flow[1] == 0.0
    # On the CoP the DCM is stationary.
    assert np.all(np.asarray(dcm_closed_form([0.3, -0.1], [0.3, -0.1], w, 0.5)) == [0.3, -0.1])


def test_dcm_closed_form_frozen_value():
    # omega = 3, t = 0.3: (0.12 - 0.02) * e^0.9 + 0.02, e^0.9 frozen.
    w = omega_of(1.0, gravity=9.0)
    assert w == 3.0
    xi = dcm_closed_form([0.12, 0.0], [0.02, 0.0], w, 0.3)
    assert xi[0] == pytest.approx(0.2659603111156949, abs=1e-16)
    assert xi[1] == 0.0


def test_dcm_closed_form_t0_identity_and_negative_t():
    xi0 = np.array([0.05, -0.03])
    assert np.all(np.asarray(dcm_closed_form(xi0, [0.0, 0.0], DEFAULT.omega, 0.0)) == xi0)


def test_com_closed_form_relaxes_to_dcm():
    w = omega_of(0.9)
    com0 = np.array([0.0, 0.0])
    xi0 = np.array([0.1, -0.05])
    # Monotone approach; after many time constants it sits on xi.
    prev = com0
    for t in (0.1, 0.3, 0.6, 1.0, 3.0):
        c = com_closed_form(com0, xi0, w, t)
        assert np.linalg.norm(xi0 - c) < np.linalg.norm(xi0 - prev)
        prev = c
    assert np.allclose(com_closed_form(com0, xi0, w, 10.0), xi0, atol=1e-13)


def test_com_flow_matches_derivative_of_closed_form():
    w = omega_of(0.9)
    com0 = np.array([0.02, 0.04])
    xi0 = np.array([0.1, -0.05])
    h = 1e-6
    for t in (0.0, 0.2, 0.7):
        c = com_closed_form(com0, xi0, w, t)
        num = np.subtract(com_closed_form(com0, xi0, w, t + h), c) / h
        ana = w * (xi0 - c)
        assert np.allclose(num, ana, atol=1e-5)


def test_step_lipm_equilibrium_is_exact():
    com = np.array([0.04, -0.02])
    out_com, out_vel = map(np.array, step_lipm(com, np.zeros(2), [0.04, -0.02], DEFAULT.omega, 1e-3))
    assert np.all(out_com == com)
    assert np.all(out_vel == 0.0)


def _array_rk4(com, com_vel, cop, omega, dt):
    """One RK4 step on ``(2,)`` arrays, the elementwise form ``step_lipm`` follows."""
    w2 = omega * omega
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
        w = omega_of(float(rng.uniform(0.5, 1.2)))
        dt = float(rng.choice([1e-3, 2.5e-3, 1e-2]))
        com, vel, cop = rng.uniform(-0.3, 0.3, size=(3, 2))
        ref_com, ref_vel = com, vel
        state = com.tolist(), vel.tolist()
        for _ in range(50):
            ref_com, ref_vel = _array_rk4(ref_com, ref_vel, cop, w, dt)
            state = step_lipm(*state, cop.tolist(), w, dt)
            assert all(type(v) is float for v in state[0] + state[1])
            assert np.array(state).tobytes() == np.array([ref_com, ref_vel]).tobytes()

    w = DEFAULT.omega
    zeros = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]
    for com in zeros:
        for vel in zeros:
            for cop in zeros:
                ref = _array_rk4(np.array(com), np.array(vel), np.array(cop), w, 1e-3)
                out = step_lipm(com, vel, cop, w, 1e-3)
                assert np.array(out).tobytes() == np.array(ref).tobytes()


def test_rk4_tracks_closed_form_dcm():
    """Integrated DCM agrees with the analytic solution to well under 1e-6 m."""
    rng = np.random.default_rng(2024)
    for _ in range(20):
        omega = rng.uniform(2.0, 4.0)
        w = omega_of(9.81 / omega**2, gravity=9.81)
        com, vel = rng.uniform(-0.1, 0.1, 2), rng.uniform(-0.5, 0.5, 2)
        cop = rng.uniform(-0.1, 0.1, 2)
        xi0 = dcm(com, vel, w)
        for _ in range(1000):
            com, vel = map(np.array, step_lipm(com, vel, cop, w, 1e-3))
        xi_ref = dcm_closed_form(xi0, cop, w, 1.0)
        assert np.abs(np.subtract(dcm(com, vel, w), xi_ref)).max() < 1e-8


def test_rk4_com_matches_frozen_dcm_form_when_cop_tracks():
    """With the CoP servoed onto the DCM, the CoM follows the relaxation law."""
    w = omega_of(0.9)
    com, vel = np.zeros(2), np.array([0.33015148038438356, 0.0])  # xi0 = (0.1, 0)
    xi0 = dcm(com, vel, w)
    for _ in range(800):
        com, vel = map(np.array, step_lipm(com, vel, dcm(com, vel, w), w, 1e-3))
    ref = com_closed_form([0.0, 0.0], xi0, w, 0.8)
    assert np.abs(com - ref).max() < 1e-9


def test_apply_impulse_shifts_dcm_by_impulse_over_m_omega():
    w = omega_of(0.88)
    com, vel = np.zeros(2), np.zeros(2)
    J = np.array([28.0, -7.0])
    out = apply_impulse(vel, J, 70.0)
    assert np.allclose(out, J / 70.0, rtol=0, atol=0)
    assert np.allclose(np.subtract(dcm(com, out, w), dcm(com, vel, w)), J / (70.0 * w),
                       atol=1e-18)


def test_state_validation():
    """The pendulum's mass is checked once, by ``ScenarioConfig.validate``."""
    with pytest.raises(ValueError, match="mass must be positive, got 0.0"):
        ScenarioConfig(mass=0.0).validate()


#: Inputs ``as_vec2`` accepts, with the float pair each becomes.
VEC2_ACCEPTED = [
    ((1.5, -2), (1.5, -2.0)),
    ([0.25, 3], (0.25, 3.0)),
    (np.array([1.0, -0.0]), (1.0, -0.0)),
    (np.array([[0.5, 2.0]]), (0.5, 2.0)),
    (np.array([[0.5], [2.0]]), (0.5, 2.0)),
    ([np.float32(0.1), np.float32(2.5)], (0.10000000149011612, 2.5)),
    ((np.int64(3), np.float64(-1.25)), (3.0, -1.25)),
    ([[0.5], [2.0]], (0.5, 2.0)),
    (([0.5, 2.0],), (0.5, 2.0)),
    (np.array([[[0.5]], [[2.0]]]), (0.5, 2.0)),
]

#: Inputs ``as_vec2`` rejects, with the start of the ValueError's message.
VEC2_REJECTED = [
    ((1.0, 2.0, 3.0), "xi0 must have exactly 2 components"),
    ([], "xi0 must have exactly 2 components"),
    (1.0, "xi0 must have exactly 2 components"),
    (np.float64(1.0), "xi0 must have exactly 2 components"),
    (None, "xi0 must have exactly 2 components"),
    ((math.nan, 0.0), "xi0 must be finite"),
    ((0.0, math.inf), "xi0 must be finite"),
    (np.array([-np.inf, 1.0]), "xi0 must be finite"),
    ([[1.0], 2.0], "xi0 must be a number or a regular array of numbers"),
    ([[1.0, 2.0], [3.0]], "xi0 must be a number or a regular array of numbers"),
    ((1.0, [2.0]), "xi0 must be a number or a regular array of numbers"),
    (range(2), "xi0 must be a number or a regular array of numbers"),
    ([10**400, 1], "xi0 must be a number or a regular array of numbers"),
]


@pytest.mark.parametrize("value, want", VEC2_ACCEPTED)
def test_as_vec2_accepts_any_two_numbers(value, want):
    """Any two numbers, in a sequence or a numpy array of any shape, become a
    tuple of two Python floats with the same bits."""
    out = as_vec2(value, "xi0")
    assert type(out) is tuple and all(type(v) is float for v in out)
    assert repr(out) == repr(want)


@pytest.mark.parametrize("value, message", VEC2_REJECTED)
def test_as_vec2_rejects_anything_else(value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        as_vec2(value, "xi0")


#: ``(x, lo, hi)`` rows for ``clip``, with the repr of ``min(max(x, lo), hi)``.
CLIP_TABLE = [
    (0.5, 0.0, 1.0, "0.5"),
    (-2.0, -1.0, 1.0, "-1.0"),
    (2.0, -1.0, 1.0, "1.0"),
    # ties at each bound, and a collapsed interval
    (-1.0, -1.0, 1.0, "-1.0"),
    (1.0, -1.0, 1.0, "1.0"),
    (0.3, 0.3, 0.3, "0.3"),
    # a tie keeps the first argument, so signed zeros pass through
    (-0.0, 0.0, 1.0, "-0.0"),
    (0.0, -0.0, 1.0, "0.0"),
    (0.0, -1.0, -0.0, "0.0"),
    (-0.0, -1.0, 0.0, "-0.0"),
    (-0.0, -0.0, -0.0, "-0.0"),
    (0.0, 0.0, 0.0, "0.0"),
    (-0.5, 0.0, -0.0, "0.0"),
    (0.5, -0.0, -0.0, "-0.0"),
    # NaN and infinities
    (math.nan, -1.0, 1.0, "nan"),
    (0.5, math.nan, 1.0, "0.5"),
    (0.5, -1.0, math.nan, "0.5"),
    (math.inf, -1.0, 1.0, "1.0"),
    (-math.inf, -1.0, 1.0, "-1.0"),
    (0.5, -math.inf, math.inf, "0.5"),
    (math.inf, -math.inf, math.inf, "inf"),
    (-math.inf, -math.inf, -math.inf, "-inf"),
]


@pytest.mark.parametrize("x, lo, hi, want", CLIP_TABLE)
def test_clip_is_min_of_max(x, lo, hi, want):
    """``clip`` returns what the builtins return, compared by repr so that
    signed zeros count, and the builtins' result is the one in the table."""
    assert repr(min(max(x, lo), hi)) == want
    assert repr(clip(x, lo, hi)) == want


def test_clip_is_min_of_max_on_every_triple_of_edge_values():
    values = (-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf, math.nan)
    for x, lo, hi in itertools.product(values, repeat=3):
        assert repr(clip(x, lo, hi)) == repr(min(max(x, lo), hi)), (x, lo, hi)
