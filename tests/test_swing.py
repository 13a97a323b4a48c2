"""Swing trajectories: boundary conditions, apex, retarget continuity."""

import math

import numpy as np
import pytest
from oracle_utils import evaluate

from exorecover import ScenarioConfig, StepPlan, retarget, sample, sample_position
from exorecover import build_swing as _build_swing
from exorecover.swing import QuinticSegment, _quintic

DEFAULT = ScenarioConfig()


def build_swing(start, plan, peak_height=DEFAULT.peak_height, peak_fraction=DEFAULT.peak_fraction):
    """``build_swing`` with the default swing profile."""
    return _build_swing(start, plan, peak_height, peak_fraction)


def make_plan(cop=(0.25, -0.18), duration=0.5, planned_at=0.0) -> StepPlan:
    return StepPlan(
        cop_T=np.asarray(cop, dtype=float),
        gamma_T=np.zeros(2),
        sigma=math.exp(3.3 * duration),
        duration=duration,
        objective=0.0,
        status="optimal",
        active_set=(),
        planned_at=planned_at,
    )


def test_quintic_matches_boundary_state():
    rng = np.random.default_rng(52)
    for _ in range(100):
        t0 = float(rng.uniform(-1.0, 1.0))
        t1 = t0 + float(rng.uniform(0.05, 2.0))
        start = tuple(rng.uniform(-2.0, 2.0, 3))
        end = tuple(rng.uniform(-2.0, 2.0, 3))
        seg = _quintic(t0, t1, *start, *end)
        assert np.allclose(evaluate(seg, t0), start, atol=1e-10)
        assert np.allclose(evaluate(seg, t1), end, atol=1e-9)


def test_quintic_derivatives_match_finite_differences():
    seg = _quintic(0.0, 1.0, 0.0, 0.3, -1.0, 0.5, 0.0, 2.0)
    h = 1e-6
    for t in (0.1, 0.5, 0.9):
        p0, v0, a0 = evaluate(seg, t)
        p_plus, v_plus, _ = evaluate(seg, t + h)
        p_minus, v_minus, _ = evaluate(seg, t - h)
        assert (p_plus - p_minus) / (2 * h) == pytest.approx(v0, abs=1e-8)
        assert (v_plus - v_minus) / (2 * h) == pytest.approx(a0, abs=1e-7)


def test_nine_boundary_conditions_to_1e10():
    """Lift-off, apex and touchdown state of the vertical profile."""
    start = np.array([0.0, -0.2, 0.0])
    for T in (0.4, 0.8, 1.0):
        traj = build_swing(start, make_plan(duration=T))
        up, down = traj.z_profile
        t_apex = 0.4 * T
        checks = [
            evaluate(up, 0.0),  # lift-off
            evaluate(up, t_apex),  # apex from below
            evaluate(down, T),  # touchdown
        ]
        expected = [(0.0, 0.0, 0.0), (0.07, 0.0, 0.0), (0.0, 0.0, 0.0)]
        for got, want in zip(checks, expected):
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-10
        # Apex state from the descending piece agrees too.
        pos, vel, _ = evaluate(down, t_apex)
        assert abs(pos - 0.07) < 1e-10
        assert abs(vel) < 1e-10


def test_apex_height_and_instant():
    for T in (0.4, 0.8, 1.0):
        traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=T))
        assert traj.apex_time == pytest.approx(0.4 * T, abs=1e-15)
        pos, vel, _ = sample(traj, 0.4 * T)
        assert pos[2] == pytest.approx(0.07, abs=1e-10)
        assert vel[2] == pytest.approx(0.0, abs=1e-10)


def test_vertical_profile_is_monotone_each_side_of_apex():
    traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=0.6))
    ts = np.linspace(0.0, 0.6, 601)
    z = np.array([sample(traj, float(t))[0][2] for t in ts])
    k = int(0.4 * 600)
    assert np.all(np.diff(z[: k + 1]) >= -1e-12)
    assert np.all(np.diff(z[k:]) <= 1e-12)
    assert z.max() <= 0.07 + 1e-9


def test_horizontal_profiles_go_start_to_target_at_rest():
    start = np.array([0.05, -0.22, 0.0])
    plan = make_plan(cop=(0.3, -0.1), duration=0.5)
    traj = build_swing(start, plan)
    p0, v0, _ = sample(traj, 0.0)
    pT, vT, aT = sample(traj, 0.5)
    assert np.allclose(p0, [0.05, -0.22, 0.0], atol=1e-12)
    assert np.allclose(v0, 0.0, atol=1e-12)
    assert np.allclose(pT, [0.3, -0.1, 0.0], atol=1e-9)
    assert np.allclose(vT, 0.0, atol=1e-9)
    assert np.allclose(aT, 0.0, atol=1e-8)


def test_sample_clamps_outside_window():
    traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=0.5))
    for outside, edge in ((-0.1, 0.0), (0.7, 0.5)):
        for got, want in zip(sample(traj, outside), sample(traj, edge)):
            assert np.array_equal(got, want)
    for bad in (math.nan, math.inf, -math.inf):
        for fn in (sample, sample_position):
            with pytest.raises(ValueError, match="^t must be finite"):
                fn(traj, bad)


def test_retarget_is_c2_continuous_at_the_splice():
    rng = np.random.default_rng(2030)
    for _ in range(50):
        T = float(rng.uniform(0.35, 0.9))
        traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=T))
        t_now = float(rng.uniform(0.02, T - 0.05))
        remaining = T - t_now
        new = make_plan(
            cop=(0.25 + rng.uniform(-0.1, 0.1), -0.18 + rng.uniform(-0.05, 0.05)),
            duration=remaining,
            planned_at=t_now,
        )
        spliced = retarget(traj, t_now, new)
        old = [np.array(v) for v in sample(traj, t_now)]
        fresh = [np.array(v) for v in sample(spliced, 0.0)]
        for got, want, tol in zip(fresh, old, (1e-9, 1e-9, 1e-7)):
            assert np.abs(got - want).max() < tol
        # New landing point reached at rest.
        land = sample(spliced, remaining)[0]
        assert np.abs(land[:2] - new.cop_T).max() < 1e-9
        assert abs(land[2]) < 1e-9



def test_a_spliced_trajectory_starts_at_the_splice_but_for_a_negative_zero():
    """At local time 0 a spliced trajectory's position is ``p + 0.0 * X``
    per axis, ``p`` the splice position and ``X`` the rest of the Horner
    sum: ``p`` itself, bit for bit, unless ``p`` is -0.0 and ``X`` is not
    negative.  So a retarget tick cannot reuse ``retarget``'s splice
    position in place of sampling the new trajectory."""
    rng = np.random.default_rng(2031)
    for _ in range(200):
        T = float(rng.uniform(0.35, 0.9))
        start = tuple(rng.uniform(-0.3, 0.3, 2)) + (0.0,)
        traj = build_swing(start, make_plan(cop=tuple(rng.uniform(-0.4, 0.4, 2)), duration=T))
        t_now = float(rng.uniform(0.0, T - 0.05))
        new = make_plan(cop=tuple(rng.uniform(-0.4, 0.4, 2)), duration=float(rng.uniform(0.1, 1.0)))
        assert repr(sample(retarget(traj, t_now, new), 0.0)[0]) == repr(sample(traj, t_now)[0])

    # A foot resting at x = -0.0 is at x = -0.0 at every time ...
    rest = QuinticSegment((-0.0,) * 6, 0.0, 0.5)
    traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=0.5))._replace(x_profile=rest)
    assert repr(sample(traj, 0.1)[0][0]) == "-0.0"
    # ... but the trajectory spliced there starts at +0.0.
    spliced = retarget(traj, 0.1, make_plan(cop=(0.2, -0.18), duration=0.3))
    assert spliced.x_profile.coefficients[0] == -0.0
    assert repr(sample(spliced, 0.0)[0][0]) == "0.0"


def _position_cases():
    """``(id, trajectory, t)`` rows for the position-only evaluation: before
    the window, after it, at the apex junction and on a ``-0.0`` splice."""
    fresh = build_swing([0.05, -0.2, 0.0], make_plan(cop=(0.25, -0.18), duration=0.5))
    apex = fresh.apex_time
    collapsed = retarget(fresh, 0.3, make_plan(cop=(0.28, -0.2), duration=0.2))
    rest = build_swing([0.0, -0.2, 0.0], make_plan(duration=0.5))._replace(
        x_profile=QuinticSegment((-0.0,) * 6, 0.0, 0.5))
    spliced = retarget(rest, 0.1, make_plan(cop=(0.2, -0.18), duration=0.3))
    return [
        ("before", fresh, -0.1), ("far_before", fresh, -1e300), ("negative_zero_time", fresh, -0.0),
        ("start", fresh, 0.0), ("mid", fresh, 0.123),
        ("before_apex", fresh, math.nextafter(apex, 0.0)), ("apex", fresh, apex),
        ("after_apex", fresh, math.nextafter(apex, 1.0)),
        ("end", fresh, fresh.duration), ("after", fresh, fresh.duration + 0.1),
        ("far_after", fresh, 1e300), ("collapsed", collapsed, 0.05),
        ("collapsed_after", collapsed, 0.5),
        ("negative_zero_rest", rest, 0.1), ("negative_zero_splice", spliced, 0.0),
        ("negative_zero_splice_later", spliced, 0.2),
    ]


@pytest.mark.parametrize("name, traj, t", _position_cases(), ids=[c[0] for c in _position_cases()])
def test_sample_position_is_samples_position_bit_for_bit(name, traj, t):
    """``sample_position`` is ``sample(...)[0]`` and the numpy-coefficient
    Horner position, signed zeros included, and returns plain floats."""
    got = sample_position(traj, t)
    assert all(type(v) is float for v in got)
    assert repr(got) == repr(sample(traj, t)[0])
    t_eval = min(max(t, 0.0), traj.duration)
    z = traj.z_profile
    z_seg = z[0] if len(z) == 2 and t_eval < z[0].t_end else z[-1]
    want = tuple(float(evaluate(seg, t_eval)[0]) for seg in (traj.x_profile, traj.y_profile, z_seg))
    assert repr(got) == repr(want)


def test_retarget_keeps_original_apex_instant():
    traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=0.5))
    t_now = 0.1
    new = make_plan(cop=(0.3, -0.15), duration=0.4, planned_at=t_now)
    spliced = retarget(traj, t_now, new)
    # Old apex at 0.2 absolute = 0.1 on the new clock.
    assert spliced.apex_time == pytest.approx(0.1, abs=1e-12)
    pos, vel, _ = sample(spliced, 0.1)
    assert pos[2] == pytest.approx(0.07, abs=1e-10)
    assert vel[2] == pytest.approx(0.0, abs=1e-10)


def test_retarget_with_unchanged_plan_reproduces_vertical_profile():
    """Splicing without changing the landing time reproduces the z path."""
    T = 0.5
    traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=T))
    t_now = 0.12
    same = make_plan(cop=(0.25, -0.18), duration=T - t_now, planned_at=t_now)
    spliced = retarget(traj, t_now, same)
    for t in np.linspace(0.0, T - t_now, 97):
        z_old = sample(traj, t_now + float(t))[0][2]
        z_new = sample(spliced, float(t))[0][2]
        assert abs(z_old - z_new) < 1e-9


def test_retarget_after_apex_collapses_to_single_descent():
    traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=0.5))
    t_now = 0.3  # past the apex at 0.2
    new = make_plan(cop=(0.28, -0.2), duration=0.2, planned_at=t_now)
    spliced = retarget(traj, t_now, new)
    assert len(spliced.z_profile) == 1
    assert spliced.apex_time is None
    land = np.array(sample(spliced, 0.2)[0])
    assert abs(land[2]) < 1e-9
    assert np.abs(land[:2] - [0.28, -0.2]).max() < 1e-9


def test_repeated_retargeting_never_moves_the_apex():
    """Per-cycle splicing with shrinking durations keeps one apex pass."""
    T = 0.5
    traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=T))
    dt = 0.01
    t_abs = 0.0
    apex_abs = 0.2
    heights = [sample(traj, 0.0)[0][2]]
    while t_abs + dt < T - 1e-9:
        t_abs += dt
        remaining = T - t_abs
        new = make_plan(cop=(0.25 - 0.05 * t_abs, -0.18), duration=remaining, planned_at=t_abs)
        traj = retarget(traj, dt, new)
        if traj.apex_time is not None:
            assert traj.apex_time + t_abs == pytest.approx(apex_abs, abs=1e-9)
        heights.append(sample(traj, 0.0)[0][2])
    z = np.array(heights)
    k = int(round(apex_abs / dt))
    assert z.argmax() == k
    assert z[k] == pytest.approx(0.07, abs=1e-9)
    assert np.all(np.diff(z[: k + 1]) > -1e-12)
    assert np.all(np.diff(z[k:]) < 1e-12)
    touchdown = sample(traj, T - t_abs)[0]
    assert abs(touchdown[2]) < 1e-9


def test_retarget_validates_inputs():
    traj = build_swing([0.0, -0.2, 0.0], make_plan(duration=0.5))
    with pytest.raises(ValueError):
        retarget(traj, -0.01, make_plan(duration=0.4))
    with pytest.raises(ValueError):
        retarget(traj, 0.5, make_plan(duration=0.1))
    with pytest.raises(ValueError):
        retarget(traj, 0.1, make_plan(duration=-0.2))


def test_build_swing_validates_inputs():
    with pytest.raises(ValueError):
        build_swing([0.0, 0.0], make_plan())
    with pytest.raises(ValueError):
        build_swing([0.0, 0.0, 0.0], make_plan(), peak_height=0.0)
    with pytest.raises(ValueError):
        build_swing([0.0, 0.0, 0.0], make_plan(), peak_fraction=1.0)


def test_sample_is_the_numpy_coefficient_horner_bit_for_bit():
    """``sample`` on float coefficients equals the numpy-coefficient Horner
    evaluation bit for bit, on fresh and respliced trajectories, before
    and after the apex, and returns plain float triples."""
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(300):
        T = float(rng.uniform(0.25, 1.2))
        start = rng.uniform(-0.3, 0.3, 3) * (1.0, 1.0, 0.0)
        traj = build_swing(start, make_plan(cop=tuple(rng.uniform(-0.4, 0.4, 2)), duration=T))
        if rng.uniform() < 0.5:
            t_now = float(rng.uniform(0.0, 0.95 * T))
            new = make_plan(cop=tuple(rng.uniform(-0.4, 0.4, 2)),
                            duration=float(rng.uniform(0.05, 1.0)), planned_at=t_now)
            traj = retarget(traj, t_now, new)
        for t in rng.uniform(-0.1, traj.duration + 0.1, 8).tolist():
            t_eval = min(max(t, 0.0), traj.duration)
            z = traj.z_profile
            z_seg = z[0] if len(z) == 2 and t_eval < z[0].t_end else z[-1]
            want = [evaluate(seg, t_eval) for seg in (traj.x_profile, traj.y_profile, z_seg)]
            got = sample(traj, t)
            for k in range(3):  # position, velocity, acceleration
                assert all(type(v) is float for v in got[k])
                assert got[k] == tuple(float(axis[k]) for axis in want)
            checked += 1
    assert checked == 2400
