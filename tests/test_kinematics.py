"""Leg kinematics: frozen forward-map values, roundtrips, diagnostics."""

import math

import numpy as np
import pytest

from dataclasses import replace

from exorecover import (
    JointLimitError,
    ScenarioConfig,
    Side,
    WorkspaceError,
    forward_kinematics,
    inverse_kinematics,
)

DEFAULT = ScenarioConfig()
LEFT = DEFAULT.leg_geometry(Side.LEFT)
RIGHT = DEFAULT.leg_geometry(Side.RIGHT)
LIMITS = DEFAULT.joint_limits()


def test_zero_pose_hangs_straight_down():
    zero = np.zeros(3)
    assert np.allclose(forward_kinematics(zero, LEFT), [0.0, 0.04, -0.9], atol=0)
    assert np.allclose(forward_kinematics(zero, RIGHT), [0.0, -0.04, -0.9], atol=0)


def test_forward_kinematics_frozen_value():
    # Independently evaluated (30-digit symbolic arithmetic, then rounded
    # to float64) for theta = (0.1, 0.2, 0.3) on the left leg.
    foot = np.array(forward_kinematics((0.1, 0.2, 0.3), LEFT))
    expected = [0.044476161366704875, 0.12853029379327488, -0.8803482905892234]
    assert np.abs(foot - expected).max() < 1e-15


def test_right_leg_mirrors_lateral_axis_only():
    rng = np.random.default_rng(17)
    for _ in range(100):
        ang = rng.uniform(-0.8, 0.8, 3)
        left = forward_kinematics(ang, LEFT)
        right = forward_kinematics(ang, RIGHT)
        assert right[0] == left[0]
        assert right[1] == -left[1]
        assert right[2] == left[2]


def test_pure_knee_flexion_shortens_leg():
    for t3 in (0.2, 0.6, 1.0):
        foot = forward_kinematics((0.0, 0.0, t3), LEFT)
        assert foot[0] < 0.0  # shank folds backward
        assert foot[2] > -0.9
        # Thigh-plane distance from the flexion axis is l2^2+l3^2+2 l2 l3 cos t3.
        d_sq = foot[0] ** 2 + foot[2] ** 2
        expect = 0.45**2 + 0.45**2 + 2 * 0.45 * 0.45 * math.cos(t3)
        assert d_sq == pytest.approx(expect, abs=1e-12)


def test_pure_hip_flexion_swings_forward():
    foot = forward_kinematics((0.0, 0.5, 0.0), LEFT)
    assert foot[0] == pytest.approx(0.9 * math.sin(0.5), abs=1e-15)
    assert foot[2] == pytest.approx(-0.9 * math.cos(0.5), abs=1e-15)
    assert foot[1] == 0.04


def test_abduction_moves_foot_away_from_midline_on_both_sides():
    left = forward_kinematics((0.3, 0.0, 0.0), LEFT)
    right = forward_kinematics((0.3, 0.0, 0.0), RIGHT)
    assert left[1] > 0.04  # further left
    assert right[1] < -0.04  # further right
    assert left[1] == -right[1]


def test_abduction_preserves_lateral_plane_radius():
    for t1 in np.linspace(-1.0, 1.0, 9):
        foot = forward_kinematics((float(t1), 0.3, 0.4), LEFT)
        r = math.hypot(foot[1], foot[2])
        foot0 = forward_kinematics((0.0, 0.3, 0.4), LEFT)
        assert r == pytest.approx(math.hypot(foot0[1], foot0[2]), abs=1e-14)


def test_roundtrip_ik_fk_random_poses():
    """IK(FK(theta)) == theta and FK(IK(x)) == x to 1e-9 on both legs."""
    rng = np.random.default_rng(3021)
    count = 0
    for geom in (LEFT, RIGHT):
        while count < 500 * (1 + (geom is RIGHT)):
            t1 = rng.uniform(-0.3, 0.3)
            t2 = rng.uniform(-0.3, 1.4)
            t3 = rng.uniform(0.05, 2.0)
            ang = np.array([t1, t2, t3])
            target = np.array(forward_kinematics(ang, geom))
            back = np.array(inverse_kinematics(target, geom, limits=None))
            assert np.abs(back - ang).max() < 1e-9
            again = np.array(forward_kinematics(back, geom))
            assert np.abs(again - target).max() < 1e-9
            count += 1


def test_knee_angle_branch_is_nonnegative():
    rng = np.random.default_rng(404)
    for _ in range(200):
        ang = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 1.2), rng.uniform(0.05, 2.0))
        target = forward_kinematics(ang, LEFT)
        sol = inverse_kinematics(target, LEFT, limits=None)
        assert sol[2] >= 0.0


def test_too_far_target_rejected_with_extension_diagnostic():
    with pytest.raises(WorkspaceError) as err:
        inverse_kinematics([0.0, 0.04, -0.95], LEFT, LIMITS)
    assert "full knee extension" in str(err.value)
    assert err.value.diagnostic is not None


def test_too_close_target_rejected_with_fold_diagnostic():
    # Equal link lengths fold completely, so an inner boundary only
    # exists for asymmetric links.
    geom = replace(LEFT, l2=0.5, l3=0.3)
    with pytest.raises(WorkspaceError) as err:
        inverse_kinematics([0.0, 0.04, -0.1], geom, limits=None)
    assert "knee fold" in str(err.value)


def test_inside_hip_offset_rejected():
    with pytest.raises(WorkspaceError) as err:
        inverse_kinematics([0.2, 0.0, 0.0], LEFT, limits=None)
    assert "hip offset" in str(err.value)


def test_joint_limits_enforced_and_named():
    # Reachable point that needs theta2 ~ 57 deg with a tight flexion cap.
    tight = replace(LIMITS, hip_flex=(-0.2, 0.2))
    target = forward_kinematics((0.0, 1.0, 0.3), LEFT)
    with pytest.raises(JointLimitError) as err:
        inverse_kinematics(target, LEFT, limits=tight)
    assert "hip_flex" in err.value.joints
    # Same target passes without limits.
    inverse_kinematics(target, LEFT, limits=None)


@pytest.mark.parametrize("hip_ab, shown", [
    # numpy keeps the sign of an angle that rounds to zero;
    # round(x * 1e4) / 1e4 gives 0.0.
    (-3e-6, "-0.0"),
    # numpy multiplies, rounds half to even and divides; round(x, 4) is
    # correctly rounded and gives -0.2995.
    (-0.29955, "-0.2996"),
])
def test_joint_limit_message_rounds_as_numpy(hip_ab, shown):
    """The rejected angles in the message (and so in events.csv) are
    ``np.round(angles, 4)``, signed zeros and halfway cases included."""
    tight = replace(LIMITS, knee=(0.5, 2.0))
    with pytest.raises(JointLimitError) as err:
        inverse_kinematics(forward_kinematics((hip_ab, 0.3, 0.3), LEFT), LEFT, limits=tight)
    assert str(err.value) == f"solution [{shown}, 0.3, 0.3] rad violates limits on: knee"


def test_out_of_workspace_probes_around_boundary():
    """Random probes outside the leg's reach all raise with a diagnostic."""
    rng = np.random.default_rng(9090)
    max_reach = 0.04 + 0.45 + 0.45
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        point = direction * (max_reach + rng.uniform(0.01, 0.5))
        with pytest.raises(WorkspaceError):
            inverse_kinematics(point, LEFT, limits=None)


def test_geometry_validation():
    with pytest.raises(ValueError):
        replace(LEFT, l2=0.0)
    with pytest.raises(ValueError):
        replace(LIMITS, knee=(1.0, 0.5))


def test_non_finite_target_rejected():
    """Any non-finite coordinate raises, and the diagnostic says so."""
    for geom in (LEFT, RIGHT):
        inverse_kinematics([0.1, 0.04, -0.8], geom, LIMITS)
        for i in range(3):
            for bad in (math.nan, math.inf, -math.inf):
                point = [0.1, 0.04, -0.8]
                point[i] = bad
                with pytest.raises(WorkspaceError) as err:
                    inverse_kinematics(point, geom, LIMITS)
                assert err.value.diagnostic == "non-finite target"
    with pytest.raises(ValueError):
        inverse_kinematics([0.0, 0.0], LEFT, LIMITS)
