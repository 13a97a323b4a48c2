"""Analytic kinematics of a 3-DoF leg (hip ab/adduction, hip flexion, knee).

Frame convention
----------------
Targets live in a trunk-aligned frame anchored at the leg's hip
ab/adduction joint: x forward, y to the left, z up.  The pelvis offset
``l0`` (trunk centre to hip joint) therefore never enters these
formulas; callers place the frame.  At the zero pose the leg hangs
straight down with a lateral offset, so the foot sits at
``(0, +l1, -(l2+l3))`` for a left leg and ``(0, -l1, ...)`` for a right
leg.

Joint conventions (the right leg mirrors the lateral coordinate only;
angles mean the same thing on both sides):

* ``theta1`` rotates about x; positive moves the foot away from the
  midline (abduction).
* ``theta2`` is hip flexion about the leg's own y axis; positive moves
  the foot forward.
* ``theta3`` is knee flexion; positive folds the shank backward.  The
  returned branch always has ``theta3 >= 0``.

Closed-form solution
--------------------
With ``r^2 = y^2 + z^2`` (invariant under ``theta1``) and
``s = sqrt(r^2 - l1^2)`` the three angles are

    theta1 = atan2(z, y) - atan2(-s, l1)
    D      = (x^2 + r^2 - l1^2 - l2^2 - l3^2) / (2*l2*l3)
    theta3 = atan2(+sqrt(1 - D^2), D)
    theta2 = atan2(x, s) + atan2(l3*sin(theta3), l2 + l3*cos(theta3))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, JointLimitError, WorkspaceError

__all__ = [
    "Side",
    "LegGeometry",
    "JointLimits",
    "JointAngles",
    "FootTarget",
    "Reachability",
    "forward_kinematics",
    "inverse_kinematics",
    "reachable",
    "workspace_step_bounds",
    "DEFAULT_LIMITS",
]

#: Guard band that keeps solutions away from workspace singularities.
BOUNDARY_GUARD = 1e-12

_DEG = math.pi / 180.0


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class LegGeometry:
    """Link lengths in metres; ``l0`` is carried for trunk placement only."""

    l0: float = 0.06  # trunk centre to hip ab/adduction joint (lateral)
    l1: float = 0.04  # hip ab/adduction joint to flexion axis (lateral)
    l2: float = 0.45  # thigh
    l3: float = 0.45  # shank
    side: Side = Side.RIGHT

    def __post_init__(self):
        for name in ("l0", "l1", "l2", "l3"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be positive, got {v}")


@dataclass(frozen=True)
class JointLimits:
    """Per-joint (min, max) bounds in radians."""

    hip_ab: tuple[float, float] = (-20.0 * _DEG, 20.0 * _DEG)
    hip_flex: tuple[float, float] = (-20.0 * _DEG, 100.0 * _DEG)
    knee: tuple[float, float] = (0.0, 120.0 * _DEG)

    def __post_init__(self):
        for name in ("hip_ab", "hip_flex", "knee"):
            lo, hi = getattr(self, name)
            if not (lo < hi):
                raise ValueError(f"{name} limits must satisfy min < max, got ({lo}, {hi})")


DEFAULT_LIMITS = JointLimits()


@dataclass(frozen=True)
class JointAngles:
    """(theta1, theta2, theta3) in radians."""

    theta1: float
    theta2: float
    theta3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2, self.theta3])


@dataclass(frozen=True)
class FootTarget:
    """Foot point in the trunk-aligned frame anchored at the hip ab/adduction joint."""

    position: np.ndarray  # (3,) m

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(-1)
        if pos.shape != (3,):
            raise ValueError(f"position must have 3 components, got shape {np.shape(self.position)}")
        if not np.all(np.isfinite(pos)):
            raise ValueError(f"position must be finite, got {pos}")
        object.__setattr__(self, "position", pos)


class Reachability(NamedTuple):
    ok: bool
    reason: str | None


def forward_kinematics(angles: JointAngles, geom: LegGeometry) -> FootTarget:
    """Foot position for given joint angles (exact chain of rotations).

    Abduction is positive on both sides; the right leg mirrors only the
    lateral coordinate, so
    ``fk_right(t) == mirror_y(fk_left(t))`` for every angle triple.
    """
    t1, t2, t3 = angles.theta1, angles.theta2, angles.theta3
    mirror = -1.0 if geom.side is Side.RIGHT else 1.0

    # Shank endpoint in the thigh frame: positive knee flexion folds the
    # shank backward (negative x).
    x_k = -geom.l3 * math.sin(t3)
    z_k = -(geom.l2 + geom.l3 * math.cos(t3))
    # Hip flexion: positive theta2 carries the foot forward.
    c2, s2 = math.cos(t2), math.sin(t2)
    x_h = x_k * c2 - z_k * s2
    z_h = x_k * s2 + z_k * c2
    y_h = geom.l1
    # Hip ab/adduction about x: positive theta1 moves the foot away from
    # the midline of the canonical (left) leg.
    c1, s1 = math.cos(t1), math.sin(t1)
    y = y_h * c1 - z_h * s1
    z = y_h * s1 + z_h * c1
    return FootTarget(np.array([x_h, mirror * y, z]))


def _canonical_target(target: FootTarget, geom: LegGeometry) -> tuple[float, float, float]:
    x, y, z = target.position
    if geom.side is Side.RIGHT:
        y = -y
    return float(x), float(y), float(z)


def _workspace_check(x: float, y: float, z: float, geom: LegGeometry) -> tuple[float, float] | str:
    """Returns (s, D) on success or a diagnostic string."""
    r_sq = y * y + z * z
    r = math.sqrt(r_sq)
    if r < geom.l1 + BOUNDARY_GUARD:
        return (
            f"lateral-plane distance {r:.6g} m inside the hip offset l1={geom.l1:.6g} m"
        )
    s = math.sqrt(r_sq - geom.l1 * geom.l1)
    D = (x * x + r_sq - geom.l1**2 - geom.l2**2 - geom.l3**2) / (2.0 * geom.l2 * geom.l3)
    if abs(D) > 1.0 - BOUNDARY_GUARD:
        kind = "beyond full knee extension" if D > 0 else "inside full knee fold"
        return f"target {kind} (knee cosine {D:.6g})"
    return s, D


def inverse_kinematics(
    target: FootTarget,
    geom: LegGeometry,
    limits: JointLimits | None = DEFAULT_LIMITS,
) -> JointAngles:
    """Joint angles reaching ``target`` on the knee-flexed branch.

    Raises :class:`WorkspaceError` outside the reachable set and
    :class:`JointLimitError` when the solution violates ``limits``
    (pass ``limits=None`` to skip the check).
    """
    x, y, z = _canonical_target(target, geom)
    checked = _workspace_check(x, y, z, geom)
    if isinstance(checked, str):
        raise WorkspaceError(f"unreachable target {target.position.tolist()}: {checked}",
                             diagnostic=checked)
    s, D = checked

    theta3 = math.atan2(math.sqrt(1.0 - D * D), D)
    theta1 = math.atan2(z, y) - math.atan2(-s, geom.l1)
    theta2 = math.atan2(x, s) + math.atan2(
        geom.l3 * math.sin(theta3), geom.l2 + geom.l3 * math.cos(theta3)
    )
    angles = JointAngles(theta1, theta2, theta3)

    if limits is not None:
        bad = []
        for value, (lo, hi), name in (
            (angles.theta1, limits.hip_ab, "hip_ab"),
            (angles.theta2, limits.hip_flex, "hip_flex"),
            (angles.theta3, limits.knee, "knee"),
        ):
            if value < lo or value > hi:
                bad.append(name)
        if bad:
            raise JointLimitError(
                f"solution {angles.as_array().round(4).tolist()} rad violates limits on: "
                + ", ".join(bad),
                joints=tuple(bad),
            )
    return angles


def reachable(
    target: FootTarget,
    geom: LegGeometry,
    limits: JointLimits | None = DEFAULT_LIMITS,
) -> Reachability:
    """Cheap feasibility certificate with a human-readable reason."""
    x, y, z = _canonical_target(target, geom)
    checked = _workspace_check(x, y, z, geom)
    if isinstance(checked, str):
        return Reachability(False, checked)
    if limits is not None:
        try:
            inverse_kinematics(target, geom, limits)
        except JointLimitError as err:
            return Reachability(False, str(err))
    return Reachability(True, None)


def workspace_step_bounds(
    geom: LegGeometry,
    stance_pose: JointAngles,
    margin: float,
    limits: JointLimits | None = DEFAULT_LIMITS,
    T_min: float = 0.25,
    T_max: float = 1.2,
):
    """Large reachable landing box at ground height, shrunk by ``margin``.

    The box is centred on ``(0, y_foot)`` where ``y_foot`` is the stance
    pose's lateral foot offset, symmetric in x about the hip projection.
    A square box is grown first by bisection on corner reachability (so
    neither axis is starved), then each half-width is extended with the
    other held, and both are reduced by ``margin``; an empty result
    raises ConfigurationError.  Returned bounds are displacements in the
    hip frame; callers translate them into the world.
    """
    from .planner import StepBounds  # local import avoids a cycle

    if not (margin >= 0.0) or not math.isfinite(margin):
        raise ValueError(f"margin must be >= 0, got {margin}")
    foot0 = forward_kinematics(stance_pose, geom).position
    z_ground = float(foot0[2])
    y_c = float(foot0[1])

    def corner_ok(hx: float, hy: float) -> bool:
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                t = FootTarget(np.array([sx * hx, y_c + sy * hy, z_ground]))
                if not reachable(t, geom, limits).ok:
                    return False
        return True

    def bisect(predicate, hi_start: float) -> float:
        lo, hi = 0.0, hi_start
        if not predicate(lo):
            return 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if predicate(mid):
                lo = mid
            else:
                hi = mid
        return lo

    reach = geom.l1 + geom.l2 + geom.l3
    h_sq = bisect(lambda h: corner_ok(h, h), reach)
    hx = bisect(lambda h: corner_ok(h, h_sq), reach)
    hy = bisect(lambda h: corner_ok(hx, h), reach)
    hx -= margin
    hy -= margin
    if hx <= 0.0 or hy <= 0.0:
        raise ConfigurationError(
            f"workspace box empty after margin {margin} m (half-widths {hx:.4g}, {hy:.4g})"
        )
    return StepBounds(
        cop_min=np.array([-hx, y_c - hy]),
        cop_max=np.array([hx, y_c + hy]),
        T_min=T_min,
        T_max=T_max,
    )
