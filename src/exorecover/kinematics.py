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

Foot points and joint angles are ``(x, y, z)`` and ``(theta1, theta2,
theta3)`` float triples: ``forward_kinematics(q, geom)`` maps the angles
to the foot point and ``inverse_kinematics(p, geom, limits)`` maps a
foot point back to the angles.  Both take any three-element sequence.
Inputs are not re-validated per call; a non-finite target fails the
workspace check and raises :class:`WorkspaceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import JointLimitError, WorkspaceError
from .lipm import POSITIVE, require

__all__ = [
    "Side",
    "LegGeometry",
    "JointLimits",
    "forward_kinematics",
    "inverse_kinematics",
]

#: Guard band that keeps solutions away from workspace singularities.
BOUNDARY_GUARD = 1e-12


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


#: The sides under module names, for the per-tick code: on Python 3.11 a
#: member read off the class goes through ``EnumType.__getattr__``.
LEFT, RIGHT = Side


@dataclass(frozen=True)
class LegGeometry:
    """Link lengths in metres; ``l0`` is carried for trunk placement only.

    ``ScenarioConfig.leg_geometry(side)`` gives the default lengths."""

    l0: float  # trunk centre to hip ab/adduction joint (lateral)
    l1: float  # hip ab/adduction joint to flexion axis (lateral)
    l2: float  # thigh
    l3: float  # shank
    side: Side
    right: bool = field(init=False, repr=False)  # side is RIGHT, read on every tick

    def __post_init__(self):
        for name in ("l0", "l1", "l2", "l3"):
            require(name, getattr(self, name), POSITIVE)
        object.__setattr__(self, "right", self.side is RIGHT)


@dataclass(frozen=True)
class JointLimits:
    """Per-joint (min, max) bounds in radians; ``ScenarioConfig.joint_limits()``
    gives the defaults."""

    hip_ab: tuple[float, float]
    hip_flex: tuple[float, float]
    knee: tuple[float, float]

    def __post_init__(self):
        for name in ("hip_ab", "hip_flex", "knee"):
            lo, hi = getattr(self, name)
            if not (lo < hi):
                raise ValueError(f"{name} limits must satisfy min < max, got ({lo}, {hi})")


def forward_kinematics(q, geom: LegGeometry) -> tuple[float, float, float]:
    """Foot point ``(x, y, z)`` for joint angles ``q = (theta1, theta2, theta3)``.

    Exact chain of rotations.  Abduction is positive on both sides; the
    right leg mirrors only the lateral coordinate, so
    ``fk_right(q) == mirror_y(fk_left(q))`` for every angle triple.
    """
    t1, t2, t3 = q
    mirror = -1.0 if geom.right else 1.0

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
    return x_h, mirror * y, z


def _workspace_check(x: float, y: float, z: float, geom: LegGeometry) -> tuple[float, float] | str:
    """Returns (s, D) on success or a diagnostic string.

    Both tests fail on NaN and one on an infinity, so a non-finite target fails too.
    """
    r_sq = y * y + z * z
    r = math.sqrt(r_sq)
    if not (r >= geom.l1 + BOUNDARY_GUARD):
        return (
            f"lateral-plane distance {r:.6g} m inside the hip offset l1={geom.l1:.6g} m"
        )
    s = math.sqrt(r_sq - geom.l1 * geom.l1)
    D = (x * x + r_sq - geom.l1**2 - geom.l2**2 - geom.l3**2) / (2.0 * geom.l2 * geom.l3)
    if not (abs(D) <= 1.0 - BOUNDARY_GUARD):
        kind = "beyond full knee extension" if D > 0 else "inside full knee fold"
        return f"target {kind} (knee cosine {D:.6g})"
    return s, D


def inverse_kinematics(p, geom: LegGeometry, limits: JointLimits | None) -> tuple[float, float, float]:
    """Joint angles ``(theta1, theta2, theta3)`` reaching the foot point ``p``
    on the knee-flexed branch.

    Raises :class:`WorkspaceError` outside the reachable set (including
    any non-finite ``p``) and :class:`JointLimitError` when the solution
    violates ``limits`` (``None`` skips the check).
    """
    x, y, z = map(float, p)
    y_c = -y if geom.right else y
    checked = _workspace_check(x, y_c, z, geom)
    if isinstance(checked, str):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            checked = "non-finite target"
        raise WorkspaceError(f"unreachable target {[x, y, z]}: {checked}", diagnostic=checked)
    s, D = checked

    theta3 = math.atan2(math.sqrt(1.0 - D * D), D)
    theta1 = math.atan2(z, y_c) - math.atan2(-s, geom.l1)
    theta2 = math.atan2(x, s) + math.atan2(
        geom.l3 * math.sin(theta3), geom.l2 + geom.l3 * math.cos(theta3)
    )
    if limits is not None:
        (lo1, hi1), (lo2, hi2), (lo3, hi3) = limits.hip_ab, limits.hip_flex, limits.knee
        if (theta1 < lo1 or theta1 > hi1 or theta2 < lo2 or theta2 > hi2
                or theta3 < lo3 or theta3 > hi3):
            bad = tuple(name for value, lo, hi, name in (
                (theta1, lo1, hi1, "hip_ab"), (theta2, lo2, hi2, "hip_flex"),
                (theta3, lo3, hi3, "knee"),
            ) if value < lo or value > hi)
            # numpy's rounding, not round(): the message goes into events.csv.
            import numpy as np
            shown = np.array([theta1, theta2, theta3]).round(4).tolist()
            raise JointLimitError(f"solution {shown} rad violates limits on: " + ", ".join(bad),
                                  joints=bad)
    return theta1, theta2, theta3
