"""Quintic swing-foot trajectories with mid-flight retargeting.

The vertical profile is two quintic pieces meeting at the apex: the foot
climbs to ``peak_height`` at ``peak_fraction`` of the step duration and
returns to the ground at touchdown, with zero velocity and acceleration
at lift-off, apex and touchdown.  Both pieces are scaled smoothsteps, so
the climb and descent are monotone.  Horizontal coordinates are single
quintics from rest to rest.

``retarget`` splices a new trajectory onto the old one mid-flight: the
sampled position, velocity and acceleration at the splice time become
the new initial conditions, which keeps the composite path twice
continuously differentiable.  Past the apex the vertical profile
collapses to a single quintic straight to touchdown.

All coordinates live in one fixed horizontal frame shared by the start
point and the plan's landing CoP (the simulator uses the world frame and
converts to leg coordinates only when solving IK).

Everything here is Python floats: a segment's coefficients are a float
6-tuple, :func:`sample` returns ``(position, velocity,
acceleration)`` as three ``(x, y, z)`` float triples, and
:func:`sample_position`, which the loop tracks every tick, returns the
position alone.  Inputs are
checked once, where they enter: :func:`build_swing` and
:func:`retarget` check their arguments and build each
:class:`QuinticSegment` from the floats they computed.  Each Horner sum
keeps the operation order of its array form, so the values are the same
bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lipm import FINITE, POSITIVE, Rule, clip, require
from .planner import StepPlan

__all__ = [
    "QuinticSegment",
    "SwingTrajectory",
    "build_swing",
    "sample",
    "sample_position",
    "retarget",
]


#: Where the apex may fall, as a share of the step duration.
PEAK_FRACTION = Rule(lambda v: FINITE.test(v) and 0.0 < v < 1.0, "in (0, 1)")


class QuinticSegment(NamedTuple):
    """Degree-5 polynomial on [t_start, t_end] in the local variable t - t_start."""

    coefficients: tuple[float, ...]  # 6 floats, ascending powers
    t_start: float
    t_end: float


def _quintic(t0: float, t1: float, p0: float, v0: float, a0: float,
             p1: float, v1: float, a1: float) -> QuinticSegment:
    """The unique quintic on ``[t0, t1]``, ``t1 > t0``, matching position
    ``p``, velocity ``v`` and acceleration ``a`` at both ends, in closed form."""
    T = t1 - t0
    h = p1 - p0
    T2 = T * T
    return QuinticSegment((
        p0,
        v0,
        0.5 * a0,
        (20.0 * h - (8.0 * v1 + 12.0 * v0) * T - (3.0 * a0 - a1) * T2) / (2.0 * T2 * T),
        (-30.0 * h + (14.0 * v1 + 16.0 * v0) * T + (3.0 * a0 - 2.0 * a1) * T2) / (2.0 * T2 * T2),
        (12.0 * h - 6.0 * (v1 + v0) * T + (a1 - a0) * T2) / (2.0 * T2 * T2 * T),
    ), t0, t1)


class SwingTrajectory(NamedTuple):
    """Per-axis profiles over the local time window [0, duration]."""

    x_profile: QuinticSegment
    y_profile: QuinticSegment
    z_profile: tuple[QuinticSegment, ...]  # two pieces, or one after a late retarget
    duration: float  # s
    peak_height: float

    @property
    def apex_time(self) -> float | None:
        """Junction time of the two vertical pieces; None once collapsed."""
        if len(self.z_profile) == 2:
            return self.z_profile[0].t_end
        return None


def _landing(plan: StepPlan) -> tuple[float, float]:
    """The plan's landing point as floats, once its point and duration are checked."""
    x, y = plan.cop_T
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"plan landing point must be finite, got {plan.cop_T}")
    if not (plan.duration > 0.0) or not math.isfinite(plan.duration):
        raise ValueError(f"plan duration must be positive, got {plan.duration}")
    return float(x), float(y)


def build_swing(start, plan: StepPlan, peak_height: float, peak_fraction: float) -> SwingTrajectory:
    """Trajectory from a resting foot at ``start`` (an ``(x, y, z)`` point) to
    the plan's landing CoP."""
    land_x, land_y = _landing(plan)
    require("peak_height", peak_height, POSITIVE)
    require("peak_fraction", peak_fraction, PEAK_FRACTION)
    start = [float(v) for v in start]
    if len(start) != 3 or not all(map(math.isfinite, start)):
        raise ValueError(f"start must be a finite 3-vector, got {start}")

    T = float(plan.duration)
    t_apex = peak_fraction * T
    peak = float(peak_height)
    x0, y0, z0 = start
    return SwingTrajectory(
        x_profile=_quintic(0.0, T, x0, 0.0, 0.0, land_x, 0.0, 0.0),
        y_profile=_quintic(0.0, T, y0, 0.0, 0.0, land_y, 0.0, 0.0),
        z_profile=(_quintic(0.0, t_apex, z0, 0.0, 0.0, peak, 0.0, 0.0),
                   _quintic(t_apex, T, peak, 0.0, 0.0, 0.0, 0.0, 0.0)),
        duration=T,
        peak_height=peak,
    )


def sample_position(traj: SwingTrajectory, t: float) -> tuple[float, float, float]:
    """The foot point ``(x, y, z)`` at local time ``t`` clamped to [0,
    duration]: ``sample(traj, t)[0]``, without the velocity and acceleration.

    It runs on every in-flight tick, so the clamp (``clip``'s, a tie or
    a NaN keeping ``t``) and each axis' Horner sum are written out in place."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    T = traj.duration
    t = 0.0 if 0.0 > t else t
    t = T if T < t else t
    pieces = traj.z_profile
    z = pieces[0] if len(pieces) == 2 and t < pieces[0].t_end else pieces[-1]
    x, y = traj.x_profile, traj.y_profile
    s = t - x.t_start
    c0, c1, c2, c3, c4, c5 = x.coefficients
    px = c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))
    s = t - y.t_start
    c0, c1, c2, c3, c4, c5 = y.coefficients
    py = c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))
    s = t - z.t_start
    c0, c1, c2, c3, c4, c5 = z.coefficients
    return px, py, c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))


def sample(traj: SwingTrajectory, t: float) -> tuple[tuple[float, float, float], ...]:
    """``(position, velocity, acceleration)``, each an ``(x, y, z)`` float
    triple, at local time ``t`` clamped to [0, duration].

    The position is :func:`sample_position`'s; the derivatives are Horner
    sums over the same segments."""
    position = sample_position(traj, t)
    t_eval = clip(t, 0.0, traj.duration)
    pieces = traj.z_profile
    z = pieces[0] if len(pieces) == 2 and t_eval < pieces[0].t_end else pieces[-1]
    x, y = traj.x_profile, traj.y_profile
    s = t_eval - x.t_start
    _, c1, c2, c3, c4, c5 = x.coefficients
    vx = c1 + s * (2 * c2 + s * (3 * c3 + s * (4 * c4 + s * 5 * c5)))
    ax = 2 * c2 + s * (6 * c3 + s * (12 * c4 + s * 20 * c5))
    s = t_eval - y.t_start
    _, c1, c2, c3, c4, c5 = y.coefficients
    vy = c1 + s * (2 * c2 + s * (3 * c3 + s * (4 * c4 + s * 5 * c5)))
    ay = 2 * c2 + s * (6 * c3 + s * (12 * c4 + s * 20 * c5))
    s = t_eval - z.t_start
    _, c1, c2, c3, c4, c5 = z.coefficients
    vz = c1 + s * (2 * c2 + s * (3 * c3 + s * (4 * c4 + s * 5 * c5)))
    az = 2 * c2 + s * (6 * c3 + s * (12 * c4 + s * 20 * c5))
    return position, (vx, vy, vz), (ax, ay, az)


def retarget(traj: SwingTrajectory, t_now: float, new_plan: StepPlan) -> SwingTrajectory:
    """Splice a new trajectory at local time ``t_now``.

    The new trajectory starts its own clock at zero and lasts
    ``new_plan.duration`` (the remaining swing time).  Boundary state at
    the splice is taken from the old trajectory, so position, velocity
    and acceleration are continuous across the splice.
    """
    land_x, land_y = _landing(new_plan)
    if not (0.0 <= t_now < traj.duration):
        raise ValueError(f"t_now must be in [0, {traj.duration}), got {t_now}")
    (px, py, pz), (vx, vy, vz), (ax, ay, az) = sample(traj, t_now)
    T = float(new_plan.duration)

    # The apex keeps its original instant: under once-per-cycle
    # retargeting this reproduces the old vertical pieces exactly (the
    # re-solved quintic matches the restriction of the old one by
    # uniqueness), instead of letting the apex recede with each splice.
    apex = traj.apex_time
    to_apex = None if apex is None else apex - t_now
    if to_apex is None or to_apex < 1e-6 or to_apex >= T - 1e-6:
        z_pieces = (_quintic(0.0, T, pz, vz, az, 0.0, 0.0, 0.0),)
    else:
        peak = traj.peak_height
        z_pieces = (
            _quintic(0.0, to_apex, pz, vz, az, peak, 0.0, 0.0),
            _quintic(to_apex, T, peak, 0.0, 0.0, 0.0, 0.0, 0.0),
        )
    return SwingTrajectory(_quintic(0.0, T, px, vx, ax, land_x, 0.0, 0.0),
                           _quintic(0.0, T, py, vy, ay, land_y, 0.0, 0.0),
                           z_pieces, T, traj.peak_height)
