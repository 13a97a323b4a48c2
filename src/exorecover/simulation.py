"""Closed-loop push-recovery simulation at a fixed control rate.

One scenario runs a planar pendulum model of the wearer, a balance
detector, the step-adaptation planner, a swing-foot trajectory tracked
through per-joint impedance control, and torque-driven joint plants,
all on a common fixed-step clock (1 kHz by default).

World frame: x forward, y left, origin at the standing centre of
pressure.  The hip joints sit on the CoM plane, laterally offset by
``l0`` from the trunk centre, so a world foot point converts to the leg
frame by subtracting the hip position.

The loop is split in two.  The :class:`Plant` holds the pendulum, the
tracked leg's joint plants, the push schedule, the wearer's torque
pulses and the sensors; the :class:`Controller` holds the phase
machine, planning, swing, inverse kinematics and the impedance law,
sees the plant only through a :class:`Measurement` and answers with a
:class:`Command`.

Measurement model: the controller never reads the CoM directly.  Trunk
attitude is synthesised from the true CoM as ``pitch =
asin((com_x - ref_x) / L)`` (same for roll with y), optionally
corrupted with white noise, and the estimator inverts it with
``L * sin``.  Velocity is taken from the state.  The anchor ``ref`` is
the stance reference and moves only at touchdown.  While a leg swings
the plant also reports where that foot is: forward kinematics of the
measured joint angles about the hip, which at touchdown is where the
foot landed.

Per cycle: scheduled pushes are applied, the DCM is estimated, the
phase machine advances (trigger, replan, touchdown, capture, chain),
desired torques are computed, one row is logged, and the pendulum and
the joint plants integrate to the next tick.  ``run_scenario`` runs each
stretch of ticks with no leg in flight (the detector ``Standing``,
``Landed`` or ``Captured``) in one inner loop on local variables; a tick
there that plans a step is finished by the controller's trigger or chain
code.  While a step is in flight the planner re-solves every
cycle over the shrunk duration window; when the plan moves materially
the swing trajectory is respliced in place.  After touchdown the stance CoP is the measured DCM
clamped into the new foot's support rectangle, which pins the DCM and
leads to capture.  While standing the same clamp runs over the current
support polygon (both feet before a step, the landed foot after), so
small sensor noise or a residual post-capture offset is held by the
ankle strategy instead of drifting.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from .detector import CAPTURED, LANDED, STANDING, STEPPING_PLANNED, SWING, BalanceDetector
from .errors import ConfigurationError, PlannerInfeasibleError, WorkspaceError, JointLimitError
from .impedance import RAD_PER_DEG, command_torques, impedance_torque, joint_plant_step
from .kinematics import (LEFT, RIGHT, JointLimits, LegGeometry, Side, forward_kinematics,
                         inverse_kinematics)
from .lipm import (FINITE, NONNEGATIVE, NONNEGATIVE_INT, POSITIVE, POSITIVE_INT, Rule, apply_impulse,
                   as_vec2, broken, natural_frequency, require, step_lipm)
from .planner import (
    NominalGait,
    StepBounds,
    StepPlan,
    StepProgram,
    mirror_bounds,
    mirror_gait,
    plan_step,
    replan,
    step_program,
)
from .swing import PEAK_FRACTION, SwingTrajectory, build_swing, retarget, sample_position

__all__ = [
    "PushEvent",
    "HumanPulse",
    "ScenarioConfig",
    "Event",
    "SimTrace",
    "StepSummary",
    "Measurement",
    "Command",
    "Controller",
    "Plant",
    "estimate_com",
    "run_scenario",
    "summarize",
]

#: Bounds of the attitude synthesis' ``asin`` argument.
_ASIN_LO, _ASIN_HI = -1.0 + 1e-12, 1.0 - 1e-12

#: The inclinometer's range in pitch and roll, rad: it saturates at +-(pi/2 - 1e-9).
_TILT_LO, _TILT_HI = -(0.5 * math.pi - 1e-9), 0.5 * math.pi - 1e-9

#: Plans moving less than this (in landing point or landing time) do not
#: resplice the swing trajectory or emit a Replanned event.
MATERIAL_CHANGE = 1e-9

Vec2 = tuple[float, float]
Vec3 = tuple[float, float, float]

#: Joint rates and torques of a leg at rest, and the wearer torque when no
#: pulse is active.  ``_run_stance`` tests the rates and the wearer torque
#: for this object with ``is`` and does not integrate a leg whose rates and
#: wearer torque are both it: a rate RK4 computed is a new tuple, even when zero.
_REST = (0.0, 0.0, 0.0)

#: What ``Measurement(...)`` and ``Command(...)`` call once their fields are
#: in order; the per-tick ones are built with it directly.
_new = tuple.__new__

#: One ``run_scenario`` log row: 21 native doubles, 168 bytes.
_ROW = struct.Struct("21d")

#: The rules of the config fields and records that no other module checks.
DT = Rule(lambda v: FINITE.test(v) and 0.0 < v <= 0.01, "in (0, 0.01]")
MODE = Rule(("assist", "zero_torque").__contains__, "assist or zero_torque")
UNSET_OR_POSITIVE = Rule(lambda v: v is None or POSITIVE.test(v), "positive")
JOINT = Rule(lambda v: NONNEGATIVE_INT.test(v) and v <= 2, "0, 1 or 2")
#: What ``pushes`` and ``human_pulses`` are; each record is then checked apart.
RECORDS = Rule(lambda v: isinstance(v, (tuple, list)), "a tuple or list")


@dataclass(frozen=True)
class PushEvent:
    """Impulsive disturbance applied to the CoM at a fixed time."""

    time: float  # s
    impulse: tuple[float, float]  # N*s

    def __post_init__(self):
        object.__setattr__(self, "impulse", as_vec2(self.impulse, "impulse"))
        require("push time", self.time, NONNEGATIVE)


@dataclass(frozen=True)
class HumanPulse:
    """Constant wearer torque on one swing-leg joint over a time window."""

    joint: int  # 0 = hip ab/adduction, 1 = hip flexion, 2 = knee
    start: float  # s
    end: float  # s
    torque: float  # N*m

    def __post_init__(self):
        require("joint", self.joint, JOINT)
        require("start", self.start, NONNEGATIVE)
        require("end", self.end, FINITE)
        require("torque", self.torque, FINITE)
        if not self.start < self.end:
            raise ValueError(f"need start < end, got [{self.start}, {self.end}]")


def estimate_com(roll: float, pitch: float, pendulum_length: float) -> tuple[float, float]:
    """Horizontal CoM offset ``(x, y)`` from the stance reference, ``L * sin(angle)``.

    ``roll`` is positive leaning left, ``pitch`` positive leaning forward,
    both in radians; ``pendulum_length`` is the validated ``com_height``.
    """
    return pendulum_length * math.sin(pitch), pendulum_length * math.sin(roll)


def _sensed_com(com: Vec2, anchor: Vec2, L: float, noise) -> Vec2:
    """The attitude sensor's CoM estimate, in the world frame.

    Trunk pitch and roll are synthesised from the true ``com`` about
    ``anchor`` on a pendulum of length ``L``, the next two draws of
    ``noise`` (pitch, then roll) are added when it is not None, the
    inclinometer saturates, and :func:`estimate_com` inverts the reading.
    """
    (x, y), (ax, ay) = com, anchor
    # Clipped into the asin's domain; a tie gives the bound, as in np.clip.
    sx, sy = (x - ax) / L, (y - ay) / L
    sx = sx if sx > _ASIN_LO else _ASIN_LO
    sy = sy if sy > _ASIN_LO else _ASIN_LO
    pitch = math.asin(sx if sx < _ASIN_HI else _ASIN_HI)
    roll = math.asin(sy if sy < _ASIN_HI else _ASIN_HI)
    if noise is not None:
        pitch, roll = pitch + next(noise), roll + next(noise)
        # The inclinometer saturates at the edge of its range, clipped as
        # lipm.clip clips: a tie or a NaN keeps the reading.
        pitch = _TILT_LO if _TILT_LO > pitch else pitch
        roll = _TILT_LO if _TILT_LO > roll else roll
        pitch = _TILT_HI if _TILT_HI < pitch else pitch
        roll = _TILT_HI if _TILT_HI < roll else roll
    ex, ey = estimate_com(roll, pitch, L)
    return ax + ex, ay + ey


def _box(center: Vec2, half: Vec2) -> tuple[float, float, float, float]:
    """``(lo_x, hi_x, lo_y, hi_y)``: ``np.clip``'s bounds ``center -+ half``."""
    (cx, cy), (hx, hy) = center, half
    return cx - hx, cx + hx, cy - hy, cy + hy


def _key(default, key: str, help: str, rule: Rule):
    """Config field read from scenario files as ``key``, described by ``help``,
    valid when it keeps ``rule``."""
    return field(default=default, metadata={"key": key, "help": help, "rule": rule})


@dataclass
class ScenarioConfig:
    """Every knob of one simulation run; defaults give a standing human.

    Planner geometry convention: ``cop_nom``, ``cop_min`` and ``cop_max``
    are displacements from the stance-foot ankle, written for a
    right-leg swing; a left-leg swing mirrors the lateral axis.  The
    planner takes them in that frame and adds the stance CoP itself.

    Each field's metadata holds its scenario-file key, help text and
    rule; ``validate`` checks each field against its rule, and the CLI
    derives its key table from all three, in field order.
    """

    # pendulum
    gravity: float = _key(9.81, "lipm.gravity", "m/s^2", POSITIVE)
    com_height: float = _key(0.88, "lipm.com_height", "m, pendulum height", POSITIVE)
    mass: float = _key(70.0, "lipm.mass", "kg", POSITIVE)
    com0: tuple[float, float] = _key((0.0, 0.0), "lipm.com0", "m, initial CoM", FINITE)
    vel0: tuple[float, float] = _key((0.0, 0.0), "lipm.vel0", "m/s, initial CoM velocity", FINITE)
    # leg geometry (m) and joint limits (deg)
    l0: float = _key(0.06, "geometry.l0", "m, trunk centre to hip joint", POSITIVE)
    l1: float = _key(0.04, "geometry.l1", "m, hip joint lateral offset", POSITIVE)
    l2: float = _key(0.45, "geometry.l2", "m, thigh", POSITIVE)
    l3: float = _key(0.45, "geometry.l3", "m, shank", POSITIVE)
    stance_width: float | None = _key(
        None, "geometry.stance_width", "m, default 2*(l0+l1)", UNSET_OR_POSITIVE)
    hip_ab_limits_deg: tuple[float, float] = _key((-20.0, 20.0), "limits.hip_ab_deg", "deg, min,max", FINITE)
    hip_flex_limits_deg: tuple[float, float] = _key(
        (-20.0, 100.0), "limits.hip_flex_deg", "deg, min,max", FINITE)
    knee_limits_deg: tuple[float, float] = _key((0.0, 120.0), "limits.knee_deg", "deg, min,max", FINITE)
    # detector
    ellipse_a: float = _key(0.05, "detector.ellipse_a", "m, forward semi-axis", POSITIVE)
    ellipse_b: float = _key(0.05, "detector.ellipse_b", "m, lateral semi-axis", POSITIVE)
    debounce_cycles: int = _key(2, "detector.debounce_cycles", "cycles outside before trigger", POSITIVE_INT)
    capture_tolerance: float = _key(0.02, "detector.capture_tolerance", "m", POSITIVE)
    capture_hold: float = _key(0.2, "detector.capture_hold", "s", NONNEGATIVE)
    # post-landing DCM offset from the CoP that chains a new step
    chain_offset: float = _key(0.04, "detector.chain_offset", "m, chains a new step", POSITIVE)
    # planner (right-swing convention, stance-foot-relative CoP numbers)
    t_nom: float = _key(0.5, "planner.t_nom", "s, preferred step duration", POSITIVE)
    t_min: float = _key(0.25, "planner.t_min", "s", POSITIVE)
    t_max: float = _key(1.2, "planner.t_max", "s", POSITIVE)
    # alpha3 multiplies squared deviations of sigma = exp(omega*T), which
    # is an order of magnitude larger than the metre-scale terms, so its
    # default is correspondingly small.
    weights: tuple[float, float, float] = _key(
        (1.0, 5.0, 0.02), "planner.weights", "alpha1,alpha2,alpha3", POSITIVE)
    cop_nom: tuple[float, float] = _key(
        (0.0, -0.2), "planner.cop_nom", "m, rel. stance foot, right-swing", FINITE)
    gamma_nom: tuple[float, float] = _key((0.0, 0.0), "planner.gamma_nom", "m, landing DCM offset", FINITE)
    cop_min: tuple[float, float] = _key((-0.15, -0.30), "planner.cop_min", "m, rel. stance foot", FINITE)
    cop_max: tuple[float, float] = _key((0.30, -0.04), "planner.cop_max", "m, rel. stance foot", FINITE)
    # swing profile
    peak_height: float = _key(0.07, "swing.peak_height", "m, apex height", POSITIVE)
    peak_fraction: float = _key(0.4, "swing.peak_fraction", "fraction of duration", PEAK_FRACTION)
    # control
    stiffness_deg: tuple[float, float, float] = _key(
        (1.5, 0.4, 0.4), "control.stiffness_deg", "N*m/deg per joint", NONNEGATIVE)
    damping: tuple[float, float, float] = _key(
        (0.0, 0.0, 0.0), "control.damping", "N*m*s/rad per joint", NONNEGATIVE)
    torque_kp: float = _key(1.0, "control.torque_kp", "inner torque-loop gain", NONNEGATIVE)
    mode: str = _key("assist", "control.mode", "control law", MODE)
    # joint plant
    inertia: float = _key(0.05, "plant.inertia", "kg*m^2 per joint", POSITIVE)
    viscous_damping: float = _key(0.5, "plant.viscous_damping", "N*m*s/rad", NONNEGATIVE)
    # foot geometry
    foot_half_x: float = _key(0.10, "foot.half_x", "m, support half-length", POSITIVE)
    foot_half_y: float = _key(0.06, "foot.half_y", "m, support half-width", POSITIVE)
    # run control
    dt: float = _key(0.001, "sim.dt", "s, control period", DT)
    duration: float = _key(3.0, "sim.duration", "s", POSITIVE)
    seed: int = _key(0, "sim.seed", "noise RNG seed", NONNEGATIVE_INT)
    attitude_noise_deg: float = _key(0.0, "sim.attitude_noise_deg", "deg, white noise std", NONNEGATIVE)
    pushes: tuple[PushEvent, ...] = ()
    human_pulses: tuple[HumanPulse, ...] = ()

    # -- helpers -----------------------------------------------------------

    @property
    def omega(self) -> float:
        """The pendulum's natural frequency ``sqrt(gravity / com_height)``, 1/s."""
        return natural_frequency(self.gravity, self.com_height)

    def joint_limits(self) -> JointLimits:
        to_rad = lambda pair: (pair[0] * RAD_PER_DEG, pair[1] * RAD_PER_DEG)
        return JointLimits(
            hip_ab=to_rad(self.hip_ab_limits_deg),
            hip_flex=to_rad(self.hip_flex_limits_deg),
            knee=to_rad(self.knee_limits_deg),
        )

    def leg_geometry(self, side: Side) -> LegGeometry:
        return LegGeometry(self.l0, self.l1, self.l2, self.l3, side)

    def standing_pose(self) -> Vec3:
        """Joint angles of the planted right leg on its stance point under the
        CoM at ``com0``; raises WorkspaceError or JointLimitError."""
        planted = (0.0, -0.5 * self.resolved_stance_width(), 0.0)
        geom = self.leg_geometry(RIGHT)
        return inverse_kinematics(_leg_target(self, geom, planted, as_vec2(self.com0, "com0")),
                                  geom, self.joint_limits())

    def resolved_stance_width(self) -> float:
        if self.stance_width is not None:
            return float(self.stance_width)
        return 2.0 * (self.l0 + self.l1)

    def nominal_gait(self) -> NominalGait:
        return NominalGait(self.cop_nom, self.gamma_nom, self.t_nom, self.weights)

    def step_bounds(self) -> StepBounds:
        return StepBounds(self.cop_min, self.cop_max, self.t_min, self.t_max)

    def validate(self) -> None:
        """Raise ConfigurationError listing every invalid field or, once every
        field is valid, naming the fields that keep the right leg from standing."""
        self._validate(None, None)

    def _validate(self, push_ids, pulse_ids) -> None:
        """:meth:`validate`, naming ``pushes[i]`` and ``human_pulses[i]`` by
        ``push_ids[i]`` and ``pulse_ids[i]`` (a scenario file's record numbers),
        or by ``i`` where the ids are None."""
        bad: list[str] = []
        broke = set()  # fields that break their own rule, left out of the checks across fields
        for name, rule, size in _RULES:
            value = getattr(self, name)
            if (len(value) if isinstance(value, (tuple, list)) else None) == size:
                why = broken(value, rule)
            else:
                shape = f"have {size} components" if size else "be a single value"
                why = f"must {shape}, got {value!r}"
            if why is not None:
                bad.append(f"{name} {why}")
                broke.add(name)
        ids = {}
        for name, given, record in (("pushes", push_ids, PushEvent), ("human_pulses", pulse_ids, HumanPulse)):
            records = getattr(self, name)
            if not RECORDS.test(records):
                bad.append(f"{name} must be {RECORDS.words} of {record.__name__} records, got {records!r}")
                broke.add(name)
                continue
            ids[name] = range(len(records)) if given is None else given
            for i, value in zip(ids[name], records):
                if not isinstance(value, record):
                    bad.append(f"{name}[{i}] must be a {record.__name__}, got {value!r}")
                    broke.add(name)

        def ok(*names: str) -> bool:
            return broke.isdisjoint(names)

        for name in ("hip_ab_limits_deg", "hip_flex_limits_deg", "knee_limits_deg"):
            if ok(name):
                lo, hi = getattr(self, name)
                if not lo < hi:
                    bad.append(f"{name} must satisfy min < max, got ({lo}, {hi})")
        if ok("t_min", "t_max") and not self.t_min <= self.t_max:
            bad.append(f"need t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if ok("gravity", "com_height"):
            # The planner takes exp(omega * T) of these step times.
            longest = math.log(sys.float_info.max) / natural_frequency(self.gravity, self.com_height)
            for name in ("t_nom", "t_max"):
                value = getattr(self, name)
                if ok(name) and value > longest:
                    bad.append(f"{name} must be at most {longest:.6g} s, "
                               f"past which exp(omega * {name}) overflows, got {value}")
        if ok("cop_min", "cop_max") and not all(lo <= hi for lo, hi in zip(self.cop_min, self.cop_max)):
            bad.append(f"cop_min {self.cop_min} must not exceed cop_max {self.cop_max}")
        last = self.duration  # the last tick's time, once dt and duration are valid
        if ok("dt", "duration"):
            last = (round(self.duration / self.dt) - 1) * self.dt
            if last < 0.0:
                bad.append(f"duration {self.duration} is shorter than one control cycle of {self.dt}")
        # A push or pulse no tick reaches would be dropped silently; each is
        # tested as Plant.measure and Plant.step test it, on the ticks k * dt.
        # Without a valid duration there is no last tick to test them against.
        for i, p in zip(ids["pushes"], self.pushes) if ok("duration", "pushes") else ():
            if not p.time <= last + 1e-12:
                bad.append(f"push {i} at t={p.time} is after the last control tick at t={last:.9g}")
        for i, h in zip(ids["human_pulses"], self.human_pulses) if ok("duration", "human_pulses") else ():
            if not (h.start <= last):
                bad.append(f"human pulse {i} starts at t={h.start}, "
                           f"after the last control tick at t={last:.9g}")
            elif ok("dt"):
                # The first tick at or after the start is one of these four.
                k = max(math.ceil(h.start / self.dt) - 2, 0)
                first = next((j * self.dt for j in range(k, k + 4) if j * self.dt >= h.start),
                             math.inf)
                if not first < h.end:
                    bad.append(f"human pulse {i} window [{h.start}, {h.end}) holds no control tick "
                               f"(the first at or after its start is at t={first:.9g})")
        if bad:
            raise ConfigurationError("invalid scenario: " + "; ".join(bad))
        # Checked once everything above holds: the pose needs valid lengths and limits.
        stand = "invalid scenario: the planted right leg cannot stand"
        try:
            self.standing_pose()
        except WorkspaceError as err:
            raise ConfigurationError(f"{stand}: com0, com_height, l0-l3 and stance_width "
                                     f"put its stance point out of reach: {err}") from None
        except JointLimitError as err:
            limits = ", ".join(joint + "_limits_deg" for joint in err.joints)
            raise ConfigurationError(f"{stand}: its pose violates {limits}: {err}") from None


#: ``(field, rule, size)`` of each ScenarioConfig field, in field order; ``size``
#: is the length of a tuple default, or None for a field that holds one value.
_RULES = tuple((f.name, f.metadata["rule"], len(f.default) if isinstance(f.default, tuple) else None)
               for f in fields(ScenarioConfig) if "rule" in f.metadata)


class Event(NamedTuple):
    """Timestamped discrete occurrence; payload values are plain floats/lists."""

    time: float
    kind: str
    payload: dict


#: Columns of ``run_scenario``'s per-tick log, one ``SimTrace`` column view
#: each, in the order ``trace.csv`` writes them.
_LOG_COLUMNS = {
    "t": 0, "com": slice(1, 3), "com_vel": slice(3, 5), "xi": slice(5, 7), "cop": slice(7, 9),
    "foot": slice(9, 12), "joint_desired": slice(12, 15), "joint_measured": slice(15, 18),
    "torque": slice(18, 21),
}


def _column(name: str) -> property:
    """The ``SimTrace`` view of the log columns ``_LOG_COLUMNS[name]``."""
    col = _LOG_COLUMNS[name]
    return property(lambda trace: trace.log[:, col])


@dataclass
class SimTrace:
    """Dense per-cycle log plus the event stream and the resolved config.

    ``run_scenario`` logs every tick as one row of ``log``, an ``(N, 21)``
    array laid out by ``_LOG_COLUMNS``; the numeric attributes are column
    views of it.
    """

    log: np.ndarray  # (N, 21)
    phase: list[str]
    events: list[Event]
    config: ScenarioConfig

    t = _column("t")  # (N,) s
    com = _column("com")  # (N, 2)
    com_vel = _column("com_vel")  # (N, 2)
    xi = _column("xi")  # (N, 2), true DCM
    cop = _column("cop")  # (N, 2)
    foot = _column("foot")  # (N, 3), commanded swing-foot point (world)
    joint_desired = _column("joint_desired")  # (N, 3) rad
    joint_measured = _column("joint_measured")  # (N, 3) rad
    torque = _column("torque")  # (N, 3) N*m, applied actuator torques


@dataclass(frozen=True)
class StepSummary:
    step_taken: bool
    captured: bool
    aborted: bool
    num_steps: int
    num_replans: int
    final_dcm_offset: float
    swing_side: str | None = None
    trigger_time: float | None = None
    touchdown_time: float | None = None
    step_duration: float | None = None
    capture_time: float | None = None
    swing_start: tuple[float, float] | None = None
    planned_landing: tuple[float, float] | None = None
    landed_position: tuple[float, float] | None = None
    planned_vs_landed_angle_deg: float | None = None


class _Episode:
    """What one recovery step decided, and the swing leg's geometry and the
    step's program (its stance CoP, gait and bounds), held for the in-flight
    ticks; the stance foot (``Controller.cop``) and the swing start
    (``Controller.feet[swing]``) stay the controller's."""

    def __init__(self, trigger_time: float, swing: Side, geom: LegGeometry, program: StepProgram,
                 plan: StepPlan, traj: SwingTrajectory):
        self.trigger_time = trigger_time
        self.swing = swing
        self.geom = geom
        self.program = program
        self.plan = plan
        self.initial_plan = plan
        self.traj = traj
        self.traj_t0 = trigger_time


def _hip_xy(geom: LegGeometry, com) -> tuple[float, float]:
    lateral = -geom.l0 if geom.right else geom.l0
    return com[0], com[1] + lateral


def _leg_target(config: ScenarioConfig, geom: LegGeometry, world_point, com) -> Vec3:
    x, y = _hip_xy(geom, com)
    return world_point[0] - x, world_point[1] - y, world_point[2] - config.com_height


class Measurement(NamedTuple):
    """What the plant's sensors report at one tick; every vector is a float tuple."""

    com: Vec2  # m, CoM estimate from the trunk attitude
    xi: Vec2  # m, DCM estimate
    # Tracked leg (hip ab/adduction, hip flexion, knee):
    q: Vec3  # rad
    qd: Vec3  # rad/s
    tau: Vec3  # N*m, the actuator torques applied over the last tick
    foot: Vec2 | None  # m, world point of the swinging foot, None if none swings


class Command(NamedTuple):
    """What the controller sends the plant for one tick; every vector is a float tuple."""

    cop: Vec2  # m
    torque: Vec3  # N*m, actuator torques on the tracked leg
    swing: LegGeometry | None  # leg in flight; the plant reports its foot next tick
    lift: Vec3 | None  # rad, pose of the swing leg lifted off now, at rest
    touchdown: bool  # the swinging foot landed now


class Controller:
    """Phase machine, step planning, swing tracking, IK and impedance.

    It sees the plant only through :class:`Measurement`: the attitude
    estimates, the tracked leg's joint states and, at touchdown, where
    the swinging foot landed.
    """

    def __init__(self, config: ScenarioConfig, events: list[Event], q_hold: Vec3):
        self.config = config
        self.events = events
        self.omega = config.omega
        self.limits = config.joint_limits()
        # The impedance law's gains, in N*m/rad and N*m*s/rad; zero-torque
        # mode does not call it.
        self.stiffness = tuple(float(k) / RAD_PER_DEG for k in config.stiffness_deg)
        self.damping = tuple(map(float, config.damping))
        self.assist = config.mode == "assist"
        self.geoms = {side: config.leg_geometry(side) for side in Side}
        # Each swing side's gait and bounds, about the stance CoP: a left
        # swing mirrors the right-swing numbers.
        gait, box = config.nominal_gait(), config.step_bounds()
        self.frames = {RIGHT: (gait, box), LEFT: (mirror_gait(gait), mirror_bounds(box))}
        width = config.resolved_stance_width()
        # Feet and the CoP are (x, y) float pairs.
        self.feet: dict[Side, Vec2] = {LEFT: (0.0, 0.5 * width), RIGHT: (0.0, -0.5 * width)}
        self.cop = (0.0, 0.0)
        self.support_center = (0.0, 0.0)  # clamp centre; the planted foot after a step
        # The ankle clamp's (lo_x, hi_x, lo_y, hi_y): the double-support hull
        # initially, one foot after touchdown.
        self.support_box = _box(self.support_center, (config.foot_half_x, 0.5 * width + config.foot_half_y))
        self.detector = BalanceDetector(
            (0.0, 0.0), config.ellipse_a, config.ellipse_b,
            debounce_cycles=config.debounce_cycles,
            capture_tolerance=config.capture_tolerance,
            capture_hold=config.capture_hold,
        )
        self.episode: _Episode | None = None
        # Joint state acted on this tick (float triples); before any step the
        # tracked leg is the planted right one, held where it stands.
        self.q, self.qd, self.tau = q_hold, _REST, _REST
        self.q_des = q_hold
        self.foot_point = (*self.feet[RIGHT], 0.0)  # commanded swing-foot point

    def step(self, meas: Measurement, t: float) -> Command:
        """Advance the step in flight, on a tick that starts in ``SteppingPlanned``
        or ``Swing``, and return this tick's CoP and torques."""
        self.q, self.qd, self.tau = meas.q, meas.qd, meas.tau
        touchdown = False
        if self.episode is None:
            # After a StepAborted the phase stays in SteppingPlanned or Swing
            # with no step in flight, and nothing is done (ROADMAP item 8).
            pass

        elif self.detector.phase is STEPPING_PLANNED:
            self.detector.advance(SWING, t)

        else:  # SWING
            touchdown = self._swing(t, meas)

        return self._command(meas, t, None, touchdown)

    def _trigger(self, meas: Measurement, t: float, excursion: float) -> Command:
        """Finish the tick whose DCM sample fired the detector with
        ``excursion``: report the balance loss, plan and lift the step, and
        return the tick's command."""
        self.events.append(Event(t, "BalanceLost", {"xi": list(meas.xi), "excursion": excursion}))
        return self._command(meas, t, self._begin_episode(t, meas), False)

    def _chain(self, meas: Measurement, t: float) -> Command:
        """Finish the ``Landed`` tick whose DCM is too far from the new
        foot's CoP to hold: plan and lift another step with the trailing
        foot, and return the tick's command."""
        trailing = RIGHT if self.episode.swing is LEFT else LEFT
        self.detector.advance(STEPPING_PLANNED, t)
        return self._command(meas, t, self._begin_episode(t, meas, forced_swing=trailing), False)

    def _command(self, meas: Measurement, t: float, lift: Vec3 | None, touchdown: bool) -> Command:
        """The tick's command: the idle ``_REST`` torque and no swing leg,
        unless a step is in flight (an episode exists outside ``Landed``)."""
        if self.episode is None or self.detector.phase is LANDED:
            return _new(Command, (self.cop, _REST, None, lift, touchdown))
        torque, swing = self._track(t, meas)
        return _new(Command, (self.cop, torque, swing, lift, touchdown))

    def _abort(self, t: float, reason: str) -> None:
        self.episode = None
        self.events.append(Event(t, "StepAborted", {"reason": reason}))

    def _begin_episode(
        self, t: float, meas: Measurement, forced_swing: Side | None = None
    ) -> Vec3 | None:
        """Plan a step and lift the swing leg; returns its pose, None on abort."""
        config = self.config
        if forced_swing is not None:
            # A chained step stands on the foot that just landed; only the
            # trailing foot is free.
            swing = forced_swing
        else:
            # Falling sideways loads that side's leg, so the opposite leg
            # is free to swing.  Judge the side from the support centre,
            # not the regulated CoP, which tracks the DCM while standing.
            lateral = meas.xi[1] - self.support_center[1]
            swing = LEFT if lateral < -1e-12 else RIGHT
        stance_xy = self.feet[RIGHT if swing is LEFT else LEFT]
        nominal, bounds = self.frames[swing]

        # Weight shifts onto the stance leg: the CoP the pendulum sees
        # during the swing is the stance ankle point.  The step's program is
        # built once, about that point, and every replan of the step takes it.
        self.cop = stance_xy
        try:
            program = step_program(stance_xy, self.omega, nominal, bounds)
            plan = plan_step(meas.xi, program)
        except PlannerInfeasibleError as err:
            self._abort(t, f"plan_step infeasible: {', '.join(err.violated) or err}")
            return None
        except ValueError as err:  # e.g. a plan that is not finite
            self._abort(t, f"plan_step: {err}")
            return None
        swing_start = (*self.feet[swing], 0.0)
        traj = build_swing(swing_start, plan, config.peak_height, config.peak_fraction)
        geom = self.geoms[swing]
        try:
            q0 = inverse_kinematics(
                _leg_target(config, geom, swing_start, meas.com), geom, self.limits
            )
        except (WorkspaceError, JointLimitError) as err:
            self._abort(t, f"swing start pose unreachable: {err}")
            return None
        # The swing leg lifts off at rest in its current pose.
        self.q, self.qd, self.tau = q0, _REST, _REST
        self.q_des = q0
        self.foot_point = swing_start

        self.events.append(Event(t, "PlanIssued", {
            "swing": swing.value,
            "cop_T": list(plan.cop_T),
            "gamma_T": list(plan.gamma_T),
            "duration": plan.duration,
            "sigma": plan.sigma,
            "objective": plan.objective,
            "swing_start": list(swing_start[:2]),
        }))
        self.episode = _Episode(t, swing, geom, program, plan, traj)
        return self.q

    def _swing(self, t: float, meas: Measurement) -> bool:
        """Replan the step in flight; returns whether the foot touched down.

        The planner gets the measured DCM as a float pair and the step's
        program held on the episode; a terminal plan is not re-solved."""
        ep = self.episode
        if ep.plan.status != "terminal":
            new_plan = replan(ep.plan, meas.xi, ep.program, t - ep.trigger_time)
            if new_plan.status != "terminal":
                (new_x, new_y), (old_x, old_y) = new_plan.cop_T, ep.plan.cop_T
                # max(moved_x, moved_y) as clip compares: a tie keeps the first.
                moved_x, moved_y = abs(new_x - old_x), abs(new_y - old_y)
                moved = moved_y if moved_y > moved_x else moved_x
                # Compared as absolute times: the shorter difference of the
                # two landing times rounds differently.
                shifted = abs(
                    (ep.trigger_time + new_plan.landing_time)
                    - (ep.trigger_time + ep.plan.landing_time)
                )
                if moved > MATERIAL_CHANGE or shifted > MATERIAL_CHANGE:
                    ep.traj = retarget(ep.traj, t - ep.traj_t0, new_plan)
                    ep.traj_t0 = t
                    self.events.append(Event(t, "Replanned", {
                        "cop_T": list(new_plan.cop_T),
                        "remaining": new_plan.duration,
                        "landing_time": ep.trigger_time + new_plan.landing_time,
                        "sigma": new_plan.sigma,
                    }))
            ep.plan = new_plan

        if t - ep.traj_t0 < ep.traj.duration - 1e-9:
            return False
        # Touchdown: where the plant reports the foot landed becomes the
        # stance, and the foot it left is where the swing started.
        landed = meas.foot
        self.detector.advance(LANDED, t)
        self.events.append(Event(t, "TouchDown", {
            "planned": list(ep.plan.cop_T),
            "initial_planned": list(ep.initial_plan.cop_T),
            "landed": list(landed),
            "swing_start": list(self.feet[ep.swing]),
            "trigger_time": ep.trigger_time,
        }))
        self.feet[ep.swing] = landed
        self.cop = self.support_center = landed
        self.support_box = _box(landed, (self.config.foot_half_x, self.config.foot_half_y))
        self.foot_point = (*landed, 0.0)
        return True

    def _track(self, t: float, meas: Measurement) -> tuple[Vec3, LegGeometry | None]:
        """Torques tracking the swing trajectory of the step in flight, and its leg."""
        ep = self.episode
        foot = self.foot_point = sample_position(ep.traj, t - ep.traj_t0)
        geom = ep.geom
        try:
            self.q_des = inverse_kinematics(
                _leg_target(self.config, geom, foot, meas.com), geom, self.limits
            )
        except (WorkspaceError, JointLimitError) as err:
            self._abort(t, f"swing target unreachable: {err}")
            return _REST, None
        if self.assist:
            tau_des = impedance_torque(self.q_des, self.q, self.qd, self.stiffness, self.damping)
        else:
            tau_des = (0.0, 0.0, 0.0)
        return command_torques(tau_des, self.tau, self.config.torque_kp), geom


class Plant:
    """Pendulum, tracked-leg joint plants, disturbances and the sensors.

    The attitude sensor synthesises trunk pitch and roll from the true
    CoM about its anchor, adds seeded noise and saturates, and the
    estimate inverts it with ``L * sin``.  The anchor moves to the foot
    the plant reported landed.  The noise for the whole run is drawn up
    front, one ``(pitch, roll)`` row per tick; that is the same sequence
    as two scalar draws per tick.

    The state is plain floats: the CoM ``com``, its velocity ``vel``,
    the attitude ``anchor`` and the swinging ``foot`` are ``(x, y)``
    float pairs, and the tracked leg's joint angles ``q``, rates ``qd``
    and last applied actuator torques ``tau`` are float triples, so a
    tick converts no arrays.
    """

    def __init__(self, config: ScenarioConfig, events: list[Event], n_ticks: int):
        self.config = config
        self.events = events
        # Read per tick, so held here once.
        self.com_height, self.omega, self.mass, self.dt = (config.com_height, config.omega,
                                                           config.mass, config.dt)
        self.inertia, self.viscous_damping = config.inertia, config.viscous_damping
        self.human_pulses = config.human_pulses
        self.com = as_vec2(config.com0, "com0")
        self.vel = as_vec2(config.vel0, "vel0")
        self.pushes = sorted(config.pushes, key=lambda p: (p.time, p.impulse[0], p.impulse[1]))
        noise_std = config.attitude_noise_deg * RAD_PER_DEG
        self.noise = None  # else one flat stream of Python floats: pitch, roll, pitch, ...
        if noise_std > 0.0:
            import numpy as np
            self.noise = iter(memoryview(np.random.default_rng(config.seed).normal(
                0.0, noise_std, (n_ticks, 2)).ravel()))
        self.anchor = (0.0, 0.0)  # attitude reference: the stance point
        self.swing: LegGeometry | None = None  # leg in flight, whose foot is reported
        self.foot: tuple[float, float] | None = None  # where that foot was last measured
        # Before any step the tracked leg is the right one, planted at its
        # stance point.
        self.q = config.standing_pose()
        self.qd, self.tau = _REST, _REST

    def apply_pushes(self, t: float) -> float:
        """Apply the pushes due at tick time ``t`` to the CoM velocity, each
        logged as ``PushApplied``; returns the time of the next push, ``inf``
        when none is left."""
        while self.pushes and self.pushes[0].time <= t + 1e-12:
            push = self.pushes.pop(0)
            self.vel = apply_impulse(self.vel, push.impulse, self.mass)
            self.events.append(Event(t, "PushApplied", {"impulse": list(push.impulse)}))
        return self.pushes[0].time if self.pushes else math.inf

    def wearer_torque(self, t: float) -> tuple[Vec3, float]:
        """The wearer's torque per joint at tick time ``t``, the sum of the
        pulses active then (``_REST`` when none is), and the first time
        after ``t`` at which a pulse starts or ends, ``inf`` if none does."""
        human, change = _REST, math.inf
        for pulse in self.human_pulses:
            if t < pulse.start:
                change = pulse.start if pulse.start < change else change
            elif t < pulse.end:
                if human is _REST:
                    human = [0.0, 0.0, 0.0]
                human[pulse.joint] += pulse.torque
                change = pulse.end if pulse.end < change else change
        return human, change

    def measure(self, t: float) -> Measurement:
        """Apply the pushes due at ``t``, then read the sensors."""
        if self.pushes:
            self.apply_pushes(t)
        com_x, com_y = _sensed_com(self.com, self.anchor, self.com_height, self.noise)
        foot = None
        geom = self.swing
        if geom is not None:
            achieved = forward_kinematics(self.q, geom)
            hip_x, hip_y = _hip_xy(geom, self.com)
            foot = self.foot = (hip_x + achieved[0], hip_y + achieved[1])
        vx, vy = self.vel
        omega = self.omega
        xi_hat = (com_x + vx / omega, com_y + vy / omega)
        return _new(Measurement, ((com_x, com_y), xi_hat, self.q, self.qd, self.tau, foot))

    def step(self, command: Command, t: float) -> None:
        """Take the command's contact changes, then integrate to the next tick."""
        if command.lift is not None:
            self.q, self.qd = command.lift, _REST
        if command.touchdown:
            self.anchor = self.foot
        self.swing = command.swing
        dt = self.dt
        self.com, self.vel = step_lipm(self.com, self.vel, command.cop, self.omega, dt)
        human = self.wearer_torque(t)[0] if self.human_pulses else _REST
        torque = command.torque
        self.q, self.qd = joint_plant_step(self.q, self.qd, torque, human, self.inertia,
                                           self.viscous_damping, dt)
        self.tau = torque


def _run_stance(plant: Plant, controller: Controller, k: int, n_rows: int, rows,
                log_phase: list[str]) -> tuple[int, Command | None]:
    """Run the ticks from tick ``k`` on locals while no leg is in flight;
    return the first tick not finished here and, if it plans a step, its
    command.

    The caller has checked that the detector is ``Standing``, ``Landed``
    or ``Captured``.  A tick here gives the values ``Plant.measure``, the
    phase machine, ``run_scenario``'s row and ``Plant.step`` give it: it
    applies the pushes due, reads :func:`_sensed_com`, clamps the CoP into
    the support box, samples the phase machine (``BalanceDetector.update``
    while ``Standing``; while ``Landed``, ``update_landing`` of the DCM's
    offset from the CoP, which may declare the capture; a ``Captured`` tick
    re-arms the detector and stands), logs its row and steps the pendulum
    and the tracked leg under the idle ``_REST`` torque and the wearer's.
    The pushes and the wearer torque are read again only when a push is
    due or a pulse starts or ends.  A leg whose rates are still the
    ``_REST`` object (never integrated since the run began) under a
    ``_REST`` wearer torque is not stepped: RK4 would return ``(q + 0.0,
    0.0)`` per joint, bit for bit.  A ``Standing`` tick that fires the
    trigger is finished by ``Controller._trigger``, a ``Landed`` tick whose
    offset exceeds ``chain_offset`` by ``Controller._chain``, and the
    caller logs and integrates its command.
    """
    detector, events, chain_offset = controller.detector, controller.events, controller.config.chain_offset
    L, omega, dt, noise = plant.com_height, plant.omega, plant.dt, plant.noise
    leg, inertia, viscous = joint_plant_step, plant.inertia, plant.viscous_damping
    com, vel, anchor, q, qd, tau = plant.com, plant.vel, plant.anchor, plant.q, plant.qd, plant.tau
    q0, q1, q2 = q
    rest_q = (q0 + 0.0, q1 + 0.0, q2 + 0.0)  # RK4's angles for a leg at rest
    lo_x, hi_x, lo_y, hi_y = controller.support_box
    legs = (*controller.foot_point, *controller.q_des)  # the row's foot and desired angles
    sense, update, step, pack, log = _sensed_com, detector.update, step_lipm, _ROW.pack_into, log_phase.append
    # The phase as the text its rows log, tested with `is`; only the Landed
    # and Captured branches change it.
    standing, landed, phase = STANDING._value_, LANDED._value_, detector.phase._value_
    push_at = change_at = -math.inf  # so the first tick reads the pushes and the wearer torque
    while k < n_rows:
        t = k * dt
        if t >= change_at or push_at <= t + 1e-12:
            plant.vel = vel
            push_at = plant.apply_pushes(t)
            vel = plant.vel
            human, change_at = plant.wearer_torque(t)
            resting = qd is _REST and human is _REST
        hx, hy = sense(com, anchor, L, noise)
        (x, y), (vx, vy) = com, vel
        wx, wy = vx / omega, vy / omega
        xi_x, xi_y = xi_hat = (hx + wx, hy + wy)
        # Ankle strategy: hold the DCM with the CoP wherever the support box
        # allows.  Each component is clipped as `lo if lo >= x else x`, then
        # the same against `hi`, which is np.clip's result: a tie gives the
        # bound and a NaN stays NaN.  min(max(x, lo), hi) keeps -0.0 against
        # a bound of 0.0 where np.clip returns the bound, and the two print
        # differently.
        cx = lo_x if lo_x >= xi_x else xi_x
        cy = lo_y if lo_y >= xi_y else xi_y
        cop = (hi_x if hi_x <= cx else cx, hi_y if hi_y <= cy else cy)
        seen_q, seen_qd, seen_tau = q, qd, tau
        if phase is standing:
            excursion = update(xi_hat, t)
            if excursion is not None:
                break
        elif phase is landed:
            dx, dy = xi_x - cop[0], xi_y - cop[1]
            offset = math.sqrt(dx * dx + dy * dy)
            if detector.update_landing(offset, t):
                events.append(Event(t, "Captured", {"xi": list(xi_hat), "cop": list(cop), "offset": offset}))
                controller.episode = None
                phase = CAPTURED._value_
            elif offset > chain_offset:
                break  # the new foot cannot hold the DCM
        else:  # Captured: re-arm around the new stance point for a later push
            detector.rearm(cop)
            detector.advance(STANDING, t)
            phase = standing
        pack(rows, 168 * k, t, x, y, vx, vy, x + wx, y + wy, *cop, *legs, *q, *_REST)
        log(phase)
        com, vel = step(com, vel, cop, omega, dt)
        if resting:
            q = rest_q
        else:
            q, qd = leg(q, qd, _REST, human, inertia, viscous, dt)
        tau = _REST
        k += 1
    plant.com, plant.vel, plant.q, plant.qd, plant.tau = com, vel, q, qd, tau
    # The controller's state is that of the last tick it saw here.
    controller.q, controller.qd, controller.tau, controller.cop = seen_q, seen_qd, seen_tau, cop
    if k == n_rows:
        return k, None
    meas = _new(Measurement, ((hx, hy), xi_hat, q, qd, tau, None))
    if phase is standing:
        return k, controller._trigger(meas, t, excursion)
    return k, controller._chain(meas, t)


def run_scenario(config: ScenarioConfig) -> SimTrace:
    """Run one scenario to completion and return the dense trace.

    Each stretch of ticks with no leg in flight runs in :func:`_run_stance`,
    which hands a tick that plans a step back here for its row and
    ``Plant.step``; any other tick is ``Plant.measure``, ``Controller.step``,
    one log row and ``Plant.step``.
    """
    config.validate()
    n_rows = int(round(config.duration / config.dt))
    events: list[Event] = []
    plant = Plant(config, events, n_rows)
    controller = Controller(config, events, plant.q)
    omega, dt, detector = plant.omega, config.dt, controller.detector
    measure, control, integrate = plant.measure, controller.step, plant.step

    import numpy as np  # for SimTrace's log
    log = np.empty((n_rows, 21))
    rows, pack = memoryview(log).cast("B"), _ROW.pack_into  # row k starts at byte 168 * k
    log_phase: list[str] = []
    k = 0
    while k < n_rows:
        phase = detector.phase
        if phase is STANDING or phase is LANDED or phase is CAPTURED:
            k, command = _run_stance(plant, controller, k, n_rows, rows, log_phase)
            if command is None:  # the run ended in the loop
                break
            t = k * dt
        else:
            t = k * dt
            command = control(measure(t), t)
        (x, y), (vx, vy) = plant.com, plant.vel
        pack(rows, 168 * k, t, x, y, vx, vy, x + vx / omega, y + vy / omega, *command.cop,
             *controller.foot_point, *controller.q_des, *controller.q, *command.torque)
        log_phase.append(detector.phase._value_)  # skips the .value property
        integrate(command, t)
        k += 1

    return SimTrace(log, log_phase, events, config)


def summarize(trace: SimTrace) -> StepSummary:
    """Condense a trace into the episode-level facts."""
    by_kind: dict[str, list[Event]] = {}
    for ev in trace.events:
        by_kind.setdefault(ev.kind, []).append(ev)

    plans = by_kind.get("PlanIssued", [])
    touchdowns = by_kind.get("TouchDown", [])
    captures = by_kind.get("Captured", [])
    replans = by_kind.get("Replanned", [])
    aborted = "StepAborted" in by_kind
    # Python-float sums here and below: the summary does not depend on the BLAS build.
    dx, dy = (trace.xi[-1] - trace.cop[-1]).tolist()
    final_offset = math.sqrt(dx * dx + dy * dy)

    summary = StepSummary(
        step_taken=bool(touchdowns), captured=bool(captures), aborted=aborted,
        num_steps=len(touchdowns), num_replans=len(replans), final_dcm_offset=final_offset)
    if not touchdowns:
        return summary

    td = touchdowns[0]
    plan0 = plans[0]
    sx, sy = map(float, td.payload["swing_start"])
    px, py = map(float, td.payload["initial_planned"])
    lx, ly = map(float, td.payload["landed"])
    vx, vy, wx, wy = px - sx, py - sy, lx - sx, ly - sy
    angle = math.degrees(math.atan2(vx * wy - vy * wx, vx * wx + vy * wy))
    return replace(
        summary,
        swing_side=plan0.payload["swing"],
        trigger_time=float(td.payload["trigger_time"]),
        touchdown_time=float(td.time),
        step_duration=float(td.time) - float(td.payload["trigger_time"]),
        capture_time=float(captures[0].time) if captures else None,
        swing_start=(sx, sy),
        planned_landing=(px, py),
        landed_position=(lx, ly),
        planned_vs_landed_angle_deg=angle,
    )
