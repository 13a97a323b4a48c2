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
the joint plants integrate to the next tick.  While a step is in
flight the planner re-solves every cycle over the shrunk duration
window; when the plan moves materially the swing trajectory is
respliced in place.  After touchdown the stance CoP is the measured DCM
clamped into the new foot's support rectangle, which pins the DCM and
leads to capture.  While standing the same clamp runs over the current
support polygon (both feet before a step, the landed foot after), so
small sensor noise or a residual post-capture offset is held by the
ankle strategy instead of drifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .detector import BalanceDetector, RecoveryPhase, SwayEllipse
from .errors import ConfigurationError, PlannerInfeasibleError, WorkspaceError, JointLimitError
from .impedance import (
    ControlMode,
    ImpedanceGains,
    PlantParams,
    command_torques,
    impedance_torque,
    joint_plant_step,
)
from .kinematics import JointLimits, LegGeometry, Side, forward_kinematics, inverse_kinematics
from .lipm import LipmParams, apply_impulse, as_vec2, step_lipm
from .planner import (
    NominalGait,
    PlannerInput,
    StepBounds,
    StepPlan,
    mirror_bounds,
    mirror_gait,
    plan_step,
    replan,
)
from .swing import SwingTrajectory, build_swing, retarget, sample

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
    "ankle_clamp",
    "run_scenario",
    "summarize",
]

_DEG = math.pi / 180.0

#: Bounds of the attitude synthesis' ``asin`` argument.
_ASIN_LO, _ASIN_HI = -1.0 + 1e-12, 1.0 - 1e-12

#: Plans moving less than this (in landing point or landing time) do not
#: resplice the swing trajectory or emit a Replanned event.
MATERIAL_CHANGE = 1e-9


@dataclass(frozen=True)
class PushEvent:
    """Impulsive disturbance applied to the CoM at a fixed time."""

    time: float  # s
    impulse: np.ndarray  # (2,) N*s

    def __post_init__(self):
        object.__setattr__(self, "impulse", as_vec2(self.impulse, "impulse"))
        if not (self.time >= 0.0) or not math.isfinite(self.time):
            raise ValueError(f"push time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class HumanPulse:
    """Constant wearer torque on one swing-leg joint over a time window."""

    joint: int  # 0 = hip ab/adduction, 1 = hip flexion, 2 = knee
    start: float  # s
    end: float  # s
    torque: float  # N*m

    def __post_init__(self):
        if self.joint not in (0, 1, 2):
            raise ValueError(f"joint must be 0, 1 or 2, got {self.joint}")
        if not (0.0 <= self.start < self.end):
            raise ValueError(f"need 0 <= start < end, got [{self.start}, {self.end}]")
        if not math.isfinite(self.torque):
            raise ValueError("torque must be finite")


def estimate_com(roll: float, pitch: float, pendulum_length: float) -> tuple[float, float]:
    """Horizontal CoM offset ``(x, y)`` from the stance reference, ``L * sin(angle)``.

    ``roll`` is positive leaning left, ``pitch`` positive leaning forward,
    both in radians; ``pendulum_length`` is the validated ``com_height``.
    """
    return pendulum_length * math.sin(pitch), pendulum_length * math.sin(roll)


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip(x, lo, hi)`` for one float, signed zeros included.

    ``min(max(x, lo), hi)`` keeps ``-0.0`` against a bound of ``0.0``
    where ``np.clip`` returns the bound, and the two print differently.
    """
    m = x if x > lo else lo
    return m if m < hi else hi


def ankle_clamp(xi, foot_center, half_extents) -> tuple[float, float]:
    """Componentwise clamp of the DCM into the foot support rectangle.

    Each argument is an ``(x, y)`` pair; the result is a float pair equal
    to ``np.clip(xi, foot_center - half_extents, foot_center + half_extents)``.
    As the half extents shrink to zero this degenerates to the
    point-foot CoP at ``foot_center``.  The half extents come from the
    validated foot size and stance width and are not re-checked.
    """
    cx, cy = foot_center
    hx, hy = half_extents
    return _clip(xi[0], cx - hx, cx + hx), _clip(xi[1], cy - hy, cy + hy)


def _key(default, key: str, help: str):
    """Config field read from scenario files as ``key``, described by ``help``."""
    return field(default=default, metadata={"key": key, "help": help})


@dataclass
class ScenarioConfig:
    """Every knob of one simulation run; defaults give a standing human.

    Planner geometry convention: ``cop_nom``, ``cop_min`` and ``cop_max``
    are displacements from the stance-foot ankle, written for a
    right-leg swing; a left-leg swing mirrors the lateral axis.

    Each field's metadata holds its scenario-file key and help text; the
    CLI derives its key table from them, in field order.
    """

    # pendulum
    gravity: float = _key(9.81, "lipm.gravity", "m/s^2")
    com_height: float = _key(0.88, "lipm.com_height", "m, pendulum height")
    mass: float = _key(70.0, "lipm.mass", "kg")
    com0: tuple[float, float] = _key((0.0, 0.0), "lipm.com0", "m, initial CoM")
    vel0: tuple[float, float] = _key((0.0, 0.0), "lipm.vel0", "m/s, initial CoM velocity")
    # leg geometry (m) and joint limits (deg)
    l0: float = _key(0.06, "geometry.l0", "m, trunk centre to hip joint")
    l1: float = _key(0.04, "geometry.l1", "m, hip joint lateral offset")
    l2: float = _key(0.45, "geometry.l2", "m, thigh")
    l3: float = _key(0.45, "geometry.l3", "m, shank")
    stance_width: float | None = _key(None, "geometry.stance_width", "m, default 2*(l0+l1)")
    hip_ab_limits_deg: tuple[float, float] = _key((-20.0, 20.0), "limits.hip_ab_deg", "deg, min,max")
    hip_flex_limits_deg: tuple[float, float] = _key(
        (-20.0, 100.0), "limits.hip_flex_deg", "deg, min,max")
    knee_limits_deg: tuple[float, float] = _key((0.0, 120.0), "limits.knee_deg", "deg, min,max")
    # detector
    ellipse_a: float = _key(0.05, "detector.ellipse_a", "m, forward semi-axis")
    ellipse_b: float = _key(0.05, "detector.ellipse_b", "m, lateral semi-axis")
    debounce_cycles: int = _key(2, "detector.debounce_cycles", "cycles outside before trigger")
    capture_tolerance: float = _key(0.02, "detector.capture_tolerance", "m")
    capture_hold: float = _key(0.2, "detector.capture_hold", "s")
    # post-landing DCM offset from the CoP that chains a new step
    chain_offset: float = _key(0.04, "detector.chain_offset", "m, chains a new step")
    # planner (right-swing convention, stance-foot-relative CoP numbers)
    t_nom: float = _key(0.5, "planner.t_nom", "s, preferred step duration")
    t_min: float = _key(0.25, "planner.t_min", "s")
    t_max: float = _key(1.2, "planner.t_max", "s")
    # alpha3 multiplies squared deviations of sigma = exp(omega*T), which
    # is an order of magnitude larger than the metre-scale terms, so its
    # default is correspondingly small.
    weights: tuple[float, float, float] = _key((1.0, 5.0, 0.02), "planner.weights", "alpha1,alpha2,alpha3")
    cop_nom: tuple[float, float] = _key((0.0, -0.2), "planner.cop_nom", "m, rel. stance foot, right-swing")
    gamma_nom: tuple[float, float] = _key((0.0, 0.0), "planner.gamma_nom", "m, landing DCM offset")
    cop_min: tuple[float, float] = _key((-0.15, -0.30), "planner.cop_min", "m, rel. stance foot")
    cop_max: tuple[float, float] = _key((0.30, -0.04), "planner.cop_max", "m, rel. stance foot")
    # swing profile
    peak_height: float = _key(0.07, "swing.peak_height", "m, apex height")
    peak_fraction: float = _key(0.4, "swing.peak_fraction", "fraction of duration")
    # control
    stiffness_deg: tuple[float, float, float] = _key(
        (1.5, 0.4, 0.4), "control.stiffness_deg", "N*m/deg per joint")
    damping: tuple[float, float, float] = _key((0.0, 0.0, 0.0), "control.damping", "N*m*s/rad per joint")
    torque_kp: float = _key(1.0, "control.torque_kp", "inner torque-loop gain")
    mode: str = _key("assist", "control.mode", "assist | zero_torque")
    # joint plant
    inertia: float = _key(0.05, "plant.inertia", "kg*m^2 per joint")
    viscous_damping: float = _key(0.5, "plant.viscous_damping", "N*m*s/rad")
    # foot geometry
    foot_half_x: float = _key(0.10, "foot.half_x", "m, support half-length")
    foot_half_y: float = _key(0.06, "foot.half_y", "m, support half-width")
    # run control
    dt: float = _key(0.001, "sim.dt", "s, control period")
    duration: float = _key(3.0, "sim.duration", "s")
    seed: int = _key(0, "sim.seed", "noise RNG seed")
    attitude_noise_deg: float = _key(0.0, "sim.attitude_noise_deg", "deg, white noise std")
    pushes: tuple[PushEvent, ...] = ()
    human_pulses: tuple[HumanPulse, ...] = ()

    # -- helpers -----------------------------------------------------------

    def lipm_params(self) -> LipmParams:
        return LipmParams(self.gravity, self.com_height, self.mass)

    def joint_limits(self) -> JointLimits:
        to_rad = lambda pair: (pair[0] * _DEG, pair[1] * _DEG)
        return JointLimits(
            hip_ab=to_rad(self.hip_ab_limits_deg),
            hip_flex=to_rad(self.hip_flex_limits_deg),
            knee=to_rad(self.knee_limits_deg),
        )

    def leg_geometry(self, side: Side) -> LegGeometry:
        return LegGeometry(self.l0, self.l1, self.l2, self.l3, side)

    def resolved_stance_width(self) -> float:
        if self.stance_width is not None:
            return float(self.stance_width)
        return 2.0 * (self.l0 + self.l1)

    def nominal_gait(self) -> NominalGait:
        return NominalGait(
            cop_T_nom=np.asarray(self.cop_nom, dtype=float),
            gamma_nom=np.asarray(self.gamma_nom, dtype=float),
            T_nom=self.t_nom,
            weights=self.weights,
        )

    def step_bounds(self) -> StepBounds:
        return StepBounds(
            cop_min=np.asarray(self.cop_min, dtype=float),
            cop_max=np.asarray(self.cop_max, dtype=float),
            T_min=self.t_min,
            T_max=self.t_max,
        )

    def stance_frame(self, stance_xy, swing: Side = Side.RIGHT) -> tuple[NominalGait, StepBounds]:
        """Nominal gait and step bounds about the world stance point ``stance_xy``.

        A left swing mirrors the right-swing numbers first; both are then
        shifted onto the stance point.
        """
        nominal, bounds = self.nominal_gait(), self.step_bounds()
        if swing is Side.LEFT:
            nominal, bounds = mirror_gait(nominal), mirror_bounds(bounds)
        return replace(nominal, cop_T_nom=nominal.cop_T_nom + stance_xy), bounds.shift(stance_xy)

    def validate(self) -> None:
        """Raise ConfigurationError listing every invalid field."""
        bad: list[str] = []

        def check(cond: bool, msg: str) -> None:
            if not cond:
                bad.append(msg)

        for name, value in vars(self).items():  # every number, tuple elements included
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    bad.append(f"{name} must be finite, got {value}")
                    break
        check(self.gravity > 0.0, f"gravity must be positive, got {self.gravity}")
        check(self.com_height > 0.0, f"com_height must be positive, got {self.com_height}")
        check(self.mass > 0.0, f"mass must be positive, got {self.mass}")
        for name in ("l0", "l1", "l2", "l3"):
            check(getattr(self, name) > 0.0, f"{name} must be positive")
        for name in ("hip_ab_limits_deg", "hip_flex_limits_deg", "knee_limits_deg"):
            lo, hi = getattr(self, name)
            check(lo < hi, f"{name} must satisfy min < max, got ({lo}, {hi})")
        if self.stance_width is not None:
            check(self.stance_width > 0.0, "stance_width must be positive")
        check(self.ellipse_a > 0.0, "ellipse_a must be positive")
        check(self.ellipse_b > 0.0, "ellipse_b must be positive")
        check(self.debounce_cycles >= 1, "debounce_cycles must be >= 1")
        check(self.capture_tolerance > 0.0, "capture_tolerance must be positive")
        check(self.capture_hold >= 0.0, "capture_hold must be >= 0")
        check(self.chain_offset > 0.0, "chain_offset must be positive")
        check(0.0 < self.t_min <= self.t_max, f"need 0 < t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        check(self.t_nom > 0.0, "t_nom must be positive")
        check(all(w > 0.0 for w in self.weights), f"weights must be positive, got {self.weights}")
        check(
            all(lo <= hi for lo, hi in zip(self.cop_min, self.cop_max)),
            f"cop_min {self.cop_min} must not exceed cop_max {self.cop_max}",
        )
        check(self.peak_height > 0.0, "peak_height must be positive")
        check(0.0 < self.peak_fraction < 1.0, "peak_fraction must be in (0, 1)")
        check(all(s >= 0.0 for s in self.stiffness_deg), "stiffness_deg must be >= 0")
        check(all(d >= 0.0 for d in self.damping), "damping must be >= 0")
        check(self.torque_kp >= 0.0, "torque_kp must be >= 0")
        check(self.mode in ("assist", "zero_torque"), f"mode must be assist or zero_torque, got {self.mode!r}")
        check(self.inertia > 0.0, "inertia must be positive")
        check(self.viscous_damping >= 0.0, "viscous_damping must be >= 0")
        check(self.foot_half_x > 0.0, "foot_half_x must be positive")
        check(self.foot_half_y > 0.0, "foot_half_y must be positive")
        check(0.0 < self.dt <= 0.01, f"dt must be in (0, 0.01], got {self.dt}")
        check(self.duration > 0.0, "duration must be positive")
        check(self.attitude_noise_deg >= 0.0, "attitude_noise_deg must be >= 0")
        for i, p in enumerate(self.pushes):
            check(p.time <= self.duration, f"push {i} at t={p.time} is past the run duration")
        if bad:
            raise ConfigurationError("invalid scenario: " + "; ".join(bad))


@dataclass(frozen=True)
class Event:
    """Timestamped discrete occurrence; payload values are plain floats/lists."""

    time: float
    kind: str
    payload: dict


@dataclass
class SimTrace:
    """Dense per-cycle log plus the event stream and the resolved config.

    ``run_scenario`` logs every tick as one row of a single ``(N, 21)``
    array; the numeric fields are column views of it.
    """

    t: np.ndarray
    com: np.ndarray  # (N, 2)
    com_vel: np.ndarray  # (N, 2)
    xi: np.ndarray  # (N, 2), true DCM
    cop: np.ndarray  # (N, 2)
    phase: list[str]
    foot: np.ndarray  # (N, 3), commanded swing-foot point (world)
    joint_desired: np.ndarray  # (N, 3) rad
    joint_measured: np.ndarray  # (N, 3) rad
    torque: np.ndarray  # (N, 3) N*m, applied actuator torques
    events: list[Event]
    config: ScenarioConfig


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


def _vec(v) -> list[float]:
    return [float(x) for x in np.asarray(v).reshape(-1)]


class _Episode:
    """Mutable bookkeeping for one recovery step."""

    def __init__(self, trigger_time: float, swing: Side, stance_xy: np.ndarray):
        self.trigger_time = trigger_time
        self.swing = swing
        self.stance_xy = stance_xy  # (2,) the stance foot, the CoP all through the swing
        self.plan: StepPlan | None = None
        self.initial_plan: StepPlan | None = None
        self.traj: SwingTrajectory | None = None
        self.traj_t0 = trigger_time
        self.swing_start: np.ndarray | None = None
        self.geom: LegGeometry | None = None
        self.nominal: NominalGait | None = None
        self.bounds: StepBounds | None = None
        self.frozen = False  # True once the terminal window is reached


def _hip_xy(config: ScenarioConfig, side: Side, com) -> tuple[float, float]:
    lateral = config.l0 if side is Side.LEFT else -config.l0
    return com[0], com[1] + lateral


def _leg_target(config: ScenarioConfig, side: Side, world_point, com) -> np.ndarray:
    x, y = _hip_xy(config, side, com)
    return np.array([world_point[0] - x, world_point[1] - y, world_point[2] - config.com_height])


class Measurement(NamedTuple):
    """What the plant's sensors report at one tick."""

    com: np.ndarray  # (2,) CoM estimate from the trunk attitude
    xi: np.ndarray  # (2,) DCM estimate
    # Tracked leg (hip ab/adduction, hip flexion, knee), each (3,):
    q: np.ndarray  # rad
    qd: np.ndarray  # rad/s
    tau: np.ndarray  # N*m, the actuator torques applied over the last tick
    foot: np.ndarray | None  # (2,) world point of the swinging foot, None if none swings


class Command(NamedTuple):
    """What the controller sends the plant for one tick."""

    cop: tuple[float, float]  # m
    torque: np.ndarray  # (3,) N*m, actuator torques on the tracked leg
    swing: Side | None  # leg in flight; the plant reports its foot next tick
    lift: np.ndarray | None  # (3,) rad, pose of the swing leg lifted off now, at rest
    touchdown: bool  # the swinging foot landed now


class Controller:
    """Phase machine, step planning, swing tracking, IK and impedance.

    It sees the plant only through :class:`Measurement`: the attitude
    estimates, the tracked leg's joint states and, at touchdown, where
    the swinging foot landed.
    """

    def __init__(self, config: ScenarioConfig, events: list[Event], q_hold: np.ndarray):
        self.config = config
        self.events = events
        self.omega = config.lipm_params().omega
        self.limits = config.joint_limits()
        self.gains = ImpedanceGains.from_deg(
            np.asarray(config.stiffness_deg, dtype=float), np.asarray(config.damping, dtype=float)
        )
        self.mode = ControlMode(config.mode)
        self.foot_half = (config.foot_half_x, config.foot_half_y)
        width = config.resolved_stance_width()
        self.feet: dict[Side, np.ndarray] = {
            Side.LEFT: np.array([0.0, 0.5 * width]),
            Side.RIGHT: np.array([0.0, -0.5 * width]),
        }
        # The CoP and the ankle clamp's box are (x, y) float pairs.
        self.cop = (0.0, 0.0)
        self.support_center = (0.0, 0.0)  # clamp centre; the planted foot after a step
        # Clamp half-widths: the double-support hull initially, one foot after
        # touchdown.
        self.support_half = (self.foot_half[0], 0.5 * width + self.foot_half[1])
        self.detector = BalanceDetector(
            SwayEllipse(np.zeros(2), config.ellipse_a, config.ellipse_b),
            debounce_cycles=config.debounce_cycles,
            capture_tolerance=config.capture_tolerance,
            capture_hold=config.capture_hold,
        )
        self.episode: _Episode | None = None
        # Joint state acted on this tick; before any step the tracked leg
        # is the planted right one, held where it stands.
        self.q, self.qd, self.tau = q_hold, np.zeros(3), np.zeros(3)
        self.q_des = q_hold.copy()
        right = self.feet[Side.RIGHT]
        self.foot_point = np.array([right[0], right[1], 0.0])  # commanded swing-foot point

    def step(self, meas: Measurement, t: float) -> Command:
        """Advance the phase machine and return this tick's CoP and torques."""
        self.q, self.qd, self.tau = meas.q, meas.qd, meas.tau
        lift, touchdown = None, False
        xi_hat = meas.xi
        phase = self.detector.phase

        if phase is RecoveryPhase.STANDING:
            # Ankle strategy between episodes: hold the DCM with the CoP
            # wherever the support polygon allows.
            self.cop = ankle_clamp(xi_hat.tolist(), self.support_center, self.support_half)
            trig = self.detector.update(xi_hat, t)
            if trig is not None:
                self.events.append(Event(t, "BalanceLost", {
                    "xi": _vec(trig.xi), "excursion": trig.excursion,
                }))
                lift = self._begin_episode(t, meas)

        elif phase is RecoveryPhase.STEPPING_PLANNED:
            # A previous abort leaves the machine here with nothing to do.
            if self.episode is not None:
                self.detector.start_swing(t)

        elif phase is RecoveryPhase.SWING and self.episode is not None:
            touchdown = self._swing(t, meas)

        elif phase is RecoveryPhase.LANDED and self.episode is not None:
            xi = xi_hat.tolist()
            self.cop = ankle_clamp(xi, self.support_center, self.support_half)
            dx, dy = xi[0] - self.cop[0], xi[1] - self.cop[1]
            offset = math.sqrt(dx * dx + dy * dy)
            if self.detector.update_landing(offset, t):
                self.events.append(Event(t, "Captured", {
                    "xi": _vec(xi_hat), "cop": _vec(self.cop), "offset": offset,
                }))
                self.episode = None
            elif offset > self.config.chain_offset:
                # The new foot cannot hold the DCM: chain another step
                # with the trailing foot.
                trailing = Side.RIGHT if self.episode.swing is Side.LEFT else Side.LEFT
                self.detector.restart_step(t)
                lift = self._begin_episode(t, meas, forced_swing=trailing)

        elif phase is RecoveryPhase.CAPTURED:
            self.cop = ankle_clamp(xi_hat.tolist(), self.support_center, self.support_half)
            # Re-arm around the new stance point so a later push can
            # trigger a fresh episode.
            self.detector.ellipse = SwayEllipse(
                self.cop, self.config.ellipse_a, self.config.ellipse_b
            )
            self.detector.stand(t)

        torque, swing = self._track(t, meas)
        return Command(self.cop, torque, swing, lift, touchdown)

    def _abort(self, t: float, reason: str) -> None:
        self.episode = None
        self.events.append(Event(t, "StepAborted", {"reason": reason}))

    def _begin_episode(
        self, t: float, meas: Measurement, forced_swing: Side | None = None
    ) -> np.ndarray | None:
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
            swing = Side.LEFT if lateral < -1e-12 else Side.RIGHT
        stance_xy = self.feet[Side.RIGHT if swing is Side.LEFT else Side.LEFT]
        ep = _Episode(t, swing, stance_xy)
        ep.nominal, ep.bounds = config.stance_frame(stance_xy, swing)

        # Weight shifts onto the stance leg: the CoP the pendulum sees
        # during the swing is the stance ankle point.
        self.cop = tuple(stance_xy.tolist())
        try:
            plan = plan_step(PlannerInput(xi0=meas.xi, cop0=stance_xy, omega=self.omega,
                                          nominal=ep.nominal, bounds=ep.bounds))
        except PlannerInfeasibleError as err:
            self._abort(t, f"plan_step infeasible: {', '.join(err.violated) or err}")
            return None
        ep.plan = plan
        ep.initial_plan = plan
        ep.swing_start = np.array([self.feet[swing][0], self.feet[swing][1], 0.0])
        ep.traj = build_swing(ep.swing_start, plan, config.peak_height, config.peak_fraction)
        ep.geom = config.leg_geometry(swing)
        try:
            q0 = inverse_kinematics(
                _leg_target(config, swing, ep.swing_start, meas.com), ep.geom, self.limits
            )
        except (WorkspaceError, JointLimitError) as err:
            self._abort(t, f"swing start pose unreachable: {err}")
            return None
        # The swing leg lifts off at rest in its current pose.
        self.q, self.qd, self.tau = q0, np.zeros(3), np.zeros(3)
        self.q_des = self.q.copy()
        self.foot_point = ep.swing_start.copy()

        self.events.append(Event(t, "PlanIssued", {
            "swing": swing.value,
            "cop_T": _vec(plan.cop_T),
            "gamma_T": _vec(plan.gamma_T),
            "duration": plan.duration,
            "sigma": plan.sigma,
            "objective": plan.objective,
            "swing_start": _vec(ep.swing_start[:2]),
        }))
        self.episode = ep
        return self.q

    def _swing(self, t: float, meas: Measurement) -> bool:
        """Replan the step in flight; returns whether the foot touched down."""
        ep = self.episode
        if not ep.frozen:
            try:
                new_plan = replan(
                    ep.plan,
                    PlannerInput(xi0=meas.xi, cop0=ep.stance_xy, omega=self.omega,
                                 nominal=ep.nominal, bounds=ep.bounds),
                    t - ep.trigger_time,
                )
            except PlannerInfeasibleError as err:
                self._abort(t, f"replan infeasible: {', '.join(err.violated) or err}")
                return False
            if new_plan.status == "terminal":
                ep.frozen = True
            else:
                moved = float(np.abs(new_plan.cop_T - ep.plan.cop_T).max())
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
                        "cop_T": _vec(new_plan.cop_T),
                        "remaining": new_plan.duration,
                        "landing_time": ep.trigger_time + new_plan.landing_time,
                        "sigma": new_plan.sigma,
                    }))
            ep.plan = new_plan

        if t - ep.traj_t0 < ep.traj.duration - 1e-9:
            return False
        # Touchdown: where the plant reports the foot landed becomes the
        # stance.
        landed = meas.foot
        self.feet[ep.swing] = landed
        self.cop = self.support_center = tuple(landed.tolist())
        self.support_half = self.foot_half
        self.foot_point = np.array([landed[0], landed[1], 0.0])
        self.detector.touchdown(t)
        self.events.append(Event(t, "TouchDown", {
            "planned": _vec(ep.plan.cop_T),
            "initial_planned": _vec(ep.initial_plan.cop_T),
            "landed": _vec(landed),
            "swing_start": _vec(ep.swing_start[:2]),
            "trigger_time": ep.trigger_time,
        }))
        return True

    def _track(self, t: float, meas: Measurement) -> tuple[np.ndarray, Side | None]:
        """Torques tracking the swing trajectory and the leg in flight;
        zero torques and no leg when no step is in flight."""
        ep = self.episode
        if ep is None or self.detector.phase not in (
            RecoveryPhase.STEPPING_PLANNED,
            RecoveryPhase.SWING,
        ):
            return np.zeros(3), None
        self.foot_point, _, _ = sample(ep.traj, t - ep.traj_t0)
        try:
            self.q_des = inverse_kinematics(
                _leg_target(self.config, ep.swing, self.foot_point, meas.com), ep.geom, self.limits
            )
        except (WorkspaceError, JointLimitError) as err:
            self._abort(t, f"swing target unreachable: {err}")
            return np.zeros(3), None
        tau_des = impedance_torque(self.q_des, self.q, self.qd, self.gains, self.mode)
        return command_torques(tau_des, self.tau, self.config.torque_kp), ep.swing


class Plant:
    """Pendulum, tracked-leg joint plants, disturbances and the sensors.

    The attitude sensor synthesises trunk pitch and roll from the true
    CoM about its anchor, adds seeded noise and saturates, and the
    estimate inverts it with ``L * sin``.  The anchor moves to the foot
    the plant reported landed.  The noise for the whole run is drawn up
    front, one ``(pitch, roll)`` row per tick; that is the same sequence
    as two scalar draws per tick.

    The pendulum state is plain floats: the CoM ``com``, its velocity
    ``vel`` and the attitude ``anchor`` are ``(x, y)`` float pairs.  The
    tracked leg's joint angles ``q``, rates ``qd`` and last applied
    actuator torques ``tau`` are ``(3,)`` arrays.
    """

    def __init__(self, config: ScenarioConfig, events: list[Event], n_ticks: int):
        self.config = config
        self.events = events
        self.params = config.lipm_params()
        self.joint_params = PlantParams(config.inertia, config.viscous_damping)
        self.com = tuple(as_vec2(config.com0, "com0").tolist())
        self.vel = tuple(as_vec2(config.vel0, "vel0").tolist())
        self.pushes = sorted(config.pushes, key=lambda p: (p.time, p.impulse[0], p.impulse[1]))
        noise_std = config.attitude_noise_deg * _DEG
        self.noise = (np.random.default_rng(config.seed).normal(0.0, noise_std, (n_ticks, 2))
                      if noise_std > 0.0 else None)
        self.tick = 0  # row of ``noise`` the next measurement reads
        self.anchor = (0.0, 0.0)  # attitude reference: the stance point
        self.swing: Side | None = None  # leg in flight, whose foot is reported
        self.foot: tuple[float, float] | None = None  # where that foot was last measured
        self.geoms = {side: config.leg_geometry(side) for side in Side}
        # Before any step the tracked leg is the right one, planted at its
        # stance point.
        planted = np.array([0.0, -0.5 * config.resolved_stance_width(), 0.0])
        self.q = inverse_kinematics(
            _leg_target(config, Side.RIGHT, planted, self.com),
            self.geoms[Side.RIGHT],
            config.joint_limits(),
        )
        self.qd, self.tau = np.zeros(3), np.zeros(3)

    def measure(self, t: float) -> Measurement:
        """Apply the pushes due at ``t``, then read the sensors."""
        while self.pushes and self.pushes[0].time <= t + 1e-12:
            push = self.pushes.pop(0)
            self.vel = tuple(apply_impulse(np.array(self.vel), push.impulse, self.params).tolist())
            self.events.append(Event(t, "PushApplied", {"impulse": _vec(push.impulse)}))

        L = self.config.com_height
        (x, y), (ax, ay) = self.com, self.anchor
        pitch = math.asin(_clip((x - ax) / L, _ASIN_LO, _ASIN_HI))
        roll = math.asin(_clip((y - ay) / L, _ASIN_LO, _ASIN_HI))
        if self.noise is not None:
            noise_pitch, noise_roll = self.noise[self.tick].tolist()
            # The inclinometer saturates at the edge of its range.
            lim = 0.5 * math.pi - 1e-9
            pitch = min(max(pitch + noise_pitch, -lim), lim)
            roll = min(max(roll + noise_roll, -lim), lim)
        self.tick += 1
        ex, ey = estimate_com(roll, pitch, L)
        com_x, com_y = ax + ex, ay + ey

        foot = None
        if self.swing is not None:
            achieved = forward_kinematics(self.q, self.geoms[self.swing]).tolist()
            hip_x, hip_y = _hip_xy(self.config, self.swing, self.com)
            self.foot = (hip_x + achieved[0], hip_y + achieved[1])
            foot = np.array(self.foot)
        vx, vy = self.vel
        omega = self.params.omega
        xi_hat = np.array([com_x + vx / omega, com_y + vy / omega])
        return Measurement(np.array([com_x, com_y]), xi_hat, self.q, self.qd, self.tau, foot)

    def step(self, command: Command, t: float) -> None:
        """Take the command's contact changes, then integrate to the next tick."""
        if command.lift is not None:
            self.q, self.qd = command.lift, np.zeros(3)
        if command.touchdown:
            self.anchor = self.foot
        self.swing = command.swing
        dt = self.config.dt
        self.com, self.vel = step_lipm(self.com, self.vel, command.cop, self.params, dt)
        human = [0.0, 0.0, 0.0]
        for pulse in self.config.human_pulses:
            if pulse.start <= t < pulse.end:
                human[pulse.joint] += pulse.torque
        q, qd = [], []
        for angle, rate, applied, extra in zip(
                self.q.tolist(), self.qd.tolist(), command.torque.tolist(), human):
            angle, rate = joint_plant_step(angle, rate, applied, extra, self.joint_params, dt)
            q.append(angle)
            qd.append(rate)
        self.q, self.qd, self.tau = np.array(q), np.array(qd), command.torque


#: Columns of ``run_scenario``'s per-tick log, one ``SimTrace`` field each.
_LOG_COLUMNS = {
    "t": 0, "com": slice(1, 3), "com_vel": slice(3, 5), "xi": slice(5, 7), "cop": slice(7, 9),
    "foot": slice(9, 12), "joint_desired": slice(12, 15), "joint_measured": slice(15, 18),
    "torque": slice(18, 21),
}


def run_scenario(config: ScenarioConfig) -> SimTrace:
    """Run one scenario to completion and return the dense trace."""
    config.validate()
    n_rows = int(round(config.duration / config.dt))
    if n_rows < 1:
        raise ConfigurationError("duration shorter than one control cycle")
    events: list[Event] = []
    plant = Plant(config, events, n_rows)
    controller = Controller(config, events, plant.q)
    omega = plant.params.omega

    log = np.empty((n_rows, 21))
    log_phase: list[str] = []
    for k in range(n_rows):
        t = k * config.dt
        command = controller.step(plant.measure(t), t)
        (x, y), (vx, vy) = plant.com, plant.vel
        log[k] = [t, x, y, vx, vy, x + vx / omega, y + vy / omega, *command.cop,
                  *controller.foot_point.tolist(), *controller.q_des.tolist(),
                  *controller.q.tolist(), *command.torque.tolist()]
        log_phase.append(controller.detector.phase.value)
        plant.step(command, t)

    columns = {name: log[:, col] for name, col in _LOG_COLUMNS.items()}
    return SimTrace(phase=log_phase, events=events, config=config, **columns)


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

    if not touchdowns:
        return StepSummary(
            step_taken=False,
            captured=bool(captures),
            aborted=aborted,
            num_steps=0,
            num_replans=len(replans),
            final_dcm_offset=final_offset,
        )

    td = touchdowns[0]
    plan0 = plans[0]
    sx, sy = map(float, td.payload["swing_start"])
    px, py = map(float, td.payload["initial_planned"])
    lx, ly = map(float, td.payload["landed"])
    vx, vy, wx, wy = px - sx, py - sy, lx - sx, ly - sy
    angle = math.degrees(math.atan2(vx * wy - vy * wx, vx * wx + vy * wy))
    return StepSummary(
        step_taken=True,
        captured=bool(captures),
        aborted=aborted,
        num_steps=len(touchdowns),
        num_replans=len(replans),
        final_dcm_offset=final_offset,
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
