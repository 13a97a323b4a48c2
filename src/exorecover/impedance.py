"""Joint-space impedance control and a torque-driven joint plant.

The assist law per joint is a spring-damper on the tracking error,

    tau = stiffness * (angle_des - angle_meas) - damping * vel_meas,

with gains stored in N*m/rad.  The stock gain set
(``ScenarioConfig.stiffness_deg``) is specified per degree of error;
``ImpedanceGains.from_deg`` stores ``k_deg / (pi/180)``, a conversion
whose round trip back to per-degree torque is exact in IEEE arithmetic,
so a one-degree error commands exactly the per-degree constants.  Zero-torque mode bypasses the law
entirely and commands zero on every joint.

Commanded torques pass through a proportional inner loop on measured
torque, ``command = tau_d + kp * (tau_d - tau_m)``, except at the hip
ab/adduction joint which has no torque sensing and is driven open loop.

The plant is a single rigid joint, ``inertia * acc = tau_applied +
tau_human - viscous * vel``, integrated with fixed-step RK4; its state
is the plain pair ``(angle, velocity)``.

Gains and plant parameters are checked when built; the gains are kept
as float triples.  The per-tick functions take the loop's plain floats
as they are: joint angles, rates and torques are ``(hip ab/adduction,
hip flexion, knee)`` float triples (any three-element sequence), and
``impedance_torque`` and ``command_torques`` return float triples
whose every element is the array formula's, bit for bit.  ``kp`` and
``dt`` are bounded once, by ``ScenarioConfig.validate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .lipm import NONNEGATIVE, POSITIVE, as_floats, require

__all__ = [
    "ImpedanceGains",
    "ControlMode",
    "PlantParams",
    "impedance_torque",
    "command_torques",
    "joint_plant_step",
    "RAD_PER_DEG",
]

RAD_PER_DEG = math.pi / 180.0


def _as_vec3(value, name: str) -> tuple[float, float, float]:
    out = tuple(as_floats(value, name))
    out = out * 3 if len(out) == 1 else out  # one number for all three joints
    if len(out) != 3:
        raise ValueError(f"{name} must have 3 components, got {value!r}")
    return out


@dataclass(frozen=True)
class ImpedanceGains:
    """Per-joint spring and damper gains, radian-based.

    Built from a scalar or any three numbers; kept as float triples.
    """

    stiffness: tuple[float, float, float]  # N*m/rad
    damping: tuple[float, float, float]  # N*m*s/rad

    def __post_init__(self):
        for name in ("stiffness", "damping"):
            gains = _as_vec3(getattr(self, name), name)
            require(name, gains, NONNEGATIVE)
            object.__setattr__(self, name, gains)

    @classmethod
    def from_deg(cls, stiffness_deg, damping) -> "ImpedanceGains":
        """Build from per-degree stiffness (the native tuning unit)."""
        stiffness_deg = _as_vec3(stiffness_deg, "stiffness_deg")
        require("stiffness_deg", stiffness_deg, NONNEGATIVE)
        return cls(stiffness=[k / RAD_PER_DEG for k in stiffness_deg], damping=damping)


class ControlMode(Enum):
    ZERO_TORQUE = "zero_torque"
    ASSIST = "assist"


@dataclass(frozen=True)
class PlantParams:
    """One joint's plant; ``ScenarioConfig`` holds the default values."""

    inertia: float  # kg*m^2
    viscous_damping: float  # N*m*s/rad

    def __post_init__(self):
        require("inertia", self.inertia, POSITIVE)
        require("viscous_damping", self.viscous_damping, NONNEGATIVE)


def impedance_torque(
    desired_angles,
    measured_angles,
    measured_velocities,
    gains: ImpedanceGains,
    mode: ControlMode,
) -> tuple[float, float, float]:
    """Desired actuator torques for all three joints,
    ``stiffness * (desired - measured) - damping * velocity`` per joint."""
    if mode is ControlMode.ZERO_TORQUE:
        return 0.0, 0.0, 0.0
    (d1, d2, d3), (m1, m2, m3), (v1, v2, v3) = desired_angles, measured_angles, measured_velocities
    (k1, k2, k3), (b1, b2, b3) = gains.stiffness, gains.damping
    return k1 * (d1 - m1) - b1 * v1, k2 * (d2 - m2) - b2 * v2, k3 * (d3 - m3) - b3 * v3


def command_torques(tau_desired, tau_measured, kp: float) -> tuple[float, float, float]:
    """Actuator commands ``tau_d + kp * (tau_d - tau_m)``, except at hip ab/adduction.

    That joint (the first) has no torque sensor, so its desired torque
    is commanded directly.
    """
    (d1, d2, d3), (_, m2, m3) = tau_desired, tau_measured
    return d1, d2 + kp * (d2 - m2), d3 + kp * (d3 - m3)


def joint_plant_step(
    angle: float,
    velocity: float,
    applied_torque: float,
    human_torque: float,
    plant: PlantParams,
    dt: float,
) -> tuple[float, float]:
    """One RK4 step of ``inertia * acc = tau_a + tau_h - viscous * vel``.

    Returns the new ``(angle, velocity)``; a non-finite torque raises ValueError.
    """
    if not (math.isfinite(applied_torque) and math.isfinite(human_torque)):
        raise ValueError(f"torques must be finite, got {applied_torque} and {human_torque}")
    tau = applied_torque + human_torque
    inv_i = 1.0 / plant.inertia
    b = plant.viscous_damping

    # acc(vel) = (tau - b * vel) / inertia, written out at each stage.
    q, v = angle, velocity
    a1 = (tau - b * v) * inv_i
    v2 = v + 0.5 * dt * a1
    a2 = (tau - b * v2) * inv_i
    v3 = v + 0.5 * dt * a2
    a3 = (tau - b * v3) * inv_i
    v4 = v + dt * a3
    a4 = (tau - b * v4) * inv_i
    sixth = dt / 6.0
    return (
        q + sixth * (v + 2.0 * (v2 + v3) + v4),
        v + sixth * (a1 + 2.0 * (a2 + a3) + a4),
    )
