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

The plant is a rigid joint per leg joint, ``inertia * acc = tau_applied +
tau_human - viscous * vel``, integrated with fixed-step RK4;
``joint_plant_step`` steps the leg's three joints in one call, each in
the scalar RK4's operation order, and its state is the plain triples of
angles and velocities.

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
from math import isfinite

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


#: Read by ``impedance_torque`` on every tick: a member read off the class
#: goes through ``EnumType.__getattr__`` on Python 3.11.
_ZERO_TORQUE = ControlMode.ZERO_TORQUE


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
    if mode is _ZERO_TORQUE:
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


def joint_plant_step(q, qd, applied_torque, human_torque, plant: PlantParams,
                     dt: float) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """One RK4 step of ``inertia * acc = tau_a + tau_h - viscous * vel`` for
    each of the leg's three joints.

    ``q``, ``qd``, the applied torques and the wearer's torques are float
    triples; returns the new ``(q, qd)`` triples.  A non-finite torque
    raises ValueError.
    """
    (a0, a1, a2), (h0, h1, h2) = applied_torque, human_torque
    if not (isfinite(a0) and isfinite(a1) and isfinite(a2)
            and isfinite(h0) and isfinite(h1) and isfinite(h2)):
        raise ValueError(f"torques must be finite, got {applied_torque} and {human_torque}")
    inv_i = 1.0 / plant.inertia
    b = plant.viscous_damping
    # v + 0.5 * dt * a is v + (0.5 * dt) * a: the half step is taken once.
    half, sixth = 0.5 * dt, dt / 6.0
    (q0, q1, q2), (v0, v1, v2) = q, qd

    # acc(vel) = (tau - b * vel) / inertia, written out at each stage.
    tau = a0 + h0
    k1 = (tau - b * v0) * inv_i
    u2 = v0 + half * k1
    k2 = (tau - b * u2) * inv_i
    u3 = v0 + half * k2
    k3 = (tau - b * u3) * inv_i
    u4 = v0 + dt * k3
    k4 = (tau - b * u4) * inv_i
    q0, v0 = q0 + sixth * (v0 + 2.0 * (u2 + u3) + u4), v0 + sixth * (k1 + 2.0 * (k2 + k3) + k4)

    tau = a1 + h1
    k1 = (tau - b * v1) * inv_i
    u2 = v1 + half * k1
    k2 = (tau - b * u2) * inv_i
    u3 = v1 + half * k2
    k3 = (tau - b * u3) * inv_i
    u4 = v1 + dt * k3
    k4 = (tau - b * u4) * inv_i
    q1, v1 = q1 + sixth * (v1 + 2.0 * (u2 + u3) + u4), v1 + sixth * (k1 + 2.0 * (k2 + k3) + k4)

    tau = a2 + h2
    k1 = (tau - b * v2) * inv_i
    u2 = v2 + half * k1
    k2 = (tau - b * u2) * inv_i
    u3 = v2 + half * k2
    k3 = (tau - b * u3) * inv_i
    u4 = v2 + dt * k3
    k4 = (tau - b * u4) * inv_i
    q2, v2 = q2 + sixth * (v2 + 2.0 * (u2 + u3) + u4), v2 + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return (q0, q1, q2), (v0, v1, v2)
