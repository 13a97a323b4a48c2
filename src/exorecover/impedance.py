"""Joint-space impedance control and a torque-driven joint plant.

The assist law per joint is a spring-damper on the tracking error,

    tau = stiffness * (angle_des - angle_meas) - damping * vel_meas,

with gains stored in N*m/rad.  The stock gain set is specified per
degree of error; ``ImpedanceGains.from_deg`` stores
``k_deg / (pi/180)``, a conversion whose round trip back to per-degree
torque is exact in IEEE arithmetic, so a one-degree error commands
exactly the per-degree constants.  Zero-torque mode bypasses the law
entirely and commands zero on every joint.

Commanded torques pass through a proportional inner loop on measured
torque, ``command = tau_d + kp * (tau_d - tau_m)``, except at the hip
ab/adduction joint which has no torque sensing and is driven open loop.

The plant is a single rigid joint, ``inertia * acc = tau_applied +
tau_human - viscous * vel``, integrated with fixed-step RK4; its state
is the plain pair ``(angle, velocity)``.

Gains and plant parameters are checked when built.  The per-tick
functions take the loop's plain arrays and floats as they are; ``kp``
and ``dt`` are bounded once, by ``ScenarioConfig.validate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError

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

#: Index of the hip ab/adduction joint in every 3-vector of this module.
HIP_AB = 0


def _as_vec3(value, name: str) -> np.ndarray:
    out = np.asarray(value, dtype=float).reshape(-1)
    if out.shape == (1,):
        out = np.repeat(out, 3)
    if out.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {np.shape(value)}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class ImpedanceGains:
    """Per-joint spring and damper gains, radian-based."""

    stiffness: np.ndarray  # (3,) N*m/rad
    damping: np.ndarray  # (3,) N*m*s/rad

    def __post_init__(self):
        stiff = _as_vec3(self.stiffness, "stiffness")
        damp = _as_vec3(self.damping, "damping")
        if np.any(stiff < 0.0) or np.any(damp < 0.0):
            raise ValueError("gains must be nonnegative")
        object.__setattr__(self, "stiffness", stiff)
        object.__setattr__(self, "damping", damp)

    @classmethod
    def from_deg(cls, stiffness_deg, damping=0.0) -> "ImpedanceGains":
        """Build from per-degree stiffness (the native tuning unit)."""
        stiff = _as_vec3(stiffness_deg, "stiffness_deg") / RAD_PER_DEG
        return cls(stiffness=stiff, damping=_as_vec3(damping, "damping"))


#: Stock gain set: hip ab/adduction, hip flexion, knee, in N*m per degree.
DEFAULT_STIFFNESS_DEG = (1.5, 0.4, 0.4)


class ControlMode(Enum):
    ZERO_TORQUE = "zero_torque"
    ASSIST = "assist"


@dataclass(frozen=True)
class PlantParams:
    inertia: float = 0.05  # kg*m^2
    viscous_damping: float = 0.5  # N*m*s/rad

    def __post_init__(self):
        if not (self.inertia > 0.0) or not math.isfinite(self.inertia):
            raise ConfigurationError(f"inertia must be positive, got {self.inertia}")
        if not (self.viscous_damping >= 0.0) or not math.isfinite(self.viscous_damping):
            raise ConfigurationError(
                f"viscous_damping must be >= 0, got {self.viscous_damping}"
            )


def impedance_torque(
    desired_angles: np.ndarray,
    measured_angles: np.ndarray,
    measured_velocities: np.ndarray,
    gains: ImpedanceGains,
    mode: ControlMode,
) -> np.ndarray:
    """Desired actuator torques for all three joints."""
    if mode is ControlMode.ZERO_TORQUE:
        return np.zeros(3)
    error = desired_angles - measured_angles
    return gains.stiffness * error - gains.damping * measured_velocities


def command_torques(tau_desired: np.ndarray, tau_measured: np.ndarray, kp: float) -> np.ndarray:
    """Actuator commands ``tau_d + kp * (tau_d - tau_m)``, except at hip ab/adduction.

    That joint has no torque sensor, so its desired torque is commanded
    directly.
    """
    out = tau_desired + kp * (tau_desired - tau_measured)
    out[HIP_AB] = tau_desired[HIP_AB]
    return out


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
