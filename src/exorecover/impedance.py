"""Joint-space impedance control and a torque-driven joint plant.

The assist law per joint is a spring-damper on the tracking error,

    tau = stiffness * (angle_des - angle_meas) - damping * vel_meas,

with gains in N*m/rad.  The stock gain set (``ScenarioConfig.stiffness_deg``)
is specified per degree of error; the controller stores ``k_deg /
(pi/180)``, a conversion whose round trip back to per-degree torque is
exact in IEEE arithmetic, so a one-degree error commands exactly the
per-degree constants.  Zero-torque mode does not call the law: the
controller commands zero on every joint.

Commanded torques pass through a proportional inner loop on measured
torque, ``command = tau_d + kp * (tau_d - tau_m)``, except at the hip
ab/adduction joint which has no torque sensing and is driven open loop.

The plant is a rigid joint per leg joint, ``inertia * acc = tau_applied +
tau_human - viscous * vel``, integrated with fixed-step RK4;
``joint_plant_step`` steps the leg's three joints in one call, each in
the scalar RK4's operation order, and its state is the plain triples of
angles and velocities.

Every function here takes the loop's plain floats as they are: gains,
joint angles, rates and torques are ``(hip ab/adduction, hip flexion,
knee)`` float triples (any three-element sequence), and
``impedance_torque`` and ``command_torques`` return float triples whose
every element is the array formula's, bit for bit.  The gains, ``kp``,
the plant's ``inertia`` and ``viscous_damping`` and ``dt`` are bounded
once, by ``ScenarioConfig.validate``.
"""

from __future__ import annotations

import math
from math import isfinite

__all__ = [
    "impedance_torque",
    "command_torques",
    "joint_plant_step",
    "RAD_PER_DEG",
]

RAD_PER_DEG = math.pi / 180.0


def impedance_torque(desired_angles, measured_angles, measured_velocities, stiffness,
                     damping) -> tuple[float, float, float]:
    """Desired actuator torques for all three joints,
    ``stiffness * (desired - measured) - damping * velocity`` per joint, with
    ``stiffness`` in N*m/rad and ``damping`` in N*m*s/rad."""
    (d1, d2, d3), (m1, m2, m3), (v1, v2, v3) = desired_angles, measured_angles, measured_velocities
    (k1, k2, k3), (b1, b2, b3) = stiffness, damping
    return k1 * (d1 - m1) - b1 * v1, k2 * (d2 - m2) - b2 * v2, k3 * (d3 - m3) - b3 * v3


def command_torques(tau_desired, tau_measured, kp: float) -> tuple[float, float, float]:
    """Actuator commands ``tau_d + kp * (tau_d - tau_m)``, except at hip ab/adduction.

    That joint (the first) has no torque sensor, so its desired torque
    is commanded directly.
    """
    (d1, d2, d3), (_, m2, m3) = tau_desired, tau_measured
    return d1, d2 + kp * (d2 - m2), d3 + kp * (d3 - m3)


def joint_plant_step(q, qd, applied_torque, human_torque, inertia: float, viscous_damping: float,
                     dt: float) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """One RK4 step of ``inertia * acc = tau_a + tau_h - viscous * vel`` for
    each of the leg's three joints.

    ``q``, ``qd``, the applied torques and the wearer's torques are float
    triples, ``inertia`` is in kg*m^2 and ``viscous_damping`` in N*m*s/rad;
    returns the new ``(q, qd)`` triples.  A non-finite torque raises
    ValueError.
    """
    (a0, a1, a2), (h0, h1, h2) = applied_torque, human_torque
    if not (isfinite(a0) and isfinite(a1) and isfinite(a2)
            and isfinite(h0) and isfinite(h1) and isfinite(h2)):
        raise ValueError(f"torques must be finite, got {applied_torque} and {human_torque}")
    inv_i = 1.0 / inertia
    b = viscous_damping
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
