"""Planar linear-inverted-pendulum dynamics and the divergent component.

The horizontal centre of mass obeys ``com_acc = omega**2 * (com - cop)``
with ``omega = sqrt(gravity / com_height)``.  Splitting the state into a
convergent part and the divergent component ``xi = com + com_vel / omega``
decouples the dynamics: ``xi`` diverges away from the centre of pressure,
``com`` converges towards ``xi``.  Both sub-systems have closed forms for
a constant CoP, which this module exposes next to a fixed-step RK4
integrator of the raw second-order equation.

Two-dimensional points and velocities (CoM, DCM, CoP) are plain ``(2,)``
float arrays, except in the integrator: ``step_lipm`` advances the
pendulum state ``(com, com_vel)`` as ``(x, y)`` pairs of Python floats,
which is what the 1 kHz loop carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LipmParams",
    "natural_frequency",
    "dcm_of",
    "dcm_closed_form",
    "com_closed_form",
    "step_lipm",
    "apply_impulse",
]


def as_vec2(value, name: str = "value") -> np.ndarray:
    """Return ``value`` as a finite ``(2,)`` float array or raise ValueError."""
    if type(value) is np.ndarray and value.shape == (2,) and value.dtype == np.float64:
        # Hot path for the 1 kHz loop: already the right container.
        if math.isfinite(value[0]) and math.isfinite(value[1]):
            return value
        raise ValueError(f"{name} must be finite, got {value}")
    out = np.asarray(value, dtype=float).reshape(-1)
    if out.shape != (2,):
        raise ValueError(f"{name} must have exactly 2 components, got shape {np.shape(value)}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


def natural_frequency(gravity: float, com_height: float) -> float:
    """Pendulum constant ``sqrt(gravity / com_height)`` in 1/s."""
    if not (gravity > 0.0) or not math.isfinite(gravity):
        raise ValueError(f"gravity must be positive, got {gravity}")
    if not (com_height > 0.0) or not math.isfinite(com_height):
        raise ValueError(f"com_height must be positive, got {com_height}")
    return math.sqrt(gravity / com_height)


@dataclass(frozen=True)
class LipmParams:
    """Pendulum parameters.

    The natural frequency is derived in ``__post_init__`` and therefore
    always consistent with ``gravity`` and ``com_height``; being frozen,
    any change goes through ``dataclasses.replace`` and recomputes it.
    """

    gravity: float = 9.81  # m/s^2
    com_height: float = 0.88  # m, constant-height plane of the CoM
    mass: float = 70.0  # kg, only used to convert impulses
    omega: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.mass > 0.0) or not math.isfinite(self.mass):
            raise ValueError(f"mass must be positive, got {self.mass}")
        object.__setattr__(
            self, "omega", natural_frequency(self.gravity, self.com_height)
        )


def dcm_of(com: np.ndarray, com_vel: np.ndarray, params: LipmParams) -> np.ndarray:
    """Divergent component ``com + com_vel / omega``."""
    return com + com_vel / params.omega


def _check_horizon(t: float) -> float:
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError(f"horizon t must be >= 0, got {t}")
    return float(t)


def dcm_closed_form(xi0, cop0, params: LipmParams, t: float) -> np.ndarray:
    """DCM after time ``t`` under a CoP held constant at ``cop0``.

    ``(xi0 - cop0) * exp(omega * t) + cop0``
    """
    t = _check_horizon(t)
    xi0 = as_vec2(xi0, "xi0")
    cop0 = as_vec2(cop0, "cop0")
    return (xi0 - cop0) * math.exp(params.omega * t) + cop0


def com_closed_form(com0, xi0, params: LipmParams, t: float) -> np.ndarray:
    """CoM after time ``t`` while the DCM is frozen at ``xi0``.

    ``(com0 - xi0) * exp(-omega * t) + xi0``; valid when the CoP tracks
    the DCM so that ``xi`` does not move (the post-capture regime).
    """
    t = _check_horizon(t)
    com0 = as_vec2(com0, "com0")
    xi0 = as_vec2(xi0, "xi0")
    return (com0 - xi0) * math.exp(-params.omega * t) + xi0


def step_lipm(com, com_vel, cop, params: LipmParams, dt: float):
    """Advance the pendulum by one RK4 step with the CoP held constant.

    ``com``, ``com_vel`` and ``cop`` are ``(x, y)`` float pairs (any
    two-element sequence); the new ``(com, com_vel)`` comes back as two
    float tuples.  Nothing is re-checked: ``ScenarioConfig.validate``
    bounds ``dt`` to ``(0, 0.01]`` s, past which this integrator loses
    its fourth-order accuracy.
    """
    w2 = params.omega * params.omega
    half = 0.5 * dt
    sixth = dt / 6.0

    # Scalar per-axis arithmetic, in the same order as the elementwise
    # array form ``com + sixth * (v + 2 * (v2 + v3) + v4)``, so results are
    # bit-identical to it while the 1 kHz loop stays on Python floats.
    out_com = []
    out_vel = []
    for x, v, p in zip(com, com_vel, cop):
        a1 = w2 * (x - p)
        x2 = x + half * v
        v2 = v + half * a1
        a2 = w2 * (x2 - p)
        x3 = x + half * v2
        v3 = v + half * a2
        a3 = w2 * (x3 - p)
        x4 = x + dt * v3
        v4 = v + dt * a3
        a4 = w2 * (x4 - p)
        out_com.append(x + sixth * (v + 2.0 * (v2 + v3) + v4))
        out_vel.append(v + sixth * (a1 + 2.0 * (a2 + a3) + a4))

    return tuple(out_com), tuple(out_vel)


def apply_impulse(com_vel: np.ndarray, impulse, params: LipmParams) -> np.ndarray:
    """Instantaneous push: the new velocity, ``com_vel + impulse / mass``.

    The position is untouched; the DCM therefore jumps by
    ``impulse / (mass * omega)``.
    """
    return com_vel + as_vec2(impulse, "impulse") / params.mass
