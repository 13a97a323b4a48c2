"""Planar linear-inverted-pendulum dynamics and the divergent component.

The horizontal centre of mass obeys ``com_acc = omega**2 * (com - cop)``
with ``omega = sqrt(gravity / com_height)``.  Splitting the state into a
convergent part and the divergent component ``xi = com + com_vel / omega``
decouples the dynamics: ``xi`` diverges away from the centre of pressure,
``com`` converges towards ``xi``.  This module integrates the raw
second-order equation with a fixed-step RK4 and applies impulsive pushes.
Its constants are plain floats, ``omega`` (``ScenarioConfig.omega``) and
``mass``, not re-checked here: ``ScenarioConfig.validate`` bounds
``gravity``, ``com_height`` and ``mass`` once.

Two-dimensional points and velocities (CoM, DCM, CoP, impulse) are
``(x, y)`` pairs of Python floats, in and out of the 1 kHz loop alike.
:func:`as_vec2` is the one place that checks an outside value and turns
it into such a pair; the functions here return pairs.

Validity rules live here too: a :class:`Rule` per kind of number, read by
``ScenarioConfig``'s field declarations and by every constructor's checks.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Callable, NamedTuple

__all__ = [
    "natural_frequency",
    "step_lipm",
    "apply_impulse",
]


def _flatten(value) -> tuple[list[float], tuple[int, ...]]:
    """The numbers in ``value``, in order, and its shape; TypeError if ragged."""
    value = value.tolist() if hasattr(value, "tolist") else value  # numpy, of any shape
    if not isinstance(value, (tuple, list)):
        return [math.nan if value is None else float(value)], ()
    parts = [_flatten(v) for v in value]
    shape = parts[0][1] if parts else ()
    if any(s != shape for _, s in parts):
        raise TypeError("ragged nesting")
    return [x for flat, _ in parts for x in flat], (len(parts), *shape)


def as_floats(value, name: str) -> list[float]:
    """The numbers in a number, a regular nesting of tuples and lists, or a
    numpy array or scalar, in order, as floats; None reads as nan, as in a
    numpy float array.  Anything else is a ValueError naming ``name``."""
    flat = value.tolist() if hasattr(value, "tolist") else value
    try:
        if isinstance(flat, (tuple, list)) and all(type(v) in (float, int) for v in flat):
            return [float(v) for v in flat]  # the common case, a flat sequence
        return _flatten(flat)[0]
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float's range
        raise ValueError(f"{name} must be a number or a regular array of numbers, "
                         f"got {value!r}") from None


def clip(x: float, lo: float, hi: float) -> float:
    """``min(max(x, lo), hi)`` with two comparisons and no builtin call.

    A tie or a NaN keeps the first argument, as the builtins do, so
    ``clip(-0.0, 0.0, 1.0)`` is ``-0.0`` (``np.clip`` returns the bound)."""
    x = lo if lo > x else x
    return hi if hi < x else x


class Rule(NamedTuple):
    """What each number of a value must be, and the words ("positive") that say so."""

    test: Callable[[object], bool]
    words: str


_INF = math.inf


def _real(v) -> bool:
    """A real number, not a bool (a scenario file cannot hold one); rules try float first."""
    return type(v) is int or (isinstance(v, Real) and not isinstance(v, bool))


def _integer(v) -> bool:
    """An integer and not a bool."""
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


FINITE = Rule(lambda v: (type(v) is float or _real(v)) and -_INF < v < _INF, "finite")
POSITIVE = Rule(lambda v: (type(v) is float or _real(v)) and 0.0 < v < _INF, "positive")
NONNEGATIVE = Rule(lambda v: (type(v) is float or _real(v)) and 0.0 <= v < _INF, ">= 0")
POSITIVE_INT = Rule(lambda v: _integer(v) and v >= 1, "an integer >= 1")
NONNEGATIVE_INT = Rule(lambda v: _integer(v) and v >= 0, "an integer >= 0")


def broken(value, rule: Rule) -> str | None:
    """Why ``value`` (or an item of a tuple or list) breaks ``rule``, as ``"must be
    positive, got -1.0"``, or None; a number that is not finite breaks every rule."""
    many = isinstance(value, (tuple, list))
    if all(map(rule.test, value)) if many else rule.test(value):
        return None
    items = value if many else (value,)
    if any(_real(v) and not -_INF < v < _INF for v in items):
        return f"must be finite, got {value!r}"
    return f"must be {rule.words}, got {value!r}"


def require(name: str, value, rule: Rule) -> None:
    """Raise ValueError ``"<name> must be ..., got ..."`` unless ``value`` keeps ``rule``."""
    why = broken(value, rule)
    if why is not None:
        raise ValueError(f"{name} {why}")


def as_vec2(value, name: str) -> tuple[float, float]:
    """Return ``value`` as a finite ``(x, y)`` float pair or raise ValueError."""
    out = as_floats(value, name)
    if len(out) != 2:
        raise ValueError(f"{name} must have exactly 2 components, got {value!r}")
    if not all(map(math.isfinite, out)):  # floats: FINITE's test, at C speed
        raise ValueError(f"{name} {broken(out, FINITE)}")
    return tuple(out)


def natural_frequency(gravity: float, com_height: float) -> float:
    """Pendulum constant ``sqrt(gravity / com_height)`` in 1/s."""
    require("gravity", gravity, POSITIVE)
    require("com_height", com_height, POSITIVE)
    return math.sqrt(gravity / com_height)


def step_lipm(com, com_vel, cop, omega: float, dt: float):
    """Advance the pendulum by one RK4 step with the CoP held constant.

    ``com``, ``com_vel`` and ``cop`` are ``(x, y)`` float pairs (any
    two-element sequence); the new ``(com, com_vel)`` comes back as two
    float tuples.  Nothing is re-checked: ``ScenarioConfig.validate``
    bounds ``dt`` to ``(0, 0.01]`` s, past which this integrator loses
    its fourth-order accuracy.
    """
    w2 = omega * omega
    half = 0.5 * dt
    sixth = dt / 6.0

    # Per-axis arithmetic, x and y side by side, in the same order as the
    # elementwise array form ``com + sixth * (v + 2 * (v2 + v3) + v4)``, so
    # results are bit-identical to it.  Written out with no loop or list:
    # this runs on every tick of the 1 kHz loop.
    (x, y), (vx, vy), (px, py) = com, com_vel, cop
    ax1, ay1 = w2 * (x - px), w2 * (y - py)
    x2, y2 = x + half * vx, y + half * vy
    vx2, vy2 = vx + half * ax1, vy + half * ay1
    ax2, ay2 = w2 * (x2 - px), w2 * (y2 - py)
    x3, y3 = x + half * vx2, y + half * vy2
    vx3, vy3 = vx + half * ax2, vy + half * ay2
    ax3, ay3 = w2 * (x3 - px), w2 * (y3 - py)
    x4, y4 = x + dt * vx3, y + dt * vy3
    vx4, vy4 = vx + dt * ax3, vy + dt * ay3
    ax4, ay4 = w2 * (x4 - px), w2 * (y4 - py)
    return ((x + sixth * (vx + 2.0 * (vx2 + vx3) + vx4), y + sixth * (vy + 2.0 * (vy2 + vy3) + vy4)),
            (vx + sixth * (ax1 + 2.0 * (ax2 + ax3) + ax4), vy + sixth * (ay1 + 2.0 * (ay2 + ay3) + ay4)))


def apply_impulse(com_vel, impulse, mass: float) -> tuple[float, float]:
    """Instantaneous push: the new velocity, ``com_vel + impulse / mass``.

    The position is untouched; the DCM therefore jumps by
    ``impulse / (mass * omega)``.
    """
    (vx, vy), (ix, iy) = as_vec2(com_vel, "com_vel"), as_vec2(impulse, "impulse")
    return vx + ix / mass, vy + iy / mass
