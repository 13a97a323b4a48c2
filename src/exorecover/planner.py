"""Recovery-step adaptation, solved exactly in the step-timing variable.

Given the DCM ``xi0`` and stance CoP ``cop0`` at trigger time, the
planner picks a landing CoP ``cop_T``, a step-duration variable
``sigma = exp(omega * T)`` and a landing DCM offset ``gamma_T`` that
satisfy the DCM boundary condition per horizontal axis

    gamma_T + cop_T + (cop0 - xi0) * sigma = cop0

(which is the constant-CoP DCM closed form written at touchdown, with
``gamma_T = xi(T) - cop_T``).  The cost trades deviation from a nominal
landing point, a nominal landing offset and a nominal duration:

    alpha1*|cop_T - cop_T_nom|^2 + alpha2*|gamma_T - gamma_nom|^2
        + alpha3*(sigma - exp(omega*T_nom))^2

subject to box bounds on ``cop_T`` and ``sigma``.  ``cop_T_nom`` and the
CoP box are given about the stance CoP ``cop0``, which the solve adds.  As a QP in
``z = (cop_x, cop_y, sigma, gamma_x, gamma_y)`` the boundary condition
is two equality rows ``E z = e`` and the boxes are the six rows
``C z <= d`` named by :func:`constraint_names`.  The plan carries no
KKT multipliers: the tests recover them from ``z`` to certify it.

The program is solved exactly in ``sigma`` alone, as in Khadiv et al.,
"Step timing adjustment", Humanoids 2016.  With ``r = cop0 - xi0`` the
boundary condition gives ``gamma_a = u_a - cop_a`` per axis ``a``, where
``u_a = cop0_a - r_a*sigma``.  For fixed ``sigma`` the best landing CoP
is ``c*_a = (alpha1*cop_T_nom_a + alpha2*(u_a - gamma_nom_a)) /
(alpha1 + alpha2)``, affine in ``sigma``, clipped into the CoP box.  The
cost left in ``sigma`` is convex, C1 and piecewise quadratic, with a
breakpoint wherever some ``c*_a`` crosses a CoP bound: at most four
inside ``[sigma_min, sigma_max]``.  Its derivative is linear on each
piece, so the minimiser is a sigma bound or the vertex of the piece on
which the derivative changes sign.  Only ``math`` and Python floats are
used, so planning does not depend on LAPACK.

Planar vectors (``xi0``, ``cop0``, the nominal point and offset, the CoP
box corners and the plan's ``cop_T``, ``gamma_T`` and ``xi_T``) are
``(x, y)`` pairs of Python floats.  The gait and the bounds are checked
by their dataclasses, ``cop0`` and ``omega`` by :func:`step_program`
and the DCM by :func:`plan_step`; :func:`replan` takes it as it is.

While one step is in flight only the DCM and the duration window change:
the stance CoP, the side's gait and box and ``omega`` are fixed.  The
terms built from those alone (the world box and nominal point, the
weight products, ``exp(omega*T_nom)``) are a :class:`StepProgram`,
built once per step by :func:`step_program` and taken by every solve of
that step: :func:`plan_step` at the trigger, :func:`replan` in flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import PlannerInfeasibleError
from .lipm import POSITIVE, as_vec2, clip, require

__all__ = [
    "NominalGait",
    "StepBounds",
    "StepPlan",
    "StepProgram",
    "step_program",
    "plan_step",
    "replan",
    "constraint_names",
    "mirror_gait",
    "mirror_bounds",
]

#: Shortest remaining swing time the planner will re-optimise over, in
#: seconds.  Below this the plan is frozen and the swing just finishes.
REPLAN_FLOOR = 0.1


@dataclass(frozen=True)
class NominalGait:
    """Preferred landing point (about the stance CoP), landing DCM offset, duration and weights."""

    cop_T_nom: tuple[float, float]  # m
    gamma_nom: tuple[float, float]  # m
    T_nom: float  # s
    weights: tuple[float, float, float]  # (alpha1, alpha2, alpha3)

    def __post_init__(self):
        object.__setattr__(self, "cop_T_nom", as_vec2(self.cop_T_nom, "cop_T_nom"))
        object.__setattr__(self, "gamma_nom", as_vec2(self.gamma_nom, "gamma_nom"))
        require("T_nom", self.T_nom, POSITIVE)
        w = tuple(float(v) for v in self.weights)
        if len(w) != 3:
            raise ValueError(f"weights must have 3 components, got {self.weights!r}")
        require("weights", w, POSITIVE)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class StepBounds:
    """Feasible boxes for the landing CoP and the step duration.

    The CoP box is about the stance CoP; :meth:`shift` moves it to the world.
    The duration bounds ``T_min`` and ``T_max`` are each positive.

    Not checked for emptiness: scenario configs check their bounds once,
    up front (``ScenarioConfig.validate``, the program's one bounds
    check), while raw planning calls let an inverted CoP box or an empty
    duration window surface as a :class:`PlannerInfeasibleError` naming
    the empty rows.  These are the only infeasible programs.
    """

    cop_min: tuple[float, float]  # m
    cop_max: tuple[float, float]  # m
    T_min: float  # s
    T_max: float  # s

    def __post_init__(self):
        object.__setattr__(self, "cop_min", as_vec2(self.cop_min, "cop_min"))
        object.__setattr__(self, "cop_max", as_vec2(self.cop_max, "cop_max"))
        require("T_min", self.T_min, POSITIVE)
        require("T_max", self.T_max, POSITIVE)

    def sigma_bounds(self, omega: float) -> tuple[float, float]:
        return math.exp(omega * self.T_min), math.exp(omega * self.T_max)

    def shift(self, offset) -> "StepBounds":
        """Translate the CoP box by a 2-vector (the world box about a stance point)."""
        x, y = as_vec2(offset, "offset")
        (lo_x, lo_y), (hi_x, hi_y) = self.cop_min, self.cop_max
        return replace(self, cop_min=(lo_x + x, lo_y + y), cop_max=(hi_x + x, hi_y + y))


class StepPlan(NamedTuple):
    """Planner output.

    ``duration`` is the (remaining) swing time from the moment the plan
    was made; ``planned_at`` timestamps that moment relative to the
    trigger, so ``planned_at + duration`` is the absolute landing time
    of the step.

    ``status`` is ``"optimal"`` for the exact minimiser of the program
    solved (for :func:`replan`, the one with the shrunk duration window)
    and ``"terminal"`` for a frozen plan that finishes the swing on
    schedule.  ``active_set`` lists the :func:`constraint_names` rows that
    hold with equality.
    """

    cop_T: tuple[float, float]  # m, world landing CoP
    gamma_T: tuple[float, float]  # m, landing DCM offset xi(T) - cop_T
    sigma: float  # exp(omega * duration)
    duration: float  # s
    objective: float
    status: str  # "optimal" | "terminal"
    active_set: tuple[int, ...]
    planned_at: float  # s since trigger

    @property
    def landing_time(self) -> float:
        """Touchdown instant measured from the trigger."""
        return self.planned_at + self.duration

    @property
    def xi_T(self) -> tuple[float, float]:
        """Predicted DCM at touchdown."""
        (cx, cy), (gx, gy) = self.cop_T, self.gamma_T
        return cx + gx, cy + gy


class StepProgram(NamedTuple):
    """The terms of one step's program that do not change while it is in
    flight, in world coordinates; built by :func:`step_program`.

    ``k1 = alpha1*cop_nom``, ``k2 = -2*alpha2``, ``k3 = 2*alpha3`` and
    ``p = k1 + alpha2*(cop0 - gamma_nom)`` are the weight products of the
    closed forms in :func:`_solve`.
    """

    cop0: tuple[float, float]  # m, stance CoP
    omega: float  # 1/s
    T_min: float  # s
    T_max: float  # s
    sigma_min: float  # exp(omega * T_min)
    sigma_max: float  # exp(omega * T_max)
    cop_min: tuple[float, float]  # m, world CoP box
    cop_max: tuple[float, float]  # m
    cop_nom: tuple[float, float]  # m, world nominal landing point
    gamma_nom: tuple[float, float]  # m
    weights: tuple[float, float, float]  # (alpha1, alpha2, alpha3)
    w: float  # alpha1 + alpha2
    sigma_nom: float  # exp(omega * T_nom)
    k1: tuple[float, float]
    k2: float
    k3: float
    p: tuple[float, float]


def constraint_names() -> tuple[str, ...]:
    return (
        "cop_x <= cop_max_x",
        "cop_y <= cop_max_y",
        "cop_x >= cop_min_x",
        "cop_y >= cop_min_y",
        "sigma <= exp(omega*T_max)",
        "sigma >= exp(omega*T_min)",
    )


def step_program(cop0, omega: float, nominal: NominalGait, bounds: StepBounds) -> StepProgram:
    """The fixed terms of the step from the stance CoP ``cop0`` for
    ``omega``, ``nominal`` and ``bounds``: the planner's checked input.

    Raises ValueError unless ``cop0`` is a finite 2-vector and ``omega``
    is positive, then :class:`PlannerInfeasibleError` for an empty CoP
    box or duration window, naming both rows of each empty interval, and
    then ValueError when ``exp(omega*T)`` of ``T_nom`` or a duration bound
    leaves the float range.
    """
    c0_x, c0_y = as_vec2(cop0, "cop0")
    require("omega", omega, POSITIVE)
    # The gait point and the CoP box are about the stance CoP; the world
    # values are taken here, once per step.
    (nx, ny), (gn_x, gn_y) = nominal.cop_T_nom, nominal.gamma_nom
    (lo_x, lo_y), (hi_x, hi_y) = bounds.cop_min, bounds.cop_max
    cn_x, cn_y = nx + c0_x, ny + c0_y
    lo_x, lo_y, hi_x, hi_y = lo_x + c0_x, lo_y + c0_y, hi_x + c0_x, hi_y + c0_y
    t_lo, t_hi = bounds.T_min, bounds.T_max
    if lo_x > hi_x or lo_y > hi_y or t_lo > t_hi:
        # An empty interval names both its rows.
        empty = (lo_x > hi_x, lo_y > hi_y) * 2 + (t_lo > t_hi,) * 2
        bad = tuple(name for name, e in zip(constraint_names(), empty) if e)
        raise PlannerInfeasibleError("step program has an empty box: " + ", ".join(bad), violated=bad)
    try:
        s_min, s_max = bounds.sigma_bounds(omega)
        s_nom = math.exp(omega * nominal.T_nom)
    except OverflowError:
        raise ValueError(f"exp(omega*T) leaves the float range for omega={omega}, T_min={t_lo}, "
                         f"T_max={t_hi}, T_nom={nominal.T_nom}") from None
    a1, a2, a3 = weights = nominal.weights
    k1_x, k1_y = a1 * cn_x, a1 * cn_y
    return StepProgram(
        (c0_x, c0_y), omega, t_lo, t_hi, s_min, s_max, (lo_x, lo_y), (hi_x, hi_y), (cn_x, cn_y),
        (gn_x, gn_y), weights, a1 + a2, s_nom, (k1_x, k1_y),
        -2.0 * a2, 2.0 * a3, (k1_x + a2 * (c0_x - gn_x), k1_y + a2 * (c0_y - gn_y)),
    )


def _cost(program: StepProgram, cop, sigma: float, gamma) -> float:
    """The full quadratic cost of the module docstring (with its constant
    term, unlike the raw QP) at the float pairs ``cop`` and ``gamma``,
    summed in Python floats, so the value does not depend on the BLAS
    build."""
    a1, a2, a3 = program.weights
    (cx, cy), (gx, gy) = program.cop_nom, program.gamma_nom
    dx, dy = cop[0] - cx, cop[1] - cy
    ex, ey = gamma[0] - gx, gamma[1] - gy
    sn = program.sigma_nom
    return a1 * (dx * dx + dy * dy) + a2 * (ex * ex + ey * ey) + a3 * (sigma - sn) ** 2


def _binding_rows(cop, sigma: float, lo, hi, s_lo: float, s_hi: float) -> tuple[int, ...]:
    """The :func:`constraint_names` rows that hold with equality."""
    on = (cop[0] == hi[0], cop[1] == hi[1], cop[0] == lo[0], cop[1] == lo[1],
          sigma == s_hi, sigma == s_lo)
    return tuple([i for i in range(6) if on[i]])


def _solve(xi0, program: StepProgram, s_lo: float, s_hi: float, planned_at: float) -> StepPlan:
    """Exact minimiser of ``program`` with ``sigma`` in ``[s_lo, s_hi]``,
    not empty, for the DCM ``xi0``, a float pair; see the module docstring.

    Straight-line float code, one statement per axis: it runs on every
    in-flight tick.  Each product and sum is taken in the same order as
    the closed forms of the module docstring.
    """
    x0_x, x0_y = xi0
    ((c0_x, c0_y), omega, _, _, _, _, (lo_x, lo_y), (hi_x, hi_y), _, (gn_x, gn_y), (_, a2, _), w,
     sn, (k1_x, k1_y), k2, k3, (p_x, p_y)) = program
    r_x, r_y = c0_x - x0_x, c0_y - x0_y
    # At sigma, with u_a = c0_a - r_a*sigma, the exact CoP is
    # clip((a1*cn_a + a2*(u_a - gn_a)) / w), gamma_a = u_a - cop_a and the
    # cost's sigma derivative is 2*a3*(sigma - sn) + r_x*nu_x + r_y*nu_y
    # with nu_a = -2*a2*(gamma_a - gn_a); k1_a = a1*cn_a.

    # c*_a(sigma) meets the bound b where p_a - b*(alpha1 + alpha2) = q_a*sigma.
    points = [s_lo, s_hi]
    q_x, q_y = a2 * r_x, a2 * r_y
    if q_x != 0.0:
        for s in ((p_x - lo_x * w) / q_x, (p_x - hi_x * w) / q_x):
            if s_lo < s < s_hi:
                points.append(s)
    if q_y != 0.0:
        for s in ((p_y - lo_y * w) / q_y, (p_y - hi_y * w) / q_y):
            if s_lo < s < s_hi:
                points.append(s)
    points.sort()

    # The slope is continuous, increasing and linear on each piece, so the
    # minimiser is a sigma bound or the vertex of the piece on which the
    # slope changes sign, where linear interpolation finds it exactly.
    slopes = []
    for s in points:
        u_x, u_y = c0_x - r_x * s, c0_y - r_y * s
        cop_x = clip((k1_x + a2 * (u_x - gn_x)) / w, lo_x, hi_x)
        cop_y = clip((k1_y + a2 * (u_y - gn_y)) / w, lo_y, hi_y)
        slopes.append(k3 * (s - sn) + r_x * (k2 * (u_x - cop_x - gn_x))
                      + r_y * (k2 * (u_y - cop_y - gn_y)))
    sigma = s_hi if slopes[-1] <= 0.0 else s_lo
    for i in range(len(points) - 1):
        d0, d1 = slopes[i], slopes[i + 1]
        if d0 <= 0.0 < d1:
            s0, s1 = points[i], points[i + 1]
            sigma = clip(s0 - d0 * (s1 - s0) / (d1 - d0), s0, s1)
    u_x, u_y = c0_x - r_x * sigma, c0_y - r_y * sigma
    cop_x = clip((k1_x + a2 * (u_x - gn_x)) / w, lo_x, hi_x)
    cop_y = clip((k1_y + a2 * (u_y - gn_y)) / w, lo_y, hi_y)
    cop, gamma = (cop_x, cop_y), (u_x - cop_x, u_y - cop_y)
    return StepPlan(cop, gamma, sigma, math.log(sigma) / omega, _cost(program, cop, sigma, gamma),
                    "optimal", _binding_rows(cop, sigma, (lo_x, lo_y), (hi_x, hi_y), s_lo, s_hi),
                    planned_at)


def plan_step(xi0, program: StepProgram) -> StepPlan:
    """Solve the step's program over its whole duration window at trigger
    time; ValueError unless the DCM ``xi0`` is a finite 2-vector, or if
    the plan overflows.

    ``program`` is the step's :func:`step_program`, which :func:`replan`
    then takes for the rest of the step.
    """
    xi0 = as_vec2(xi0, "xi0")
    # A state near the float range (xi0 = 1e300, 0, say) gives an infinite
    # objective or gamma_T, and a sigma whose square in the cost leaves the
    # range raises OverflowError; neither is an optimal plan.
    try:
        plan = _solve(xi0, program, program.sigma_min, program.sigma_max, 0.0)
    except OverflowError:
        numbers = (math.inf,)
    else:
        numbers = (*plan.cop_T, *plan.gamma_T, plan.sigma, plan.duration, plan.objective)
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"the plan from xi0={xi0}, cop0={program.cop0} is not finite")
    return plan


def replan(current: StepPlan, xi0, program: StepProgram, elapsed: float) -> StepPlan:
    """Re-solve mid-swing with the duration window shrunk by ``elapsed``.

    The in-flight entry point: the measured DCM ``xi0`` is a float pair,
    taken as it is, and ``program`` is the one the step was planned with
    (:func:`step_program` of its stance CoP, ``omega``, gait and bounds).
    An optimal result is the :func:`plan_step` solve of the program built
    with the duration bounds of the shrunk window, bit for bit, apart
    from ``planned_at``.

    The remaining-time window is ``[max(floor, T_min - elapsed),
    min(T_max - elapsed, current.landing_time - elapsed)]``.  Capping by
    the previous plan's landing time makes successive remaining
    durations non-increasing by construction.  When the window collapses
    (less than the floor left) a terminal plan is returned that freezes
    ``cop_T`` and lets the swing finish on schedule; its objective and
    active set are its own, measured against this program.
    """
    if not (elapsed >= 0.0) or not math.isfinite(elapsed):
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")

    # The builtins' max(REPLAN_FLOOR, T_min - elapsed), min(T_max - elapsed,
    # left) and max(left, 0.0), written as clip writes them: a tie keeps the
    # first argument.
    left = current.landing_time - elapsed
    t_lo = program.T_min - elapsed
    t_lo = t_lo if t_lo > REPLAN_FLOOR else REPLAN_FLOOR
    t_hi = program.T_max - elapsed
    t_hi = left if left < t_hi else t_hi
    omega = program.omega
    if t_hi < t_lo:
        remaining = 0.0 if 0.0 > left else left
        sigma = math.exp(omega * remaining)
        (x0_x, x0_y), (c0_x, c0_y) = xi0, program.cop0
        cop = current.cop_T
        cop_x, cop_y = cop
        gamma = (c0_x - cop_x + (x0_x - c0_x) * sigma, c0_y - cop_y + (x0_y - c0_y) * sigma)
        rows = _binding_rows(cop, sigma, program.cop_min, program.cop_max, program.sigma_min,
                             program.sigma_max)
        return StepPlan(cop, gamma, sigma, remaining, _cost(program, cop, sigma, gamma),
                        "terminal", rows, elapsed)
    return _solve(xi0, program, math.exp(omega * t_lo), math.exp(omega * t_hi), elapsed)


def mirror_gait(nominal: NominalGait) -> NominalGait:
    """Flip the lateral axis (right-swing convention to left-swing)."""
    (cx, cy), (gx, gy) = nominal.cop_T_nom, nominal.gamma_nom
    return replace(nominal, cop_T_nom=(cx, -cy), gamma_nom=(gx, -gy))


def mirror_bounds(bounds: StepBounds) -> StepBounds:
    """Flip the lateral axis of the CoP box (swap and negate the y bounds)."""
    (lo_x, lo_y), (hi_x, hi_y) = bounds.cop_min, bounds.cop_max
    return replace(bounds, cop_min=(lo_x, -hi_y), cop_max=(hi_x, -lo_y))
