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

subject to box bounds on ``cop_T`` and ``sigma``.

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
used, so planning does not depend on LAPACK.  :func:`assemble_qp` builds
the same program as a five-variable QP, the reference that tests and
KKT certificates check the planner against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, PlannerInfeasibleError
from .lipm import as_vec2
from .qp import QpProblem

__all__ = [
    "NominalGait",
    "StepBounds",
    "PlannerInput",
    "StepPlan",
    "assemble_qp",
    "plan_step",
    "replan",
    "planning_cost",
    "constraint_names",
    "nominal_consistent_dcm",
    "mirror_gait",
    "mirror_bounds",
]

#: Shortest remaining swing time the planner will re-optimise over, in
#: seconds.  Below this the plan is frozen and the swing just finishes.
REPLAN_FLOOR = 0.1


@dataclass(frozen=True)
class NominalGait:
    """Preferred landing point, landing DCM offset, duration and weights."""

    cop_T_nom: np.ndarray  # (2,) m
    gamma_nom: np.ndarray  # (2,) m
    T_nom: float  # s
    weights: tuple[float, float, float]  # (alpha1, alpha2, alpha3)

    def __post_init__(self):
        object.__setattr__(self, "cop_T_nom", as_vec2(self.cop_T_nom, "cop_T_nom"))
        object.__setattr__(self, "gamma_nom", as_vec2(self.gamma_nom, "gamma_nom"))
        if not (self.T_nom > 0.0) or not math.isfinite(self.T_nom):
            raise ValueError(f"T_nom must be positive, got {self.T_nom}")
        w = tuple(float(v) for v in self.weights)
        if len(w) != 3 or any(not (v > 0.0) or not math.isfinite(v) for v in w):
            raise ValueError(f"weights must be 3 positive numbers, got {self.weights}")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class StepBounds:
    """Feasible boxes for the landing CoP and the step duration.

    Deliberately not validated at construction: the CLI checks bounds up
    front for simulation runs, while raw planning calls let an inverted
    CoP box or an empty duration window surface as a
    :class:`PlannerInfeasibleError` naming the empty rows.  These are the
    only infeasible programs.  Call :meth:`validate` to check explicitly.
    """

    cop_min: np.ndarray  # (2,) m
    cop_max: np.ndarray  # (2,) m
    T_min: float  # s
    T_max: float  # s

    def __post_init__(self):
        object.__setattr__(self, "cop_min", as_vec2(self.cop_min, "cop_min"))
        object.__setattr__(self, "cop_max", as_vec2(self.cop_max, "cop_max"))
        for name in ("T_min", "T_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    def validate(self) -> None:
        """Raise ConfigurationError when the boxes are empty or inverted."""
        bad = []
        if np.any(self.cop_min > self.cop_max):
            bad.append(f"cop_min {self.cop_min.tolist()} exceeds cop_max {self.cop_max.tolist()}")
        if not (0.0 < self.T_min <= self.T_max):
            bad.append(f"need 0 < T_min <= T_max, got [{self.T_min}, {self.T_max}]")
        if bad:
            raise ConfigurationError("infeasible step bounds: " + "; ".join(bad))

    def sigma_bounds(self, omega: float) -> tuple[float, float]:
        return math.exp(omega * self.T_min), math.exp(omega * self.T_max)

    def shift(self, offset) -> "StepBounds":
        """Translate the CoP box by a 2-vector (frame change helper)."""
        offset = as_vec2(offset, "offset")
        return replace(self, cop_min=self.cop_min + offset, cop_max=self.cop_max + offset)


@dataclass(frozen=True)
class PlannerInput:
    """Everything one planning solve needs."""

    xi0: np.ndarray  # (2,) m, DCM at trigger or replanning time
    cop0: np.ndarray  # (2,) m, current stance CoP
    omega: float  # 1/s
    nominal: NominalGait
    bounds: StepBounds

    def __post_init__(self):
        object.__setattr__(self, "xi0", as_vec2(self.xi0, "xi0"))
        object.__setattr__(self, "cop0", as_vec2(self.cop0, "cop0"))
        if not (self.omega > 0.0) or not math.isfinite(self.omega):
            raise ValueError(f"omega must be positive, got {self.omega}")


@dataclass(frozen=True)
class StepPlan:
    """Planner output.

    ``duration`` is the (remaining) swing time from the moment the plan
    was made; ``planned_at`` timestamps that moment relative to the
    trigger, so ``planned_at + duration`` is the absolute landing time
    of the step.

    ``status`` is ``"optimal"`` for the exact minimiser of the program
    solved (for :func:`replan`, the one with the shrunk duration window)
    and ``"terminal"`` for a frozen plan that finishes the swing on
    schedule.  ``active_set`` lists the :func:`constraint_names` rows that
    hold with equality.  An optimal plan carries its KKT multipliers, so
    ``kkt_residual(assemble_qp(inp), plan)`` certifies it; a terminal
    plan leaves them zero.
    """

    cop_T: np.ndarray  # (2,) m, world landing CoP
    gamma_T: np.ndarray  # (2,) m, landing DCM offset xi(T) - cop_T
    sigma: float  # exp(omega * duration)
    duration: float  # s
    objective: float
    status: str  # "optimal" | "terminal"
    active_set: tuple[int, ...]
    planned_at: float = 0.0  # s since trigger
    eq_multipliers: tuple[float, ...] = (0.0, 0.0)
    ineq_multipliers: tuple[float, ...] = (0.0,) * 6

    @property
    def landing_time(self) -> float:
        """Touchdown instant measured from the trigger."""
        return self.planned_at + self.duration

    @property
    def xi_T(self) -> np.ndarray:
        """Predicted DCM at touchdown."""
        return self.cop_T + self.gamma_T

    @property
    def z(self) -> np.ndarray:
        """Decision vector ``[cop_x, cop_y, sigma, gamma_x, gamma_y]`` of :func:`assemble_qp`."""
        return np.array([*self.cop_T, self.sigma, *self.gamma_T])


def constraint_names() -> tuple[str, ...]:
    return (
        "cop_x <= cop_max_x",
        "cop_y <= cop_max_y",
        "cop_x >= cop_min_x",
        "cop_y >= cop_min_y",
        "sigma <= exp(omega*T_max)",
        "sigma >= exp(omega*T_min)",
    )


def assemble_qp(inp: PlannerInput) -> QpProblem:
    """Build the 5-variable QP of one planning solve, for reference checks."""
    a1, a2, a3 = inp.nominal.weights
    sigma_nom = math.exp(inp.omega * inp.nominal.T_nom)

    H = 2.0 * np.diag([a1, a1, a3, a2, a2])
    g = -2.0 * np.array(
        [
            a1 * inp.nominal.cop_T_nom[0],
            a1 * inp.nominal.cop_T_nom[1],
            a3 * sigma_nom,
            a2 * inp.nominal.gamma_nom[0],
            a2 * inp.nominal.gamma_nom[1],
        ]
    )

    # Per-axis boundary condition: gamma + cop_T + (cop0 - xi0)*sigma = cop0.
    E = np.array(
        [
            [1.0, 0.0, inp.cop0[0] - inp.xi0[0], 1.0, 0.0],
            [0.0, 1.0, inp.cop0[1] - inp.xi0[1], 0.0, 1.0],
        ]
    )
    e = inp.cop0.copy()

    s_min, s_max = inp.bounds.sigma_bounds(inp.omega)
    C_rows = [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0],
    ]
    d_rows = [
        inp.bounds.cop_max[0],
        inp.bounds.cop_max[1],
        -inp.bounds.cop_min[0],
        -inp.bounds.cop_min[1],
        s_max,
        -s_min,
    ]
    return QpProblem(H, g, E, e, np.array(C_rows), np.array(d_rows))


def planning_cost(inp: PlannerInput, cop_T, sigma: float, gamma_T) -> float:
    """The full quadratic cost (with its constant term, unlike the raw QP)."""
    a1, a2, a3 = inp.nominal.weights
    sigma_nom = math.exp(inp.omega * inp.nominal.T_nom)
    d_cop = as_vec2(cop_T, "cop_T") - inp.nominal.cop_T_nom
    d_gam = as_vec2(gamma_T, "gamma_T") - inp.nominal.gamma_nom
    return float(a1 * d_cop @ d_cop + a2 * d_gam @ d_gam + a3 * (sigma - sigma_nom) ** 2)


def _binding_rows(cop, sigma: float, lo, hi, s_lo: float, s_hi: float) -> tuple[int, ...]:
    """The :func:`constraint_names` rows that hold with equality."""
    on = (cop[0] == hi[0], cop[1] == hi[1], cop[0] == lo[0], cop[1] == lo[1],
          sigma == s_hi, sigma == s_lo)
    return tuple(i for i, b in enumerate(on) if b)


def _solve(inp: PlannerInput, t_lo: float, t_hi: float, planned_at: float) -> StepPlan:
    """Exact minimiser with the duration in ``[t_lo, t_hi]``; see the module docstring."""
    lo, hi = inp.bounds.cop_min.tolist(), inp.bounds.cop_max.tolist()
    # One flag per constraint_names row; an empty interval names both its rows.
    empty = (lo[0] > hi[0], lo[1] > hi[1]) * 2 + (t_lo > t_hi,) * 2
    bad = tuple(name for name, e in zip(constraint_names(), empty) if e)
    if bad:
        raise PlannerInfeasibleError("step program has an empty box: " + ", ".join(bad), violated=bad)

    a1, a2, a3 = inp.nominal.weights
    w = a1 + a2
    s_lo, s_hi = math.exp(inp.omega * t_lo), math.exp(inp.omega * t_hi)
    sn = math.exp(inp.omega * inp.nominal.T_nom)
    cop0, xi0 = inp.cop0.tolist(), inp.xi0.tolist()
    cn, gn = inp.nominal.cop_T_nom.tolist(), inp.nominal.gamma_nom.tolist()
    r = [cop0[0] - xi0[0], cop0[1] - xi0[1]]

    def at(sigma: float):
        """``(cop, gamma, nu, slope)`` at ``sigma``: the exact CoP, the boundary-condition
        multipliers and the cost's sigma derivative (the sigma KKT row without bounds)."""
        u = [cop0[a] - r[a] * sigma for a in (0, 1)]
        cop = [min(max((a1 * cn[a] + a2 * (u[a] - gn[a])) / w, lo[a]), hi[a]) for a in (0, 1)]
        gamma = [u[a] - cop[a] for a in (0, 1)]
        nu = [-2.0 * a2 * (gamma[a] - gn[a]) for a in (0, 1)]
        return cop, gamma, nu, 2.0 * a3 * (sigma - sn) + r[0] * nu[0] + r[1] * nu[1]

    # c*_a(sigma) meets the bound b where p - b*(alpha1 + alpha2) = q*sigma.
    points = [s_lo, s_hi]
    for a in (0, 1):
        q, p = a2 * r[a], a1 * cn[a] + a2 * (cop0[a] - gn[a])
        if q != 0.0:
            points += [s for s in ((p - b * w) / q for b in (lo[a], hi[a])) if s_lo < s < s_hi]
    points.sort()

    # The slope is continuous, increasing and linear on each piece, so the
    # minimiser is a sigma bound or the vertex of the piece on which the
    # slope changes sign, where linear interpolation finds it exactly.
    slopes = [at(s)[3] for s in points]
    sigma = s_hi if slopes[-1] <= 0.0 else s_lo
    for s0, s1, d0, d1 in zip(points, points[1:], slopes, slopes[1:]):
        if d0 <= 0.0 < d1:
            sigma = min(max(s0 - d0 * (s1 - s0) / (d1 - d0), s0), s1)
    cop, gamma, nu, slope = at(sigma)

    # The other KKT multipliers of assemble_qp in closed form: the clipped
    # CoP bound's from the cop stationarity row, the sigma bound's from
    # the sigma row, slope + lam_max - lam_min = 0.
    lam = [0.0] * 6
    for a in (0, 1):
        m = -nu[a] - 2.0 * a1 * (cop[a] - cn[a])
        if m > 0.0 and cop[a] == hi[a]:
            lam[a] = m
        elif m < 0.0 and cop[a] == lo[a]:
            lam[2 + a] = -m
    if slope < 0.0 and sigma == s_hi:
        lam[4] = -slope
    elif slope > 0.0 and sigma == s_lo:
        lam[5] = slope

    cop_T, gamma_T = np.array(cop), np.array(gamma)
    return StepPlan(
        cop_T=cop_T,
        gamma_T=gamma_T,
        sigma=sigma,
        duration=math.log(sigma) / inp.omega,
        objective=planning_cost(inp, cop_T, sigma, gamma_T),
        status="optimal",
        active_set=_binding_rows(cop, sigma, lo, hi, s_lo, s_hi),
        planned_at=planned_at,
        eq_multipliers=tuple(nu),
        ineq_multipliers=tuple(lam),
    )


def plan_step(inp: PlannerInput) -> StepPlan:
    """Solve the step-adaptation program at trigger time."""
    return _solve(inp, inp.bounds.T_min, inp.bounds.T_max, planned_at=0.0)


def replan(current: StepPlan, inp: PlannerInput, elapsed: float) -> StepPlan:
    """Re-solve mid-swing with the duration window shrunk by ``elapsed``.

    The remaining-time window is ``[max(floor, T_min - elapsed),
    min(T_max - elapsed, current.landing_time - elapsed)]``.  Capping by
    the previous plan's landing time makes successive remaining
    durations non-increasing by construction.  When the window collapses
    (less than the floor left) a terminal plan is returned that freezes
    ``cop_T`` and lets the swing finish on schedule; its objective and
    active set are its own, measured against ``inp``.
    """
    if not (elapsed >= 0.0) or not math.isfinite(elapsed):
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")

    t_lo = max(REPLAN_FLOOR, inp.bounds.T_min - elapsed)
    t_hi = min(inp.bounds.T_max - elapsed, current.landing_time - elapsed)
    if t_hi < t_lo:
        remaining = max(current.landing_time - elapsed, 0.0)
        sigma = math.exp(inp.omega * remaining)
        gamma_T = inp.cop0 - current.cop_T + (inp.xi0 - inp.cop0) * sigma
        return StepPlan(
            cop_T=current.cop_T.copy(),
            gamma_T=gamma_T,
            sigma=sigma,
            duration=remaining,
            objective=planning_cost(inp, current.cop_T, sigma, gamma_T),
            status="terminal",
            active_set=_binding_rows(current.cop_T, sigma, inp.bounds.cop_min,
                                     inp.bounds.cop_max, *inp.bounds.sigma_bounds(inp.omega)),
            planned_at=elapsed,
        )
    return _solve(inp, t_lo, t_hi, planned_at=elapsed)


def nominal_consistent_dcm(
    nominal: NominalGait, cop0, omega: float
) -> np.ndarray:
    """DCM for which the nominal plan satisfies the boundary condition.

    Solving the equality for ``xi0`` with all decision variables pinned
    at their nominal values gives
    ``xi0 = cop0 - (cop0 - gamma_nom - cop_T_nom) / sigma_nom``;
    planning from this state returns the nominal plan with zero cost.
    """
    cop0 = as_vec2(cop0, "cop0")
    sigma_nom = math.exp(omega * nominal.T_nom)
    return cop0 - (cop0 - nominal.gamma_nom - nominal.cop_T_nom) / sigma_nom


def mirror_gait(nominal: NominalGait) -> NominalGait:
    """Flip the lateral axis (right-swing convention to left-swing)."""
    return replace(
        nominal,
        cop_T_nom=nominal.cop_T_nom * np.array([1.0, -1.0]),
        gamma_nom=nominal.gamma_nom * np.array([1.0, -1.0]),
    )


def mirror_bounds(bounds: StepBounds) -> StepBounds:
    """Flip the lateral axis of the CoP box (swap and negate the y bounds)."""
    return replace(
        bounds,
        cop_min=np.array([bounds.cop_min[0], -bounds.cop_max[1]]),
        cop_max=np.array([bounds.cop_max[0], -bounds.cop_min[1]]),
    )
