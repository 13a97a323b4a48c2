"""Recovery-step adaptation as a small quadratic program.

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

subject to box bounds on ``cop_T`` and ``sigma``.  Decision variables
are ordered ``[cop_x, cop_y, sigma, gamma_x, gamma_y]`` and the
inequality rows are stacked ``[+I2; -I2; +e_sigma; -e_sigma]`` (upper
CoP bounds, lower CoP bounds, sigma upper, sigma lower), optionally
followed by ``gamma`` box rows when bounds for it are configured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, PlannerInfeasibleError
from .lipm import as_vec2
from .qp import ActiveSetQp, QpProblem, QpSolution

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
    box surface as solver infeasibility.  Call :meth:`validate` to check
    explicitly.
    """

    cop_min: np.ndarray  # (2,) m
    cop_max: np.ndarray  # (2,) m
    T_min: float  # s
    T_max: float  # s
    gamma_min: np.ndarray | None = None  # (2,) m, optional
    gamma_max: np.ndarray | None = None  # (2,) m, optional

    def __post_init__(self):
        object.__setattr__(self, "cop_min", as_vec2(self.cop_min, "cop_min"))
        object.__setattr__(self, "cop_max", as_vec2(self.cop_max, "cop_max"))
        if self.gamma_min is not None:
            object.__setattr__(self, "gamma_min", as_vec2(self.gamma_min, "gamma_min"))
        if self.gamma_max is not None:
            object.__setattr__(self, "gamma_max", as_vec2(self.gamma_max, "gamma_max"))
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
        if (self.gamma_min is None) != (self.gamma_max is None):
            bad.append("gamma bounds must be given as a pair")
        elif self.gamma_min is not None and np.any(self.gamma_min > self.gamma_max):
            bad.append(
                f"gamma_min {self.gamma_min.tolist()} exceeds gamma_max {self.gamma_max.tolist()}"
            )
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
    """Everything the QP assembly needs for one solve."""

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
    """

    cop_T: np.ndarray  # (2,) m, world landing CoP
    gamma_T: np.ndarray  # (2,) m, landing DCM offset xi(T) - cop_T
    sigma: float  # exp(omega * duration)
    duration: float  # s
    objective: float
    status: str  # "optimal" | "iteration_limit" | "terminal"
    active_set: tuple[int, ...]
    planned_at: float = 0.0  # s since trigger

    @property
    def landing_time(self) -> float:
        """Touchdown instant measured from the trigger."""
        return self.planned_at + self.duration

    @property
    def xi_T(self) -> np.ndarray:
        """Predicted DCM at touchdown."""
        return self.cop_T + self.gamma_T


def constraint_names(bounds: StepBounds) -> tuple[str, ...]:
    names = [
        "cop_x <= cop_max_x",
        "cop_y <= cop_max_y",
        "cop_x >= cop_min_x",
        "cop_y >= cop_min_y",
        "sigma <= exp(omega*T_max)",
        "sigma >= exp(omega*T_min)",
    ]
    if bounds.gamma_min is not None and bounds.gamma_max is not None:
        names += [
            "gamma_x <= gamma_max_x",
            "gamma_y <= gamma_max_y",
            "gamma_x >= gamma_min_x",
            "gamma_y >= gamma_min_y",
        ]
    return tuple(names)


def assemble_qp(inp: PlannerInput) -> QpProblem:
    """Build the 5-variable QP for one planning solve."""
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
    if inp.bounds.gamma_min is not None and inp.bounds.gamma_max is not None:
        C_rows += [
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -1.0],
        ]
        d_rows += [
            inp.bounds.gamma_max[0],
            inp.bounds.gamma_max[1],
            -inp.bounds.gamma_min[0],
            -inp.bounds.gamma_min[1],
        ]
    return QpProblem(H, g, E, e, np.array(C_rows), np.array(d_rows))


def planning_cost(inp: PlannerInput, cop_T, sigma: float, gamma_T) -> float:
    """The full quadratic cost (with its constant term, unlike the raw QP)."""
    a1, a2, a3 = inp.nominal.weights
    sigma_nom = math.exp(inp.omega * inp.nominal.T_nom)
    d_cop = as_vec2(cop_T, "cop_T") - inp.nominal.cop_T_nom
    d_gam = as_vec2(gamma_T, "gamma_T") - inp.nominal.gamma_nom
    return float(a1 * d_cop @ d_cop + a2 * d_gam @ d_gam + a3 * (sigma - sigma_nom) ** 2)


def _plan_from_solution(inp: PlannerInput, sol: QpSolution, planned_at: float) -> StepPlan:
    if sol.status == "infeasible":
        names = constraint_names(inp.bounds)
        bad = tuple(names[i] for i in sol.violated if i < len(names))
        raise PlannerInfeasibleError(
            "step adaptation infeasible; violated: " + (", ".join(bad) or "unknown"),
            violated=bad,
        )
    sigma = float(sol.z[2])
    if sigma <= 0.0:
        raise PlannerInfeasibleError(
            f"solver returned non-positive sigma {sigma}", violated=("sigma > 0",)
        )
    return StepPlan(
        cop_T=sol.z[0:2].copy(),
        gamma_T=sol.z[3:5].copy(),
        sigma=sigma,
        duration=math.log(sigma) / inp.omega,
        objective=planning_cost(inp, sol.z[0:2], sigma, sol.z[3:5]),
        status=sol.status,
        active_set=sol.active_set,
        planned_at=planned_at,
    )


def plan_step(inp: PlannerInput) -> StepPlan:
    """Solve the step-adaptation program at trigger time."""
    sol = ActiveSetQp().solve(assemble_qp(inp))
    return _plan_from_solution(inp, sol, planned_at=0.0)


def replan(current: StepPlan, inp: PlannerInput, elapsed: float) -> StepPlan:
    """Re-solve mid-swing with the duration window shrunk by ``elapsed``.

    The remaining-time window is ``[max(floor, T_min - elapsed),
    min(T_max - elapsed, current.landing_time - elapsed)]``.  Capping by
    the previous plan's landing time makes successive remaining
    durations non-increasing by construction.  When the window collapses
    (less than the floor left) a terminal plan is returned that freezes
    ``cop_T`` and lets the swing finish on schedule.  The solve is warm
    started from the previous plan's active set.
    """
    if not (elapsed >= 0.0) or not math.isfinite(elapsed):
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")

    t_lo = max(REPLAN_FLOOR, inp.bounds.T_min - elapsed)
    t_hi = min(inp.bounds.T_max - elapsed, current.landing_time - elapsed)
    if t_hi < t_lo:
        remaining = max(current.landing_time - elapsed, 0.0)
        sigma = math.exp(inp.omega * remaining)
        return StepPlan(
            cop_T=current.cop_T.copy(),
            gamma_T=inp.cop0 - current.cop_T + (inp.xi0 - inp.cop0) * sigma,
            sigma=sigma,
            duration=remaining,
            objective=current.objective,
            status="terminal",
            active_set=current.active_set,
            planned_at=elapsed,
        )

    shrunk = replace(inp, bounds=replace(inp.bounds, T_min=t_lo, T_max=t_hi))
    sol = ActiveSetQp().solve(assemble_qp(shrunk), warm_start=current.active_set)
    return _plan_from_solution(shrunk, sol, planned_at=elapsed)


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
    """Flip the lateral axis of the boxes (swap and negate y bounds)."""
    def flip(lo, hi):
        return (
            np.array([lo[0], -hi[1]]),
            np.array([hi[0], -lo[1]]),
        )

    cop_min, cop_max = flip(bounds.cop_min, bounds.cop_max)
    out = replace(bounds, cop_min=cop_min, cop_max=cop_max)
    if bounds.gamma_min is not None and bounds.gamma_max is not None:
        g_min, g_max = flip(bounds.gamma_min, bounds.gamma_max)
        out = replace(out, gamma_min=g_min, gamma_max=g_max)
    return out
