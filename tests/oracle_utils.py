"""Independent oracles shared by the test modules.

A :class:`PlanningCase` is one planning solve's inputs, unchecked; the
oracles read its fields and never the terms of the planner's
``StepProgram``.  :func:`plan_of` is the planner's own solve of a case.

The brute-force planner oracle never touches the QP solver.  It
eliminates the landing offset through the touchdown boundary condition
``gamma = cop0 - cop_T - (cop0 - xi0) * sigma``, minimises over the
landing CoP exactly (for fixed ``sigma`` the CoP subproblem is a
separable clipped quadratic per axis), and refines the remaining
one-dimensional convex problem in ``sigma`` on a zooming grid.

:func:`assemble_qp` writes one planning solve as the five-variable QP
that the reference solver in :mod:`exorecover.qp` takes, and
:func:`kkt_residual` certifies a solver result against it.
:func:`plan_kkt_residual` certifies a planner ``StepPlan``, whose
multipliers it recovers from the plan's ``z`` alone.

The pendulum closed forms, the planning cost, the DCM on which the
nominal plan is optimal and the sway excursion are plain float formulas,
:func:`joint_rk4` is one joint's scalar RK4 step, and :func:`evaluate`
is the numpy-scalar Horner form of a swing quintic; none checks its
inputs.  The loop itself uses none of them.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from exorecover import NominalGait, StepBounds, StepPlan, plan_step, step_program
from exorecover.qp import QpProblem, QpSolution


class PlanningCase(NamedTuple):
    """One planning solve's inputs; ``nominal`` and ``bounds`` are about ``cop0``."""

    xi0: tuple[float, float]  # m, DCM at trigger or replanning time
    cop0: tuple[float, float]  # m, stance CoP
    omega: float  # 1/s
    nominal: NominalGait
    bounds: StepBounds


def plan_of(case: PlanningCase) -> StepPlan:
    """The planner's plan for ``case``: ``plan_step`` of its ``step_program``."""
    return plan_step(case.xi0, step_program(case.cop0, case.omega, case.nominal, case.bounds))


def world_input(inp: PlanningCase) -> PlanningCase:
    """``inp`` with its nominal landing point and CoP box moved from the
    stance-CoP frame the planner takes into the world, by ``cop0``."""
    (nx, ny), (cx, cy) = inp.nominal.cop_T_nom, inp.cop0
    return inp._replace(nominal=replace(inp.nominal, cop_T_nom=(nx + cx, ny + cy)),
                        bounds=inp.bounds.shift(inp.cop0))


def _cost_of_sigma(inp: PlanningCase, sigma: np.ndarray):
    """Vectorised exact partial minimisation over the landing CoP.

    Returns ``(cost, cop_x, cop_y)`` arrays matching ``sigma``.
    """
    inp = world_input(inp)
    a1, a2, a3 = inp.nominal.weights
    sigma_nom = math.exp(inp.omega * inp.nominal.T_nom)
    r = np.subtract(inp.cop0, inp.xi0)

    cost = a3 * (sigma - sigma_nom) ** 2
    cops = []
    for ax in (0, 1):
        u = inp.cop0[ax] - r[ax] * sigma  # cop + gamma at touchdown
        cn = inp.nominal.cop_T_nom[ax]
        gn = inp.nominal.gamma_nom[ax]
        lo, hi = inp.bounds.cop_min[ax], inp.bounds.cop_max[ax]
        c = np.clip((a1 * cn + a2 * (u - gn)) / (a1 + a2), lo, hi)
        cost = cost + a1 * (c - cn) ** 2 + a2 * (u - c - gn) ** 2
        cops.append(c)
    return cost, cops[0], cops[1]


def brute_force_plan(
    inp: PlanningCase, passes: int = 10, points: int = 33
) -> tuple[np.ndarray, float, float]:
    """Grid-refined minimiser; returns ``(cop_T, sigma, objective)``.

    The zoom window spans two grid spacings around the incumbent, which
    always contains the continuous minimiser of a one-dimensional convex
    function, so refinement converges to it.
    """
    s_lo, s_hi = inp.bounds.sigma_bounds(inp.omega)
    lo, hi = s_lo, s_hi
    best_sigma = s_lo
    for _ in range(passes):
        grid = np.linspace(lo, hi, points)
        cost, _, _ = _cost_of_sigma(inp, grid)
        k = int(np.argmin(cost))
        best_sigma = float(grid[k])
        span = (hi - lo) / (points - 1)
        lo = max(s_lo, best_sigma - 2.0 * span)
        hi = min(s_hi, best_sigma + 2.0 * span)

    one = np.array([best_sigma])
    cost, cx, cy = _cost_of_sigma(inp, one)
    return np.array([cx[0], cy[0]]), best_sigma, float(cost[0])


def assemble_qp(inp: PlanningCase) -> QpProblem:
    """Build the 5-variable QP of one planning solve, for reference checks.

    The variables are ``z = [cop_x, cop_y, sigma, gamma_x, gamma_y]``;
    the inequality rows follow :func:`exorecover.constraint_names`.
    """
    inp = world_input(inp)
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
    e = np.array(inp.cop0)

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


@dataclass(frozen=True)
class KktResidual:
    """Infinity norms of the first-order optimality conditions."""

    stationarity: float
    primal_eq: float
    primal_ineq: float
    complementarity: float

    def max(self) -> float:
        return max(self.stationarity, self.primal_eq, self.primal_ineq, self.complementarity)


def _residual(problem: QpProblem, z, eq_multipliers, ineq_multipliers) -> KktResidual:
    z = np.asarray(z, dtype=float)
    H, g = problem.hessian, problem.linear
    E, e = problem.eq_matrix, problem.eq_rhs
    C, d = problem.ineq_matrix, problem.ineq_rhs
    lam = np.asarray(ineq_multipliers, dtype=float)
    nu = np.asarray(eq_multipliers, dtype=float)

    grad = H @ z + g
    if E.shape[0]:
        grad = grad + E.T @ nu
    if C.shape[0]:
        grad = grad + C.T @ lam
    stationarity = float(np.abs(grad).max(initial=0.0))
    primal_eq = float(np.abs(E @ z - e).max(initial=0.0)) if E.shape[0] else 0.0
    slack = C @ z - d if C.shape[0] else np.zeros(0)
    primal_ineq = float(np.maximum(slack, 0.0).max(initial=0.0))
    complementarity = float(np.abs(lam * slack).max(initial=0.0)) if C.shape[0] else 0.0
    return KktResidual(stationarity, primal_eq, primal_ineq, complementarity)


def kkt_residual(problem: QpProblem, solution: QpSolution) -> KktResidual:
    """First-order residuals of a solver result against the original data."""
    return _residual(problem, solution.z, solution.eq_multipliers, solution.ineq_multipliers)


def plan_kkt_residual(inp: PlanningCase, plan: StepPlan) -> KktResidual:
    """First-order residuals of a planner result against ``assemble_qp(inp)``.

    The plan carries no multipliers, so they are recovered from its ``z``
    alone.  ``E`` is the identity on ``gamma`` and no box row touches
    ``gamma``, so the gamma rows of stationarity give ``nu = -(H z + g)[3:5]``.
    Every box row is a signed unit vector on ``cop_x``, ``cop_y`` or
    ``sigma``; with ``q = H z + g + E' nu``, the row bounding coordinate
    ``j`` from above takes ``max(-q_j, 0)`` and the one from below
    ``max(q_j, 0)``.  Stationarity then holds by construction, and the
    certificate rests on primal feasibility and complementarity: a
    coordinate off its bounds must have ``q_j = 0``.
    """
    problem = assemble_qp(inp)
    E, C = problem.eq_matrix, problem.ineq_matrix
    assert np.array_equal(E[:, 3:], np.eye(2)) and not C[:, 3:].any()
    col = np.abs(C).argmax(axis=1)
    assert np.array_equal(np.abs(C), np.eye(5)[col]), "every box row is a signed unit vector"
    z = np.array([*plan.cop_T, plan.sigma, *plan.gamma_T])
    grad = problem.hessian @ z + problem.linear
    nu = -grad[3:]
    q = grad + E.T @ nu
    lam = np.maximum(-C[np.arange(len(C)), col] * q[col], 0.0)
    return _residual(problem, z, nu, lam)


def dcm_closed_form(xi0, cop0, omega: float, t: float):
    """DCM after time ``t`` under a CoP held at ``cop0``:
    ``(xi0 - cop0) * exp(omega * t) + cop0``."""
    e = math.exp(omega * t)
    return (xi0[0] - cop0[0]) * e + cop0[0], (xi0[1] - cop0[1]) * e + cop0[1]


def com_closed_form(com0, xi0, omega: float, t: float):
    """CoM after time ``t`` while the DCM stays at ``xi0`` (the CoP tracks it):
    ``(com0 - xi0) * exp(-omega * t) + xi0``."""
    e = math.exp(-omega * t)
    return (com0[0] - xi0[0]) * e + xi0[0], (com0[1] - xi0[1]) * e + xi0[1]


def nominal_consistent_dcm(nominal, cop0, omega: float):
    """The DCM from which planning returns the nominal plan at zero cost:
    the boundary condition solved for ``xi0`` with every decision variable
    at its nominal value (the landing point ``cop0 + cop_T_nom``),
    ``cop0 + (gamma_nom + cop_T_nom) / sigma_nom``."""
    sigma_nom = math.exp(omega * nominal.T_nom)
    (g_x, g_y), (n_x, n_y) = nominal.gamma_nom, nominal.cop_T_nom
    return cop0[0] + (g_x + n_x) / sigma_nom, cop0[1] + (g_y + n_y) / sigma_nom


def planning_cost(inp: PlanningCase, cop_T, sigma: float, gamma_T) -> float:
    """The planner's full quadratic cost, constant term included, summed in
    Python floats in the order ``StepPlan.objective`` is."""
    inp = world_input(inp)
    a1, a2, a3 = inp.nominal.weights
    (cx, cy), (gx, gy) = inp.nominal.cop_T_nom, inp.nominal.gamma_nom
    dx, dy = float(cop_T[0]) - cx, float(cop_T[1]) - cy
    ex, ey = float(gamma_T[0]) - gx, float(gamma_T[1]) - gy
    sigma_nom = math.exp(inp.omega * inp.nominal.T_nom)
    return a1 * (dx * dx + dy * dy) + a2 * (ex * ex + ey * ey) + a3 * (sigma - sigma_nom) ** 2


def ellipse_excursion(xi, center, a, b) -> float:
    """Normalised squared excursion of the DCM ``xi`` from the sway ellipse
    about ``center`` with semi-axes ``a`` and ``b``, ``((x - c_x) / a)**2 +
    ((y - c_y) / b)**2`` written as the detector writes it: 1.0 on the
    boundary, > 1 outside."""
    dx = (xi[0] - center[0]) / a
    dy = (xi[1] - center[1]) / b
    return float(dx * dx + dy * dy)


def evaluate(seg, t: float):
    """``(position, velocity, acceleration)`` of a swing ``QuinticSegment`` at
    absolute time ``t``, as numpy-scalar Horner sums."""
    s = t - seg.t_start
    c = np.array(seg.coefficients)
    pos = c[0] + s * (c[1] + s * (c[2] + s * (c[3] + s * (c[4] + s * c[5]))))
    vel = c[1] + s * (2 * c[2] + s * (3 * c[3] + s * (4 * c[4] + s * 5 * c[5])))
    acc = 2 * c[2] + s * (6 * c[3] + s * (12 * c[4] + s * 20 * c[5]))
    return pos, vel, acc


def joint_rk4(angle: float, velocity: float, applied_torque: float, human_torque: float,
              inertia: float, viscous_damping: float, dt: float) -> tuple[float, float]:
    """One joint's RK4 step of ``inertia * acc = tau_a + tau_h - viscous * vel``,
    the scalar form of ``impedance.joint_plant_step``: ``(angle, velocity)``."""
    tau = applied_torque + human_torque
    inv_i = 1.0 / inertia
    b = viscous_damping
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
