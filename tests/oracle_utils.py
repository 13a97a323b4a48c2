"""Independent oracles shared by the test modules.

The brute-force planner oracle never touches the QP solver.  It
eliminates the landing offset through the touchdown boundary condition
``gamma = cop0 - cop_T - (cop0 - xi0) * sigma``, minimises over the
landing CoP exactly (for fixed ``sigma`` the CoP subproblem is a
separable clipped quadratic per axis), and refines the remaining
one-dimensional convex problem in ``sigma`` on a zooming grid.
"""

import math

import numpy as np

from exorecover import PlannerInput


def _cost_of_sigma(inp: PlannerInput, sigma: np.ndarray):
    """Vectorised exact partial minimisation over the landing CoP.

    Returns ``(cost, cop_x, cop_y)`` arrays matching ``sigma``.
    """
    a1, a2, a3 = inp.nominal.weights
    sigma_nom = math.exp(inp.omega * inp.nominal.T_nom)
    r = inp.cop0 - inp.xi0

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
    inp: PlannerInput, passes: int = 10, points: int = 33
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
