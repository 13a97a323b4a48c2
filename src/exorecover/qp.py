"""Reference solver for small strictly convex QPs, by active-set enumeration.

Solves ``min 0.5 z'Hz + g'z`` s.t. ``E z = e``, ``C z <= d`` for ``H``
positive definite and at most 16 inequality rows.  Each set ``S`` of at
most ``n - m_e`` rows is tried, by size and then by index: the KKT system
``[[H, A'], [A, 0]] [z; y] = [-g; b]``, ``A = [E; C_S]``, ``b = [e; d_S]``,
is solved by ``np.linalg.solve``, singular systems skipped.  The first
``z`` that satisfies every row with multipliers ``>= -1e-9`` is the unique
optimum (smallest active set, lowest indices on ties); if none does, the
program is infeasible.

The package does not import this module: tests use it as the independent
reference for the planner, and ``bench/spans.py`` traces
:meth:`ActiveSetQp.solve` until ROADMAP item 7 stops doing so.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = ["QpProblem", "QpSolution", "ActiveSetQp", "solve_qp"]

# Sets grow as 2**m_i; this bounds one solve to 65536 KKT systems.
_MAX_INEQ_ROWS = 16

# Primal feasibility and multiplier sign tolerance.
_TOL = 1e-9


def _checked(a, shape: tuple, name: str) -> np.ndarray:
    """``a`` as a finite float array of ``shape``; ``None`` has no rows, a ``None`` size is free."""
    out = np.zeros((0, *shape[1:])) if a is None else np.asarray(a, dtype=float)
    out = out.reshape(-1) if len(shape) == 1 else np.atleast_2d(out)
    if out.ndim != len(shape) or any(s not in (None, k) for s, k in zip(shape, out.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class QpProblem:
    """Problem data; arrays are normalised to float and shape-checked."""

    hessian: np.ndarray  # (n, n), symmetric positive definite
    linear: np.ndarray  # (n,)
    eq_matrix: np.ndarray | None = None  # (m_e, n)
    eq_rhs: np.ndarray | None = None  # (m_e,)
    ineq_matrix: np.ndarray | None = None  # (m_i, n), m_i <= 16
    ineq_rhs: np.ndarray | None = None  # (m_i,)

    def __post_init__(self):
        H = _checked(self.hessian, (None, None), "hessian")
        n = H.shape[0]
        if H.shape != (n, n):
            raise ValueError(f"hessian must be square, got shape {H.shape}")
        if np.abs(H - H.T).max() > 1e-10 * max(1.0, float(np.abs(H).max())):
            raise ValueError("hessian must be symmetric")
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise ValueError("hessian must be positive definite") from None
        E = _checked(self.eq_matrix, (None, n), "eq_matrix")
        C = _checked(self.ineq_matrix, (None, n), "ineq_matrix")
        if C.shape[0] > _MAX_INEQ_ROWS:
            raise ValueError(f"at most {_MAX_INEQ_ROWS} inequality rows, got {C.shape[0]}")
        g = _checked(self.linear, (n,), "linear")
        e = _checked(self.eq_rhs, (len(E),), "eq_rhs")
        d = _checked(self.ineq_rhs, (len(C),), "ineq_rhs")
        names = ("hessian", "linear", "eq_matrix", "eq_rhs", "ineq_matrix", "ineq_rhs")
        for name, value in zip(names, (H, g, E, e, C, d)):
            object.__setattr__(self, name, value)

    @property
    def num_variables(self) -> int:
        return self.hessian.shape[0]

    def objective(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.hessian @ z + self.linear @ z)


@dataclass(frozen=True)
class QpSolution:
    """Solver output; ``status`` is ``"optimal"`` or ``"infeasible"`` (NaN ``z``).

    ``active_set`` holds the sorted inequality rows held as equalities;
    multiplier vectors are full length, zero at inactive rows, and
    ``iterations`` counts the active sets tried.
    """

    z: np.ndarray
    objective: float
    status: str
    active_set: tuple[int, ...]
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    iterations: int


class ActiveSetQp:
    """Exhaustive active-set enumeration; keeps no state between calls."""

    def solve(self, problem: QpProblem) -> QpSolution:
        H, g = problem.hessian, problem.linear
        E, e = problem.eq_matrix, problem.eq_rhs
        C, d = problem.ineq_matrix, problem.ineq_rhs
        n, m_e, m_i = H.shape[0], E.shape[0], C.shape[0]
        # The full KKT system; each active set picks its rows and columns.
        A = np.vstack([E, C])
        kkt = np.block([[H, A.T], [A, np.zeros((m_e + m_i, m_e + m_i))]])
        rhs = np.concatenate([-g, e, d])
        tried = 0
        for size in range(min(m_i, n - m_e) + 1):
            for rows in combinations(range(m_i), size):
                tried += 1
                idx = [*range(n + m_e), *(n + m_e + i for i in rows)]
                try:
                    sol = np.linalg.solve(kkt[np.ix_(idx, idx)], rhs[idx])
                except np.linalg.LinAlgError:
                    continue
                z, lam = sol[:n], sol[n + m_e:]
                violation = max(np.abs(E @ z - e).max(initial=0.0), (C @ z - d).max(initial=0.0))
                if violation <= _TOL and lam.min(initial=0.0) >= -_TOL:
                    ineq_mult = np.zeros(m_i)
                    ineq_mult[list(rows)] = lam
                    nu = sol[n:n + m_e]
                    return QpSolution(z, problem.objective(z), "optimal", rows, nu, ineq_mult, tried)
        nan = np.full(n, np.nan)
        return QpSolution(nan, np.nan, "infeasible", (), np.zeros(m_e), np.zeros(m_i), tried)


def solve_qp(problem: QpProblem) -> QpSolution:
    """One-shot convenience wrapper around :class:`ActiveSetQp`."""
    return ActiveSetQp().solve(problem)
