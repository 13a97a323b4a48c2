"""Dense primal active-set solver for small strictly convex QPs.

Solves

    minimize    0.5 * z' H z + g' z
    subject to  E z  = e
                C z <= d

for problems with at most 32 variables.  The implementation follows the
textbook primal active-set scheme: keep a working set of constraints
treated as equalities, solve the equality-constrained subproblem through
a null-space basis (SVD of the working-set rows, Cholesky of the
reduced Hessian), take the largest step that stays feasible, and add or drop one
constraint per iteration.  Ties on blocking constraints and on negative
multipliers are broken towards the lowest constraint index, which makes
runs bit-reproducible.

A feasible start is produced by an auxiliary slack program: one extra
variable ``t`` bounds every inequality violation, a vanishing quadratic
term keeps the auxiliary Hessian positive definite, and the same
active-set loop minimises ``t``.  If the optimum slack stays positive
the problem is reported infeasible together with the violated rows.

The step planner solves its own program exactly and does not call this
solver, and the package does not import this module.  Tests use it as
the independent reference they compare the planner against, and
``bench/spans.py`` traces :meth:`ActiveSetQp.solve` until ROADMAP item 7
stops doing so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QpProblem",
    "QpSolution",
    "ActiveSetQp",
    "solve_qp",
]

MAX_VARIABLES = 32

#: Regularisation added to the Hessian when its smallest Cholesky pivot
#: falls below ``PIVOT_TOL``.
REGULARISATION = 1e-9
PIVOT_TOL = 1e-10

# Feasibility / optimality tolerances of the iteration.
_FEAS_TOL = 1e-9
_STEP_TOL = 1e-11
_MULT_TOL = 1e-10
_TIE_TOL = 1e-12


def _as_matrix(a, rows_unknown: bool, n: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, n))
    out = np.atleast_2d(np.asarray(a, dtype=float))
    if out.ndim != 2 or out.shape[1] != n:
        raise ValueError(f"{name} must have {n} columns, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


def _as_vector(a, m: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros(0)
    out = np.asarray(a, dtype=float).reshape(-1)
    if out.shape != (m,):
        raise ValueError(f"{name} must have length {m}, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class QpProblem:
    """Problem data; arrays are normalised to float and shape-checked."""

    hessian: np.ndarray  # (n, n), symmetric positive semidefinite
    linear: np.ndarray  # (n,)
    eq_matrix: np.ndarray | None = None  # (m_e, n)
    eq_rhs: np.ndarray | None = None  # (m_e,)
    ineq_matrix: np.ndarray | None = None  # (m_i, n)
    ineq_rhs: np.ndarray | None = None  # (m_i,)

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.hessian, dtype=float))
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"hessian must be square, got shape {H.shape}")
        n = H.shape[0]
        if n > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables supported, got {n}")
        if not np.all(np.isfinite(H)):
            raise ValueError("hessian must be finite")
        scale = max(1.0, float(np.abs(H).max()))
        if np.abs(H - H.T).max() > 1e-10 * scale:
            raise ValueError("hessian must be symmetric")
        object.__setattr__(self, "hessian", H)
        object.__setattr__(self, "linear", _as_vector(self.linear, n, "linear"))
        E = _as_matrix(self.eq_matrix, True, n, "eq_matrix")
        object.__setattr__(self, "eq_matrix", E)
        object.__setattr__(self, "eq_rhs", _as_vector(self.eq_rhs, E.shape[0], "eq_rhs"))
        C = _as_matrix(self.ineq_matrix, True, n, "ineq_matrix")
        object.__setattr__(self, "ineq_matrix", C)
        object.__setattr__(self, "ineq_rhs", _as_vector(self.ineq_rhs, C.shape[0], "ineq_rhs"))

    @property
    def num_variables(self) -> int:
        return self.hessian.shape[0]

    def objective(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.hessian @ z + self.linear @ z)


@dataclass(frozen=True)
class QpSolution:
    """Solver output.

    ``status`` is one of ``"optimal"``, ``"infeasible"`` or
    ``"iteration_limit"``.  ``active_set`` holds the sorted inequality
    indices in the final working set.  Multiplier vectors are full
    length with zeros at inactive rows.  ``objective_trace`` records the
    objective after every main-loop iterate and is non-increasing.
    """

    z: np.ndarray
    objective: float
    status: str
    active_set: tuple[int, ...]
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    iterations: int
    objective_trace: tuple[float, ...]
    violated: tuple[int, ...] = ()


def _cholesky_with_regularisation(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``H``, bumping the diagonal once if it is near-singular.

    Returns ``(L, H_used)`` where ``H_used`` is the possibly regularised
    matrix actually factored.
    """
    try:
        L = np.linalg.cholesky(H)
        if float((np.diagonal(L) ** 2).min()) >= PIVOT_TOL:
            return L, H
    except np.linalg.LinAlgError:
        pass
    H_reg = H + REGULARISATION * np.eye(H.shape[0])
    try:
        return np.linalg.cholesky(H_reg), H_reg
    except np.linalg.LinAlgError:
        raise ValueError("hessian is not positive semidefinite") from None


def _chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, y)


class ActiveSetQp:
    """Reusable solver.

    Instances keep no state between ``solve`` calls beyond configuration,
    but they are not synchronised: share nothing, use one instance per
    thread.
    """

    def __init__(self, max_iterations: int = 200):
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = int(max_iterations)

    # -- subproblem pieces -------------------------------------------------

    @staticmethod
    def _working_rows(problem: QpProblem, working: list[int]) -> np.ndarray:
        E = problem.eq_matrix
        if working:
            return np.vstack([E, problem.ineq_matrix[working]])
        return E

    def _direction(self, H, L_full, grad, A_w) -> np.ndarray:
        """Step of the equality-constrained subproblem ``A_w p = 0``."""
        n = H.shape[0]
        m = A_w.shape[0]
        if m == 0:
            return -_chol_solve(L_full, grad)
        # Null-space basis from the SVD.  Using the numerical rank keeps
        # nearly dependent working rows satisfied along the step instead
        # of letting the iterate drift off them.
        _, s, Vt = np.linalg.svd(A_w)
        tol = max(n, m) * np.finfo(float).eps * float(s[0])
        rank = int(np.count_nonzero(s > tol))
        if rank >= n:
            return np.zeros(n)
        Z = Vt[rank:].T
        reduced = Z.T @ H @ Z
        L_red, _ = _cholesky_with_regularisation(reduced)
        p_z = _chol_solve(L_red, -(Z.T @ grad))
        return Z @ p_z

    @staticmethod
    def _multipliers(grad, A_w) -> np.ndarray:
        """Least-squares multipliers of ``A_w' lam = -grad``."""
        if A_w.shape[0] == 0:
            return np.zeros(0)
        lam, *_ = np.linalg.lstsq(A_w.T, -grad, rcond=None)
        return lam

    # -- phase 1 -----------------------------------------------------------

    def _feasible_start(self, problem: QpProblem) -> tuple[np.ndarray, tuple[int, ...]]:
        """Return ``(z0, violated)``; nonempty ``violated`` means failure."""
        n = problem.num_variables
        E, e = problem.eq_matrix, problem.eq_rhs

        if E.shape[0]:
            z0, *_ = np.linalg.lstsq(E, e, rcond=None)
            eq_res = np.abs(E @ z0 - e)
            if float(eq_res.max(initial=0.0)) > _FEAS_TOL * (1.0 + float(np.abs(e).max(initial=0.0))):
                bad = tuple(int(i) for i in np.flatnonzero(eq_res > _FEAS_TOL))
                return z0, bad if bad else tuple(range(E.shape[0]))
        else:
            z0 = np.zeros(n)

        if self._max_violation(problem, z0) <= _FEAS_TOL:
            return z0, ()

        return self._slack_phase(problem, z0)

    @staticmethod
    def _max_violation(problem: QpProblem, z: np.ndarray) -> float:
        if problem.ineq_matrix.shape[0] == 0:
            return 0.0
        return float((problem.ineq_matrix @ z - problem.ineq_rhs).max(initial=0.0))

    def _slack_phase(self, problem: QpProblem, z0: np.ndarray):
        """Minimise the worst violation ``t``; ``(z, violated)``, feasible iff ``t* ~ 0``."""
        n = problem.num_variables
        C, d = problem.ineq_matrix, problem.ineq_rhs
        m_i = C.shape[0]
        mu = 1e-10

        # Since t >= 0, minimising t + t^2/2 is the same as minimising t;
        # the unit quadratic keeps the t direction well conditioned.
        H1 = mu * np.eye(n + 1)
        H1[n, n] = 1.0
        g1 = np.zeros(n + 1)
        g1[:n] = -mu * z0  # centres the vanishing quadratic term on z0
        g1[n] = 1.0
        E1 = np.hstack([problem.eq_matrix, np.zeros((problem.eq_matrix.shape[0], 1))])
        C1 = np.zeros((m_i + 1, n + 1))
        C1[:m_i, :n] = C
        C1[:m_i, n] = -1.0
        C1[m_i, n] = -1.0  # t >= 0
        d1 = np.concatenate([d, [0.0]])
        aux = QpProblem(H1, g1, E1, problem.eq_rhs, C1, d1)

        t0 = self._max_violation(problem, z0) + 1.0
        y0 = np.concatenate([z0, [t0]])
        # The vanishing curvature makes the slack program converge in
        # many small steps, so it gets its own iteration budget.
        aux_solver = ActiveSetQp(max_iterations=max(self.max_iterations, 50 * (n + m_i + 2)))
        sol = aux_solver._main_loop(aux, y0, trace=False)
        t_star = float(sol.z[n])
        z_star = sol.z[:n]
        if t_star > 1e-8:
            bad = tuple(int(i) for i in np.flatnonzero(C @ z_star - d > 1e-8))
            return z_star, bad if bad else tuple(range(m_i))
        return z_star, ()

    # -- main loop ----------------------------------------------------------

    def _main_loop(self, problem: QpProblem, z0: np.ndarray, trace: bool) -> QpSolution:
        H = problem.hessian
        g = problem.linear
        C, d = problem.ineq_matrix, problem.ineq_rhs
        m_e = problem.eq_matrix.shape[0]
        m_i = C.shape[0]
        n = problem.num_variables

        L_full, H_used = _cholesky_with_regularisation(H)
        z = z0.copy()
        W: list[int] = []
        obj_trace = [problem.objective(z)] if trace else []
        eq_mult = np.zeros(m_e)
        ineq_mult = np.zeros(m_i)
        status = "iteration_limit"
        iterations = 0

        for iterations in range(1, self.max_iterations + 1):
            grad = H_used @ z + g
            A_w = self._working_rows(problem, W)
            p = self._direction(H_used, L_full, grad, A_w)

            if float(np.abs(p).max(initial=0.0)) <= _STEP_TOL:
                lam = self._multipliers(grad, A_w)
                lam_ineq = lam[m_e:]
                if lam_ineq.size == 0 or float(lam_ineq.min()) >= -_MULT_TOL:
                    eq_mult = lam[:m_e].copy()
                    ineq_mult = np.zeros(m_i)
                    ineq_mult[W] = lam_ineq
                    status = "optimal"
                    break
                # Drop the most negative multiplier, lowest index on ties.
                worst = float(lam_ineq.min())
                drop_pos = min(
                    k for k in range(len(W)) if lam_ineq[k] <= worst + _TIE_TOL
                )
                del W[drop_pos]
                if trace:
                    obj_trace.append(problem.objective(z))
                continue

            # Ratio test over inequality rows not in the working set.
            # Comparisons are exact: a tolerance here is in ratio units,
            # and with a large step a tiny ratio slack is a large
            # constraint violation.  Exact float comparison is already
            # deterministic, and exact ties go to the lowest index.
            alpha = 1.0
            blocker = -1
            in_w = np.zeros(m_i, dtype=bool)
            in_w[W] = True
            for i in range(m_i):
                if in_w[i]:
                    continue
                c_p = float(C[i] @ p)
                if c_p <= _STEP_TOL:
                    continue
                a_i = (d[i] - float(C[i] @ z)) / c_p
                if a_i < 0.0:
                    # Marginally violated row; do not move further into it.
                    a_i = 0.0
                if a_i < alpha or (a_i == alpha and blocker >= 0 and i < blocker):
                    alpha = a_i
                    blocker = i

            z = z + alpha * p
            if blocker >= 0:
                W.append(blocker)
                W.sort()
            if trace:
                obj_trace.append(problem.objective(z))

        return QpSolution(
            z=z,
            objective=problem.objective(z),
            status=status,
            active_set=tuple(W),
            eq_multipliers=eq_mult,
            ineq_multipliers=ineq_mult,
            iterations=iterations,
            objective_trace=tuple(obj_trace),
        )

    # -- public API ----------------------------------------------------------

    def solve(self, problem: QpProblem) -> QpSolution:
        z0, violated = self._feasible_start(problem)
        if violated:
            return QpSolution(
                z=z0,
                objective=problem.objective(z0),
                status="infeasible",
                active_set=(),
                eq_multipliers=np.zeros(problem.eq_matrix.shape[0]),
                ineq_multipliers=np.zeros(problem.ineq_matrix.shape[0]),
                iterations=0,
                objective_trace=(),
                violated=violated,
            )
        return self._main_loop(problem, z0, trace=True)


def solve_qp(problem: QpProblem, max_iterations: int = 200) -> QpSolution:
    """One-shot convenience wrapper around :class:`ActiveSetQp`."""
    return ActiveSetQp(max_iterations=max_iterations).solve(problem)

