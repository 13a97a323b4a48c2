"""Reference QP by active-set enumeration: hand-solved cases, certificates, random problems."""

import numpy as np
import pytest
from oracle_utils import KktResidual, kkt_residual

from exorecover.qp import ActiveSetQp, QpProblem, QpSolution, solve_qp


def test_unconstrained_minimum():
    H = np.array([[2.0, 0.0], [0.0, 4.0]])
    g = np.array([-2.0, -8.0])
    sol = solve_qp(QpProblem(H, g))
    assert sol.status == "optimal"
    assert np.allclose(sol.z, [1.0, 2.0], atol=1e-12)
    assert sol.active_set == ()
    assert sol.objective == pytest.approx(-9.0, abs=1e-12)


def test_single_bound_becomes_active():
    # minimize (z - 2)^2 subject to z <= 1; optimum z = 1, multiplier 2.
    sol = solve_qp(QpProblem([[2.0]], [-4.0], ineq_matrix=[[1.0]], ineq_rhs=[1.0]))
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.active_set == (0,)
    assert sol.ineq_multipliers[0] == pytest.approx(2.0, abs=1e-10)


def test_inactive_bound_is_ignored():
    sol = solve_qp(QpProblem([[2.0]], [-4.0], ineq_matrix=[[1.0]], ineq_rhs=[5.0]))
    assert sol.z[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.active_set == ()
    assert np.all(sol.ineq_multipliers == 0.0)


def test_equality_constrained_projection():
    # minimize |z|^2 subject to z1 + z2 = 1; optimum (0.5, 0.5), nu = -1.
    sol = solve_qp(QpProblem(np.eye(2) * 2, [0.0, 0.0], [[1.0, 1.0]], [1.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.z, [0.5, 0.5], atol=1e-12)
    assert sol.eq_multipliers[0] == pytest.approx(-1.0, abs=1e-10)


def test_mixed_equality_and_active_inequality():
    # minimize (z1-1)^2 + (z2-2)^2 on the line z1 + z2 = 2 with z1 <= 0.3.
    # The line optimum z1 = 0.5 violates the bound, so z = (0.3, 1.7).
    prob = QpProblem(
        np.eye(2) * 2,
        [-2.0, -4.0],
        eq_matrix=[[1.0, 1.0]],
        eq_rhs=[2.0],
        ineq_matrix=[[1.0, 0.0]],
        ineq_rhs=[0.3],
    )
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.z, [0.3, 1.7], atol=1e-10)
    assert sol.active_set == (0,)
    assert kkt_residual(prob, sol).max() < 1e-9


def test_infeasible_box_is_reported_with_rows():
    # z <= -1 and -z <= -1 cannot both hold.
    sol = solve_qp(QpProblem([[2.0]], [0.0], ineq_matrix=[[1.0], [-1.0]], ineq_rhs=[-1.0, -1.0]))
    assert sol.status == "infeasible"
    assert np.isnan(sol.z).all() and sol.active_set == ()


def test_inconsistent_equalities_are_infeasible():
    sol = solve_qp(QpProblem(np.eye(2), [0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0]))
    assert sol.status == "infeasible"


def test_diagonal_box_matches_clip_oracle():
    """Diagonal Hessian with box bounds has the exact solution clip(-g/h)."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        h = rng.uniform(0.5, 5.0, n)
        g = rng.uniform(-3.0, 3.0, n)
        lo = rng.uniform(-2.0, 0.0, n)
        hi = lo + rng.uniform(0.1, 3.0, n)
        C = np.vstack([np.eye(n), -np.eye(n)])
        d = np.concatenate([hi, -lo])
        sol = solve_qp(QpProblem(np.diag(h), g, ineq_matrix=C, ineq_rhs=d))
        assert sol.status == "optimal"
        expected = np.clip(-g / h, lo, hi)
        assert np.abs(sol.z - expected).max() < 1e-9


def test_random_problems_satisfy_kkt_certificate():
    """KKT residual + nonnegative multipliers certify the global optimum."""
    rng = np.random.default_rng(2718)
    solver = ActiveSetQp()
    for _ in range(150):
        n = int(rng.integers(2, 7))
        m_i = int(rng.integers(0, 2 * n + 1))
        B = rng.normal(size=(n, n))
        H = B @ B.T + n * np.eye(n)
        g = rng.normal(size=n)
        C = rng.normal(size=(m_i, n)) if m_i else None
        d = None
        if m_i:
            z_in = rng.normal(size=n) * 0.2
            d = C @ z_in + rng.uniform(0.01, 1.0, m_i)
        prob = QpProblem(H, g, ineq_matrix=C, ineq_rhs=d)
        sol = solver.solve(prob)
        assert sol.status == "optimal"
        res = kkt_residual(prob, sol)
        assert res.max() < 1e-8
        if m_i:
            assert float(sol.ineq_multipliers.min()) >= -1e-8


def test_random_problems_with_equalities():
    rng = np.random.default_rng(99)
    for _ in range(80):
        n = int(rng.integers(3, 7))
        m_e = int(rng.integers(1, n - 1))
        B = rng.normal(size=(n, n))
        H = B @ B.T + n * np.eye(n)
        g = rng.normal(size=n)
        E = rng.normal(size=(m_e, n))
        z_in = rng.normal(size=n) * 0.2
        e = E @ z_in
        C = np.vstack([np.eye(n), -np.eye(n)])
        d = np.concatenate([np.abs(z_in) + 1.0, np.abs(z_in) + 1.0])
        prob = QpProblem(H, g, E, e, C, d)
        sol = solve_qp(prob)
        assert sol.status == "optimal"
        assert kkt_residual(prob, sol).max() < 1e-8


def test_singular_or_indefinite_hessian_is_rejected():
    for H in ([[2.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, -1.0]]):
        with pytest.raises(ValueError, match="positive definite"):
            QpProblem(H, [-4.0, 0.0])


def test_tie_break_picks_lowest_index():
    # Two identical bounds block simultaneously; index 0 must enter first.
    prob = QpProblem(
        [[2.0]],
        [-4.0],
        ineq_matrix=[[1.0], [1.0]],
        ineq_rhs=[1.0, 1.0],
    )
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.active_set == (0,)


def test_determinism_bitwise():
    rng = np.random.default_rng(123)
    n = 5
    B = rng.normal(size=(n, n))
    H = B @ B.T + n * np.eye(n)
    g = rng.normal(size=n)
    C = rng.normal(size=(8, n))
    d = C @ (rng.normal(size=n) * 0.1) + 0.1
    prob = QpProblem(H, g, ineq_matrix=C, ineq_rhs=d)
    a = solve_qp(prob)
    b = solve_qp(prob)
    assert a.z.tobytes() == b.z.tobytes()
    assert a.active_set == b.active_set


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])  # asymmetric
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), [0.0])  # wrong gradient length
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), [0.0, 0.0], [[1.0, 0.0]], [0.0, 1.0])  # rhs length
    with pytest.raises(ValueError, match="at most 16 inequality rows"):
        QpProblem(np.eye(2), [0.0, 0.0], ineq_matrix=np.ones((17, 2)), ineq_rhs=np.ones(17))
    with pytest.raises(ValueError):
        QpProblem(np.eye(2) * np.nan, [0.0, 0.0])


def test_kkt_residual_fields_and_max():
    prob = QpProblem([[2.0]], [-4.0], ineq_matrix=[[1.0]], ineq_rhs=[1.0])
    sol = solve_qp(prob)
    res = kkt_residual(prob, sol)
    assert isinstance(res, KktResidual)
    assert res.max() == max(
        res.stationarity, res.primal_eq, res.primal_ineq, res.complementarity
    )
    fake = QpSolution(
        z=np.array([0.0]),
        objective=0.0,
        status="optimal",
        active_set=(),
        eq_multipliers=np.zeros(0),
        ineq_multipliers=np.zeros(1),
        iterations=0,
    )
    assert kkt_residual(prob, fake).stationarity == 4.0
