"""Step-adaptation planner: fixed point, boundary condition, replanning."""

import math
from dataclasses import replace

import numpy as np
import pytest
from oracle_utils import brute_force_plan

from exorecover import (
    LipmParams,
    NominalGait,
    PlannerInfeasibleError,
    PlannerInput,
    StepBounds,
    assemble_qp,
    constraint_names,
    dcm_closed_form,
    kkt_residual,
    mirror_bounds,
    mirror_gait,
    nominal_consistent_dcm,
    plan_step,
    planning_cost,
    replan,
    solve_qp,
)
from exorecover.errors import ConfigurationError

OMEGA = 3.3388212400078077  # sqrt(9.81 / 0.88)


def default_nominal() -> NominalGait:
    return NominalGait(
        cop_T_nom=[0.0, -0.2],
        gamma_nom=[0.0, 0.0],
        T_nom=0.5,
        weights=(1.0, 5.0, 0.02),
    )


def default_bounds() -> StepBounds:
    return StepBounds(
        cop_min=[-0.15, -0.30],
        cop_max=[0.30, -0.04],
        T_min=0.25,
        T_max=1.2,
    )


def random_input(rng: np.random.Generator) -> PlannerInput:
    omega = float(rng.uniform(2.0, 4.0))
    nominal = NominalGait(
        cop_T_nom=rng.uniform(-0.1, 0.1, 2),
        gamma_nom=rng.uniform(-0.05, 0.05, 2),
        T_nom=float(rng.uniform(0.3, 0.8)),
        weights=tuple(rng.uniform(0.01, 5.0, 3)),
    )
    lo = rng.uniform(-0.3, -0.05, 2)
    bounds = StepBounds(
        cop_min=lo,
        cop_max=lo + rng.uniform(0.1, 0.5, 2),
        T_min=float(rng.uniform(0.2, 0.4)),
        T_max=float(rng.uniform(0.8, 1.3)),
    )
    return PlannerInput(
        xi0=rng.uniform(-0.15, 0.15, 2),
        cop0=rng.uniform(-0.05, 0.05, 2),
        omega=omega,
        nominal=nominal,
        bounds=bounds,
    )


def test_nominal_state_is_a_fixed_point():
    nominal = default_nominal()
    cop0 = np.array([0.0, 0.0])
    xi0 = nominal_consistent_dcm(nominal, cop0, OMEGA)
    plan = plan_step(PlannerInput(xi0, cop0, OMEGA, nominal, default_bounds()))
    assert plan.status == "optimal"
    assert np.abs(plan.cop_T - nominal.cop_T_nom).max() < 1e-10
    assert np.abs(plan.gamma_T - nominal.gamma_nom).max() < 1e-10
    assert plan.duration == pytest.approx(nominal.T_nom, abs=1e-10)
    assert plan.objective <= 1e-12
    assert plan.active_set == ()


def test_boundary_condition_holds_on_random_instances():
    """gamma + cop_T + (cop0 - xi0) sigma = cop0, per axis, to 1e-8."""
    rng = np.random.default_rng(314)
    for _ in range(200):
        inp = random_input(rng)
        try:
            plan = plan_step(inp)
        except PlannerInfeasibleError:
            continue
        residual = plan.gamma_T + plan.cop_T + (inp.cop0 - inp.xi0) * plan.sigma - inp.cop0
        assert np.abs(residual).max() < 1e-8


def test_plan_respects_boxes():
    rng = np.random.default_rng(8862)
    for _ in range(200):
        inp = random_input(rng)
        try:
            plan = plan_step(inp)
        except PlannerInfeasibleError:
            continue
        assert np.all(plan.cop_T <= inp.bounds.cop_max + 1e-9)
        assert np.all(plan.cop_T >= inp.bounds.cop_min - 1e-9)
        assert inp.bounds.T_min - 1e-9 <= plan.duration <= inp.bounds.T_max + 1e-9
        assert plan.sigma == pytest.approx(math.exp(inp.omega * plan.duration), rel=1e-12)


def test_predicted_landing_dcm_matches_pendulum_flow():
    """cop_T + gamma_T equals the constant-CoP DCM propagated over T."""
    rng = np.random.default_rng(515)
    for _ in range(50):
        inp = random_input(rng)
        try:
            plan = plan_step(inp)
        except PlannerInfeasibleError:
            continue
        params = LipmParams(gravity=inp.omega**2, com_height=1.0)
        xi_T = dcm_closed_form(inp.xi0, inp.cop0, params, plan.duration)
        assert np.abs(plan.xi_T - xi_T).max() < 1e-8


def test_objective_matches_brute_force_oracle():
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 10:
        inp = random_input(rng)
        try:
            plan = plan_step(inp)
        except PlannerInfeasibleError:
            continue
        _, _, obj_ref = brute_force_plan(inp)
        assert plan.objective <= obj_ref + 1e-9
        assert abs(plan.objective - obj_ref) < 1e-6
        checked += 1


def test_objective_is_full_cost_not_shifted():
    inp = PlannerInput([0.1, 0.02], [0.0, 0.0], OMEGA, default_nominal(), default_bounds())
    plan = plan_step(inp)
    direct = planning_cost(inp, plan.cop_T, plan.sigma, plan.gamma_T)
    assert plan.objective == pytest.approx(direct, abs=1e-12)
    assert plan.objective >= 0.0


def test_assemble_qp_shapes_and_names():
    inp = PlannerInput([0.1, 0.0], [0.0, 0.0], OMEGA, default_nominal(), default_bounds())
    prob = assemble_qp(inp)
    assert prob.num_variables == 5
    assert prob.eq_matrix.shape == (2, 5)
    assert prob.ineq_matrix.shape == (6, 5)
    assert len(constraint_names()) == 6


def test_infeasible_raises_with_named_constraints():
    # An inverted CoP box on x and an empty duration window are the only
    # infeasible programs; each names its two rows.
    cases = [
        (StepBounds([0.1, -0.1], [-0.1, 0.1], 0.25, 1.2),
         ("cop_x <= cop_max_x", "cop_x >= cop_min_x")),
        (StepBounds([-0.1, -0.1], [0.1, 0.1], 0.8, 0.25),
         ("sigma <= exp(omega*T_max)", "sigma >= exp(omega*T_min)")),
    ]
    for bounds, names in cases:
        inp = PlannerInput([0.1, 0.0], [0.0, 0.0], OMEGA, default_nominal(), bounds)
        with pytest.raises(PlannerInfeasibleError) as err:
            plan_step(inp)
        assert err.value.violated == names


def test_replan_landing_time_never_grows():
    nominal = default_nominal()
    bounds = default_bounds()
    xi0 = np.array([0.12, -0.02])
    cop0 = np.array([0.0, 0.0])
    params = LipmParams(gravity=OMEGA**2, com_height=1.0)

    plan = plan_step(PlannerInput(xi0, cop0, OMEGA, nominal, bounds))
    landing_times = [plan.landing_time]
    remaining = [plan.duration]
    t = 0.0
    while t + 0.02 < plan.landing_time and plan.status != "terminal":
        t += 0.02
        xi_t = dcm_closed_form(xi0, cop0, params, t)
        plan = replan(plan, PlannerInput(xi_t, cop0, OMEGA, nominal, bounds), t)
        landing_times.append(plan.landing_time)
        remaining.append(plan.duration)
    assert len(landing_times) > 5
    assert all(b <= a + 1e-9 for a, b in zip(landing_times, landing_times[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(remaining, remaining[1:]))


def test_replan_far_into_swing_returns_terminal_plan():
    nominal = default_nominal()
    bounds = default_bounds()
    plan = plan_step(PlannerInput([0.12, -0.02], [0.0, 0.0], OMEGA, nominal, bounds))
    assert plan.active_set == (0,)  # lands on cop_max_x
    elapsed = plan.landing_time - 0.05  # under the replanning floor
    inp = PlannerInput([0.2, -0.02], [0.0, 0.0], OMEGA, nominal, bounds)
    # Stale bookkeeping on the previous plan must not leak into the terminal one.
    stale = replace(plan, objective=123.0, active_set=(1, 4, 5))
    term = replan(stale, inp, elapsed)
    assert term.status == "terminal"
    assert np.all(term.cop_T == plan.cop_T)
    assert term.duration == pytest.approx(0.05, abs=1e-12)
    assert term.landing_time == pytest.approx(plan.landing_time, abs=1e-12)
    # The terminal offset still satisfies the boundary condition.
    residual = term.gamma_T + term.cop_T + (inp.cop0 - inp.xi0) * term.sigma - inp.cop0
    assert np.abs(residual).max() < 1e-12
    # Its cost and binding rows are its own: the frozen landing point still
    # sits on cop_max_x, and the short remaining time binds no sigma row.
    assert term.objective == planning_cost(inp, term.cop_T, term.sigma, term.gamma_T)
    assert term.objective != plan.objective
    assert term.active_set == (0,)


def test_replan_rejects_negative_elapsed():
    plan = plan_step(PlannerInput([0.12, 0.0], [0.0, 0.0], OMEGA, default_nominal(), default_bounds()))
    with pytest.raises(ValueError):
        replan(plan, PlannerInput([0.12, 0.0], [0.0, 0.0], OMEGA, default_nominal(), default_bounds()), -0.1)


def test_mirror_symmetry_of_planning():
    """Mirroring the lateral axis of all inputs mirrors the plan."""
    rng = np.random.default_rng(606)
    flip = np.array([1.0, -1.0])
    for _ in range(50):
        inp = random_input(rng)
        m_inp = PlannerInput(
            xi0=inp.xi0 * flip,
            cop0=inp.cop0 * flip,
            omega=inp.omega,
            nominal=mirror_gait(inp.nominal),
            bounds=mirror_bounds(inp.bounds),
        )
        try:
            plan = plan_step(inp)
        except PlannerInfeasibleError:
            with pytest.raises(PlannerInfeasibleError):
                plan_step(m_inp)
            continue
        m_plan = plan_step(m_inp)
        assert np.abs(m_plan.cop_T - plan.cop_T * flip).max() < 1e-9
        assert np.abs(m_plan.gamma_T - plan.gamma_T * flip).max() < 1e-9
        assert m_plan.duration == pytest.approx(plan.duration, abs=1e-10)


def test_mirror_bounds_involution():
    bounds = StepBounds(
        cop_min=[-0.15, -0.30],
        cop_max=[0.30, -0.04],
        T_min=0.25,
        T_max=1.2,
    )
    twice = mirror_bounds(mirror_bounds(bounds))
    assert np.all(twice.cop_min == bounds.cop_min)
    assert np.all(twice.cop_max == bounds.cop_max)
    mirrored = mirror_bounds(bounds)
    assert np.all(mirrored.cop_min <= mirrored.cop_max)


def test_bounds_validate_and_shift():
    bounds = default_bounds()
    bounds.validate()
    shifted = bounds.shift([0.1, -0.2])
    assert np.allclose(shifted.cop_min, [-0.05, -0.50])
    assert np.allclose(shifted.cop_max, [0.40, -0.24])
    assert shifted.T_min == bounds.T_min

    with pytest.raises(ConfigurationError):
        StepBounds([0.2, 0.0], [0.1, 0.1], 0.25, 1.2).validate()
    with pytest.raises(ConfigurationError):
        StepBounds([-0.1, -0.1], [0.1, 0.1], 0.8, 0.25).validate()


def test_sigma_bounds_are_exponential():
    bounds = default_bounds()
    s_min, s_max = bounds.sigma_bounds(2.0)
    assert s_min == pytest.approx(math.exp(0.5), rel=1e-15)
    assert s_max == pytest.approx(math.exp(2.4), rel=1e-15)


def test_replan_matches_cold_solve():
    """Replans equal a reference solve of the shrunk program and carry its KKT certificate."""
    rng = np.random.default_rng(4242)
    seen = []
    for _ in range(60):
        inp = random_input(rng)
        plan = plan_step(inp)
        for elapsed in (0.02, 0.1, 0.2, 0.4):
            t_lo = max(0.1, inp.bounds.T_min - elapsed)
            t_hi = min(inp.bounds.T_max - elapsed, plan.landing_time - elapsed)
            if t_hi < t_lo:
                break
            # Rescaling the DCM offset, as a shove would, makes some replans
            # want a shorter step than the window allows.
            inp_t = replace(inp, xi0=inp.cop0 + (inp.xi0 - inp.cop0) * rng.uniform(0.5, 4.0))
            new = replan(plan, inp_t, elapsed)
            shrunk = replace(inp_t, bounds=replace(inp.bounds, T_min=t_lo, T_max=t_hi))
            problem = assemble_qp(shrunk)
            cold = solve_qp(problem)
            assert new.status == "optimal"
            assert np.abs(new.cop_T - cold.z[0:2]).max() < 1e-8
            assert new.sigma == pytest.approx(float(cold.z[2]), abs=1e-8)
            assert kkt_residual(problem, new).max() < 1e-8
            seen.append(set(new.active_set))
    # The cases cover a clipped CoP on each axis and sigma at each bound.
    assert any(rows & {0, 2} for rows in seen) and any(rows & {1, 3} for rows in seen)
    assert any(4 in rows and 5 not in rows for rows in seen)
    assert any(5 in rows and 4 not in rows for rows in seen)


def test_planning_does_not_call_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("planning called LAPACK")

    for name in ("svd", "lstsq", "cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(99)
    for _ in range(50):
        plan_step(random_input(rng))

    inp = PlannerInput([0.12, -0.02], [0.0, 0.0], OMEGA, default_nominal(), default_bounds())
    plan = plan_step(inp)
    elapsed = 0.0
    while plan.status != "terminal":
        elapsed += 0.02
        plan = replan(plan, inp, elapsed)


def test_input_validation():
    with pytest.raises(ValueError):
        NominalGait([0.0, 0.0], [0.0, 0.0], -0.5, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        NominalGait([0.0, 0.0], [0.0, 0.0], 0.5, (1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        PlannerInput([0.0, 0.0], [0.0, 0.0], 0.0, default_nominal(), default_bounds())
    with pytest.raises(ValueError):
        PlannerInput([0.0], [0.0, 0.0], OMEGA, default_nominal(), default_bounds())
