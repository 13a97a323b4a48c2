"""Step-adaptation planner: fixed point, boundary condition, replanning."""

import math
from dataclasses import replace

import numpy as np
import pytest
from oracle_utils import (
    PlanningCase,
    assemble_qp,
    brute_force_plan,
    dcm_closed_form,
    nominal_consistent_dcm,
    plan_kkt_residual,
    plan_of,
    planning_cost,
    world_input,
)

from exorecover import (
    NominalGait,
    PlannerInfeasibleError,
    ScenarioConfig,
    StepBounds,
    constraint_names,
    mirror_bounds,
    mirror_gait,
    plan_step,
    replan,
    step_program,
)
from exorecover.errors import ConfigurationError
from exorecover.planner import REPLAN_FLOOR
from exorecover.qp import solve_qp

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


def random_input(rng: np.random.Generator) -> PlanningCase:
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
    return PlanningCase(
        xi0=tuple(rng.uniform(-0.15, 0.15, 2).tolist()),
        cop0=tuple(rng.uniform(-0.05, 0.05, 2).tolist()),
        omega=omega,
        nominal=nominal,
        bounds=bounds,
    )


def test_nominal_state_is_a_fixed_point():
    nominal = default_nominal()
    cop0 = (0.0, 0.0)
    xi0 = nominal_consistent_dcm(nominal, cop0, OMEGA)
    plan = plan_of(PlanningCase(xi0, cop0, OMEGA, nominal, default_bounds()))
    assert plan.status == "optimal"
    assert np.abs(np.subtract(plan.cop_T, nominal.cop_T_nom)).max() < 1e-10
    assert np.abs(np.subtract(plan.gamma_T, nominal.gamma_nom)).max() < 1e-10
    assert plan.duration == pytest.approx(nominal.T_nom, abs=1e-10)
    assert plan.objective <= 1e-12
    assert plan.active_set == ()


def test_boundary_condition_holds_on_random_instances():
    """gamma + cop_T + (cop0 - xi0) sigma = cop0, per axis, to 1e-8."""
    rng = np.random.default_rng(314)
    for _ in range(200):
        inp = random_input(rng)
        try:
            plan = plan_of(inp)
        except PlannerInfeasibleError:
            continue
        cop0 = np.asarray(inp.cop0)
        residual = np.add(plan.gamma_T, plan.cop_T) + (cop0 - inp.xi0) * plan.sigma - cop0
        assert np.abs(residual).max() < 1e-8


def test_plan_respects_boxes():
    rng = np.random.default_rng(8862)
    for _ in range(200):
        inp = random_input(rng)
        try:
            plan = plan_of(inp)
        except PlannerInfeasibleError:
            continue
        box = inp.bounds.shift(inp.cop0)  # the box is about the stance CoP
        assert np.all(np.asarray(plan.cop_T) <= np.asarray(box.cop_max) + 1e-9)
        assert np.all(np.asarray(plan.cop_T) >= np.asarray(box.cop_min) - 1e-9)
        assert inp.bounds.T_min - 1e-9 <= plan.duration <= inp.bounds.T_max + 1e-9
        assert plan.sigma == pytest.approx(math.exp(inp.omega * plan.duration), rel=1e-12)


def test_predicted_landing_dcm_matches_pendulum_flow():
    """cop_T + gamma_T equals the constant-CoP DCM propagated over T."""
    rng = np.random.default_rng(515)
    for _ in range(50):
        inp = random_input(rng)
        try:
            plan = plan_of(inp)
        except PlannerInfeasibleError:
            continue
        xi_T = dcm_closed_form(inp.xi0, inp.cop0, inp.omega, plan.duration)
        assert np.abs(np.subtract(plan.xi_T, xi_T)).max() < 1e-8


def test_objective_matches_brute_force_oracle():
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 10:
        inp = random_input(rng)
        try:
            plan = plan_of(inp)
        except PlannerInfeasibleError:
            continue
        _, _, obj_ref = brute_force_plan(inp)
        assert plan.objective <= obj_ref + 1e-9
        assert abs(plan.objective - obj_ref) < 1e-6
        checked += 1


def test_plan_moves_with_the_stance_cop():
    """The nominal point and the CoP box are about ``cop0``: moving ``cop0``
    and ``xi0`` together by ``d`` moves ``cop_T`` by ``d`` and keeps ``sigma``
    and ``gamma_T``, also when the box binds."""
    rng = np.random.default_rng(2016)
    binding = 0
    for _ in range(300):
        inp = random_input(rng)
        d = rng.uniform(-0.5, 0.5, 2)
        plan = plan_of(inp)
        moved = plan_of(inp._replace(xi0=tuple(np.add(inp.xi0, d).tolist()),
                                     cop0=tuple(np.add(inp.cop0, d).tolist())))
        assert np.abs(np.subtract(moved.cop_T, plan.cop_T) - d).max() < 1e-12
        assert abs(moved.sigma - plan.sigma) < 1e-12
        assert np.abs(np.subtract(moved.gamma_T, plan.gamma_T)).max() < 1e-12
        binding += any(row < 4 for row in plan.active_set)
    assert binding > 50


def test_objective_is_full_cost_not_shifted():
    inp = PlanningCase((0.1, 0.02), (0.0, 0.0), OMEGA, default_nominal(), default_bounds())
    plan = plan_of(inp)
    direct = planning_cost(inp, plan.cop_T, plan.sigma, plan.gamma_T)
    assert plan.objective == pytest.approx(direct, abs=1e-12)
    assert plan.objective >= 0.0


def test_planning_cost_is_a_float_sum():
    """Objectives are summed in Python floats, bit for bit, not by a BLAS dot product."""
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(500):
        inp = random_input(rng)
        try:
            plan = plan_of(inp)
        except PlannerInfeasibleError:
            continue
        a1, a2, a3 = inp.nominal.weights
        dx, dy = np.subtract(plan.cop_T, world_input(inp).nominal.cop_T_nom).tolist()
        ex, ey = np.subtract(plan.gamma_T, inp.nominal.gamma_nom).tolist()
        ds = plan.sigma - math.exp(inp.omega * inp.nominal.T_nom)
        expected = a1 * (dx * dx + dy * dy) + a2 * (ex * ex + ey * ey) + a3 * ds**2
        assert plan.objective == expected
        assert planning_cost(inp, list(plan.cop_T), plan.sigma, list(plan.gamma_T)) == expected
        checked += 1
    assert checked > 400


def test_assemble_qp_shapes_and_names():
    inp = PlanningCase((0.1, 0.0), (0.0, 0.0), OMEGA, default_nominal(), default_bounds())
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
        with pytest.raises(PlannerInfeasibleError) as err:
            step_program((0.0, 0.0), OMEGA, default_nominal(), bounds)
        assert err.value.violated == names


def test_replan_landing_time_never_grows():
    nominal = default_nominal()
    bounds = default_bounds()
    xi0 = (0.12, -0.02)
    cop0 = (0.0, 0.0)

    program = step_program(cop0, OMEGA, nominal, bounds)
    plan = plan_step(xi0, program)
    landing_times = [plan.landing_time]
    remaining = [plan.duration]
    t = 0.0
    while t + 0.02 < plan.landing_time and plan.status != "terminal":
        t += 0.02
        xi_t = dcm_closed_form(xi0, cop0, OMEGA, t)
        plan = replan(plan, xi_t, program, t)
        landing_times.append(plan.landing_time)
        remaining.append(plan.duration)
    assert len(landing_times) > 5
    assert all(b <= a + 1e-9 for a, b in zip(landing_times, landing_times[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(remaining, remaining[1:]))


def test_replan_far_into_swing_returns_terminal_plan():
    nominal = default_nominal()
    bounds = default_bounds()
    program = step_program((0.0, 0.0), OMEGA, nominal, bounds)
    plan = plan_step((0.12, -0.02), program)
    assert plan.active_set == (0,)  # lands on cop_max_x
    elapsed = plan.landing_time - 0.05  # under the replanning floor
    inp = PlanningCase((0.2, -0.02), (0.0, 0.0), OMEGA, nominal, bounds)
    # Stale bookkeeping on the previous plan must not leak into the terminal one.
    stale = plan._replace(objective=123.0, active_set=(1, 4, 5))
    term = replan(stale, inp.xi0, program, elapsed)
    assert term.status == "terminal"
    assert np.all(term.cop_T == plan.cop_T)
    assert term.duration == pytest.approx(0.05, abs=1e-12)
    assert term.landing_time == pytest.approx(plan.landing_time, abs=1e-12)
    # The terminal offset still satisfies the boundary condition.
    cop0 = np.asarray(inp.cop0)
    residual = np.add(term.gamma_T, term.cop_T) + (cop0 - inp.xi0) * term.sigma - cop0
    assert np.abs(residual).max() < 1e-12
    # Its cost and binding rows are its own: the frozen landing point still
    # sits on cop_max_x, and the short remaining time binds no sigma row.
    assert term.objective == planning_cost(inp, term.cop_T, term.sigma, term.gamma_T)
    assert term.objective != plan.objective
    assert term.active_set == (0,)


@pytest.mark.xfail(strict=True, reason="replan on T_min freezes on a rounding of the landing time")
def test_replan_on_t_min_runs_to_the_floor():
    """A plan on T_min keeps being re-solved until less than the floor is left.

    With the previous plan on ``T_min`` the window's ends ``T_min -
    elapsed`` and ``landing_time - elapsed`` are equal in exact
    arithmetic, so the plan should stay ``"optimal"`` (sigma pinned)
    until ``T_min - elapsed`` drops under ``REPLAN_FLOOR``.  Today the
    landing time rounds below ``T_min`` and the step freezes after 5 ms.
    """
    nominal, bounds = default_nominal(), default_bounds()
    xi0, cop0 = (0.3, 0.0), (0.0, 0.0)
    program = step_program(cop0, OMEGA, nominal, bounds)
    plan = plan_step(xi0, program)
    assert plan.duration == bounds.T_min
    k = 0
    while plan.status != "terminal":
        k += 1
        xi_t = dcm_closed_form(xi0, cop0, OMEGA, k * 1e-3)
        plan = replan(plan, xi_t, program, k * 1e-3)
    assert k * 1e-3 > bounds.T_min - REPLAN_FLOOR


def test_replan_rejects_negative_elapsed():
    program = step_program((0.0, 0.0), OMEGA, default_nominal(), default_bounds())
    plan = plan_step((0.12, 0.0), program)
    with pytest.raises(ValueError):
        replan(plan, (0.12, 0.0), program, -0.1)


def test_mirror_symmetry_of_planning():
    """Mirroring the lateral axis of all inputs mirrors the plan."""
    rng = np.random.default_rng(606)
    flip = np.array([1.0, -1.0])
    for _ in range(50):
        inp = random_input(rng)
        m_inp = PlanningCase(
            xi0=tuple((inp.xi0 * flip).tolist()),
            cop0=tuple((inp.cop0 * flip).tolist()),
            omega=inp.omega,
            nominal=mirror_gait(inp.nominal),
            bounds=mirror_bounds(inp.bounds),
        )
        try:
            plan = plan_of(inp)
        except PlannerInfeasibleError:
            with pytest.raises(PlannerInfeasibleError):
                plan_of(m_inp)
            continue
        m_plan = plan_of(m_inp)
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
    assert np.all(np.asarray(mirrored.cop_min) <= np.asarray(mirrored.cop_max))


def test_bounds_validate_and_shift():
    bounds = default_bounds()
    shifted = bounds.shift([0.1, -0.2])
    assert np.allclose(shifted.cop_min, [-0.05, -0.50])
    assert np.allclose(shifted.cop_max, [0.40, -0.24])
    assert shifted.T_min == bounds.T_min

    # Empty boxes are rejected once, by the scenario config.
    with pytest.raises(ConfigurationError, match="cop_min"):
        ScenarioConfig(cop_min=(0.2, 0.0), cop_max=(0.1, 0.1)).validate()
    with pytest.raises(ConfigurationError, match="t_min"):
        ScenarioConfig(t_min=0.8, t_max=0.25).validate()


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
        plan = plan_of(inp)
        for elapsed in (0.02, 0.1, 0.2, 0.4):
            t_lo = max(0.1, inp.bounds.T_min - elapsed)
            t_hi = min(inp.bounds.T_max - elapsed, plan.landing_time - elapsed)
            if t_hi < t_lo:
                break
            # Rescaling the DCM offset, as a shove would, makes some replans
            # want a shorter step than the window allows.
            cop0 = np.asarray(inp.cop0)
            inp_t = inp._replace(
                xi0=tuple((cop0 + (inp.xi0 - cop0) * rng.uniform(0.5, 4.0)).tolist()))
            program = step_program(inp_t.cop0, inp_t.omega, inp_t.nominal, inp_t.bounds)
            new = replan(plan, inp_t.xi0, program, elapsed)
            shrunk = inp_t._replace(bounds=replace(inp.bounds, T_min=t_lo, T_max=t_hi))
            cold = solve_qp(assemble_qp(shrunk))
            assert new.status == "optimal"
            assert np.abs(np.subtract(new.cop_T, cold.z[0:2])).max() < 1e-8
            assert new.sigma == pytest.approx(float(cold.z[2]), abs=1e-8)
            assert plan_kkt_residual(shrunk, new).max() < 1e-8
            seen.append(set(new.active_set))
    # The cases cover a clipped CoP on each axis and sigma at each bound.
    assert any(rows & {0, 2} for rows in seen) and any(rows & {1, 3} for rows in seen)
    assert any(4 in rows and 5 not in rows for rows in seen)
    assert any(5 in rows and 4 not in rows for rows in seen)


@pytest.mark.parametrize("axis", [0, 1])
def test_kkt_certificate_fails_a_plan_moved_off_its_optimum(axis):
    """The oracle recovers the multipliers from the plan's z, so they can fail:
    the landing CoP moved 1 cm inside the box, with gamma_T moved back so that
    the boundary condition still holds, is feasible but far from optimal."""
    nominal = default_nominal()
    cop0 = (0.0, 0.0)
    xi0 = nominal_consistent_dcm(nominal, cop0, OMEGA)
    inp = PlanningCase(xi0, cop0, OMEGA, nominal, default_bounds())
    plan = plan_of(inp)
    assert plan.active_set == () and plan_kkt_residual(inp, plan).max() < 1e-8
    step = np.eye(2)[axis] * 0.01
    moved = plan._replace(cop_T=tuple(np.add(plan.cop_T, step).tolist()),
                          gamma_T=tuple(np.subtract(plan.gamma_T, step).tolist()))
    residual = plan_kkt_residual(inp, moved)
    assert residual.primal_eq < 1e-12 and residual.primal_ineq == 0.0
    assert residual.complementarity > 1e-4


def test_planning_does_not_call_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("planning called LAPACK")

    for name in ("svd", "lstsq", "cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(99)
    for _ in range(50):
        plan_of(random_input(rng))

    xi0 = (0.12, -0.02)
    program = step_program((0.0, 0.0), OMEGA, default_nominal(), default_bounds())
    plan = plan_step(xi0, program)
    elapsed = 0.0
    while plan.status != "terminal":
        elapsed += 0.02
        plan = replan(plan, xi0, program, elapsed)


def test_input_validation():
    with pytest.raises(ValueError):
        NominalGait([0.0, 0.0], [0.0, 0.0], -0.5, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        NominalGait([0.0, 0.0], [0.0, 0.0], 0.5, (1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="^cop_T_nom must be a number or a regular array of numbers"):
        NominalGait((10**400, 0.0), (0.0, 0.0), 0.5, (1.0, 1.0, 1.0))  # past float's range
    # The planner's checked inputs: the step program's stance CoP and omega,
    # and the DCM a plan starts from.
    program = step_program((0.0, 0.0), OMEGA, default_nominal(), default_bounds())
    with pytest.raises(ValueError, match="^xi0 must have exactly 2 components"):
        plan_step((0.1,), program)
    with pytest.raises(ValueError, match="^xi0 must be finite"):
        plan_step((0.1, math.inf), program)
    with pytest.raises(ValueError, match="^omega must be positive"):
        step_program((0.0, 0.0), 0.0, default_nominal(), default_bounds())
    with pytest.raises(ValueError, match="^cop0 must have exactly 2 components"):
        step_program((0.0,), OMEGA, default_nominal(), default_bounds())
    with pytest.raises(ValueError, match="^cop0 must be finite"):
        step_program((math.nan, 0.0), OMEGA, default_nominal(), default_bounds())


@pytest.mark.parametrize("T_min, T_max, message", [
    (0.0, 0.3, "T_min must be positive, got 0.0"),
    (-0.5, -0.1, "T_min must be positive, got -0.5"),
    (0.1, 0.0, "T_max must be positive, got 0.0"),
    (0.1, -0.1, "T_max must be positive, got -0.1"),
    (math.nan, 0.3, "T_min must be finite, got nan"),
    (0.1, math.inf, "T_max must be finite, got inf"),
])
def test_step_bounds_take_a_positive_duration_window(T_min, T_max, message):
    """A step time is positive: a zero or negative duration bound is
    refused when the bounds are built, not planned into a step of that
    duration; NaN and infinity keep their messages."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        StepBounds((-0.15, -0.3), (0.3, -0.04), T_min, T_max)


def test_in_flight_replan_is_plan_step_of_the_shrunk_program_bit_for_bit():
    """``replan`` equals a fresh solve bit for bit: an optimal replan is
    ``plan_step`` of the ``step_program`` built with the shrunk window's
    duration bounds, and a terminal one is the array formula of the
    frozen plan with its cost from ``planning_cost``."""
    rng = np.random.default_rng(5150)
    statuses = []
    for _ in range(200):
        inp = random_input(rng)
        program = step_program(inp.cop0, inp.omega, inp.nominal, inp.bounds)
        plan = plan_step(inp.xi0, program)
        for elapsed in sorted(rng.uniform(0.0, plan.landing_time + 0.05, 6).tolist()):
            cop0 = np.asarray(inp.cop0)
            xi = tuple((cop0 + (inp.xi0 - cop0) * rng.uniform(0.5, 3.0)).tolist())
            new = replan(plan, xi, program, elapsed)
            t_lo = max(REPLAN_FLOOR, inp.bounds.T_min - elapsed)
            t_hi = min(inp.bounds.T_max - elapsed, plan.landing_time - elapsed)
            if t_hi >= t_lo:
                window = replace(inp.bounds, T_min=t_lo, T_max=t_hi)
                shrunk = step_program(inp.cop0, inp.omega, inp.nominal, window)
                want = plan_step(xi, shrunk)._replace(planned_at=elapsed)
            else:
                remaining = max(plan.landing_time - elapsed, 0.0)
                sigma = math.exp(inp.omega * remaining)
                gamma_T = cop0 - plan.cop_T + (np.asarray(xi) - cop0) * sigma
                s_min, s_max = inp.bounds.sigma_bounds(inp.omega)
                box = inp.bounds.shift(inp.cop0)
                lo, hi = box.cop_min, box.cop_max
                on = (plan.cop_T[0] == hi[0], plan.cop_T[1] == hi[1], plan.cop_T[0] == lo[0],
                      plan.cop_T[1] == lo[1], sigma == s_max, sigma == s_min)
                want = plan._replace(
                    gamma_T=gamma_T, sigma=sigma, duration=remaining,
                    objective=planning_cost(inp._replace(xi0=xi), plan.cop_T, sigma, gamma_T),
                    status="terminal", active_set=tuple(i for i, b in enumerate(on) if b),
                    planned_at=elapsed)
            assert np.asarray(new.cop_T).tobytes() == np.asarray(want.cop_T).tobytes()
            assert np.asarray(new.gamma_T).tobytes() == np.asarray(want.gamma_T).tobytes()
            for name in ("sigma", "duration", "objective", "status", "active_set", "planned_at"):
                assert getattr(new, name) == getattr(want, name), name
            statuses.append(new.status)
            if new.status == "terminal":
                break
            plan = new
    assert statuses.count("terminal") > 50 and statuses.count("optimal") > 300


@pytest.mark.parametrize("xi0", [(1e300, 0.0), (1e308, 0.0), (0.0, -1e300)])
def test_a_plan_that_overflows_is_an_error_naming_the_state(xi0):
    """At 1e300 the objective overflows, at 1e308 gamma_T as well; either
    plan would read as optimal, so plan_step raises and names its input."""
    program = step_program((0.0, 0.0), OMEGA, default_nominal(), default_bounds())
    with pytest.raises(ValueError, match=r"xi0=.*cop0=.*not finite"):
        plan_step(xi0, program)
    # The largest state the bench inputs come near still plans.
    assert math.isfinite(plan_step((1e3, 0.0), program).objective)


@pytest.mark.parametrize("field", ["T_max", "T_nom"])
def test_a_step_time_whose_exp_overflows_is_a_plan_error(field):
    """exp(omega * 300) overflows; step_program names the step time that
    leaves the float range in a ValueError, as plan_step names a state past
    it, not an OverflowError."""
    nominal, bounds = default_nominal(), default_bounds()
    if field == "T_max":
        bounds = replace(bounds, T_max=300.0)
    else:
        nominal = replace(nominal, T_nom=300.0)
    with pytest.raises(ValueError, match=rf"^exp\(omega\*T\) leaves the float range .*{field}=300.0"):
        step_program((0.0, 0.0), OMEGA, nominal, bounds)
