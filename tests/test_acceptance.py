"""Acceptance gate: one test per release criterion, one printed line each.

Every test funnels through :func:`report`, which prints a single
``criterion NN PASS/FAIL`` line and records it for the terminal summary,
so the verdicts survive pytest's capture.  The assertions gate on the
same booleans the lines report, so a FAIL line and a red test always
agree.
"""

import math
import sys
import time

import numpy as np

from exorecover import (
    LegGeometry,
    NominalGait,
    PlannerInfeasibleError,
    PushEvent,
    ScenarioConfig,
    Side,
    StepBounds,
    StepPlan,
    WorkspaceError,
    build_swing,
    forward_kinematics,
    impedance_torque,
    inverse_kinematics,
    natural_frequency,
    plan_step,
    run_scenario,
    step_lipm,
    step_program,
    summarize,
)
from exorecover import cli
from exorecover.impedance import RAD_PER_DEG
from exorecover.simulation import Controller
import acceptance_report
from oracle_utils import (
    PlanningCase,
    brute_force_plan,
    dcm_closed_form,
    evaluate,
    nominal_consistent_dcm,
    plan_kkt_residual,
    plan_of,
)

MASS = 70.0
OMEGA = math.sqrt(9.81 / 0.88)
DEFAULT = ScenarioConfig()


def report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    """Print one verdict line for a criterion and hand back its truth."""
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status}: {label}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    acceptance_report.record(line)
    return ok


def push_for_excursion(exc_x, exc_y, t=0.5):
    return PushEvent(t, [exc_x * MASS * OMEGA, exc_y * MASS * OMEGA])


def events_of(trace, kind):
    return [e for e in trace.events if e.kind == kind]


def random_planner_input(rng: np.random.Generator) -> PlanningCase:
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


def default_nominal() -> NominalGait:
    return NominalGait(
        cop_T_nom=np.array([0.0, -0.2]),
        gamma_nom=np.zeros(2),
        T_nom=0.5,
        weights=(1.0, 5.0, 0.02),
    )


def default_bounds() -> StepBounds:
    return StepBounds(
        cop_min=np.array([-0.15, -0.30]),
        cop_max=np.array([0.30, -0.04]),
        T_min=0.25,
        T_max=1.2,
    )


def plan_with_weights(weights) -> StepPlan:
    nominal = default_nominal()
    nominal = NominalGait(
        cop_T_nom=nominal.cop_T_nom,
        gamma_nom=nominal.gamma_nom,
        T_nom=nominal.T_nom,
        weights=tuple(float(w) for w in weights),
    )
    return plan_step((0.08, 0.0), step_program((0.0, 0.0), OMEGA, nominal, default_bounds()))


def step_length(plan: StepPlan) -> float:
    return float(np.linalg.norm(np.subtract(plan.cop_T, default_nominal().cop_T_nom)))


def test_criterion_01_dcm_integration_matches_closed_form():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        omega = float(rng.uniform(2.0, 4.0))
        w = natural_frequency(omega * omega, 1.0)
        com, vel = rng.uniform(-0.2, 0.2, 2), rng.uniform(-0.5, 0.5, 2)
        cop = rng.uniform(-0.1, 0.1, 2)
        xi0 = com + vel / w
        for _ in range(1000):
            com, vel = map(np.array, step_lipm(com, vel, cop, w, 1e-3))
        ref = dcm_closed_form(xi0, cop, w, 1.0)
        worst = max(worst, float(np.abs(com + vel / w - ref).max()))
    wall = time.perf_counter() - start
    ok = worst <= 1e-6 and wall < 1.0
    assert report(
        1,
        "1 kHz pendulum integration tracks the closed-form DCM over 1 s",
        ok,
        f"max error {worst:.3e} m, {wall:.2f} s",
    )


def test_criterion_02_random_plans_carry_kkt_certificates():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    worst_kkt = 0.0
    worst_gap = 0.0
    solved = 0
    while solved < 100:
        inp = random_planner_input(rng)
        try:
            plan = plan_of(inp)
        except PlannerInfeasibleError:
            continue
        worst_kkt = max(worst_kkt, float(plan_kkt_residual(inp, plan).max()))
        _, _, objective_ref = brute_force_plan(inp)
        worst_gap = max(worst_gap, abs(plan.objective - objective_ref))
        solved += 1
    wall = time.perf_counter() - start
    ok = worst_kkt <= 1e-8 and worst_gap <= 1e-6 and wall < 10.0
    assert report(
        2,
        "100 random step plans satisfy KKT and match a grid oracle",
        ok,
        f"max KKT {worst_kkt:.2e}, max objective gap {worst_gap:.2e}, {wall:.2f} s",
    )


def test_criterion_03_nominal_gait_is_a_planner_fixed_point():
    nominal = default_nominal()
    cop0 = (0.0, 0.0)
    xi0 = nominal_consistent_dcm(nominal, cop0, OMEGA)
    plan = plan_step(xi0, step_program(cop0, OMEGA, nominal, default_bounds()))
    drift = max(
        float(np.abs(np.subtract(plan.cop_T, nominal.cop_T_nom)).max()),
        float(np.abs(np.subtract(plan.gamma_T, nominal.gamma_nom)).max()),
        abs(plan.duration - nominal.T_nom),
    )
    ok = plan.objective <= 1e-12 and plan.status == "optimal"
    assert report(
        3,
        "the nominal gait state replans to itself with zero cost",
        ok,
        f"objective {plan.objective:.2e}, worst drift {drift:.2e}",
    )


def test_criterion_04_weights_trade_step_length_against_timing():
    relaxed = plan_with_weights((1.0, 5.0, 0.02))
    position_held = plan_with_weights((10.0, 5.0, 0.02))
    conservative = plan_with_weights((50.0, 5.0, 2.0))
    triples = (relaxed, position_held, conservative)
    lengths = [step_length(p) for p in triples]
    durations = [p.duration for p in triples]
    shortest_is_conservative = lengths[2] == min(lengths)
    longest_hold_is_conservative = durations[2] == max(durations)

    ramp_lengths = [step_length(plan_with_weights((a1, 5.0, 0.02)))
                    for a1 in (1.0, 10.0, 100.0, 1000.0)]
    length_monotone = all(b < a for a, b in zip(ramp_lengths, ramp_lengths[1:]))

    ramp_timing = [abs(plan_with_weights((1.0, 5.0, a3)).duration - 0.5)
                   for a3 in (0.02, 0.2, 2.0, 20.0)]
    timing_monotone = all(b < a for a, b in zip(ramp_timing, ramp_timing[1:]))

    ok = (
        shortest_is_conservative
        and longest_hold_is_conservative
        and length_monotone
        and timing_monotone
    )
    assert report(
        4,
        "heavier weights shrink the step and pin the timing monotonically",
        ok,
        f"lengths {', '.join(f'{v:.3f}' for v in lengths)} m; "
        f"durations {', '.join(f'{v:.3f}' for v in durations)} s",
    )


def test_criterion_05_leg_roundtrips_and_rejection_diagnostics():
    rng = np.random.default_rng(3021)
    worst = 0.0
    for geom in (DEFAULT.leg_geometry(Side.LEFT), DEFAULT.leg_geometry(Side.RIGHT)):
        for _ in range(500):
            ang = np.array([
                float(rng.uniform(-0.3, 0.3)),
                float(rng.uniform(-0.3, 1.4)),
                float(rng.uniform(0.05, 2.0)),
            ])
            target = np.array(forward_kinematics(ang, geom))
            back = np.array(inverse_kinematics(target, geom, limits=None))
            worst = max(worst, float(np.abs(back - ang).max()))
            again = np.array(forward_kinematics(back, geom))
            worst = max(worst, float(np.abs(again - target).max()))
    roundtrip_ok = worst <= 1e-9

    left = DEFAULT.leg_geometry(Side.LEFT)
    probes_ok = True
    try:
        inverse_kinematics([0.0, 0.04, -0.95], left, DEFAULT.joint_limits())
        probes_ok = False
    except WorkspaceError as err:
        probes_ok &= "full knee extension" in str(err) and err.diagnostic is not None
    try:
        stubby = LegGeometry(DEFAULT.l0, DEFAULT.l1, 0.5, 0.3, Side.LEFT)
        inverse_kinematics([0.0, 0.04, -0.1], stubby, limits=None)
        probes_ok = False
    except WorkspaceError as err:
        probes_ok &= "knee fold" in str(err) and err.diagnostic is not None
    try:
        inverse_kinematics([0.2, 0.0, 0.0], left, limits=None)
        probes_ok = False
    except WorkspaceError as err:
        probes_ok &= "hip offset" in str(err) and err.diagnostic is not None

    ok = roundtrip_ok and probes_ok
    assert report(
        5,
        "1000 leg roundtrips close to 1e-9 and bad targets name their reason",
        ok,
        f"max roundtrip error {worst:.2e}",
    )


def test_criterion_06_swing_profile_meets_all_nine_boundary_conditions():
    worst = 0.0
    for T in (0.4, 0.8, 1.0):
        plan = StepPlan(
            cop_T=np.array([0.25, -0.18]),
            gamma_T=np.zeros(2),
            sigma=math.exp(OMEGA * T),
            duration=T,
            objective=0.0,
            status="optimal",
            active_set=(),
            planned_at=0.0,
        )
        traj = build_swing(np.array([0.0, -0.2, 0.0]), plan, DEFAULT.peak_height,
                           DEFAULT.peak_fraction)
        up, down = traj.z_profile
        t_apex = 0.4 * T
        checks = [
            (evaluate(up, 0.0), (0.0, 0.0, 0.0)),
            (evaluate(up, t_apex), (0.07, 0.0, 0.0)),
            (evaluate(down, T), (0.0, 0.0, 0.0)),
        ]
        for got, want in checks:
            for g, w in zip(got, want):
                worst = max(worst, abs(g - w))
        pos, vel, _ = evaluate(down, t_apex)
        worst = max(worst, abs(pos - 0.07), abs(vel))
    ok = worst <= 1e-10
    assert report(
        6,
        "apex at 0.4 T reaches 0.07 m with zero velocity for three durations",
        ok,
        f"worst boundary residual {worst:.2e}",
    )


def test_criterion_07_assist_torque_is_exact_per_degree():
    """Assist: the controller's gains, converted from the per-degree ones.
    Passive: a zero-torque step applies ``+0.0`` on every joint of every
    swing tick, compared as ``int64`` bits."""
    controller = Controller(DEFAULT, [], DEFAULT.standing_pose())
    one_degree = np.array([RAD_PER_DEG, RAD_PER_DEG, RAD_PER_DEG])
    assist = impedance_torque(
        one_degree, np.zeros(3), np.zeros(3), controller.stiffness, controller.damping
    )
    trace = run_scenario(ScenarioConfig(mode="zero_torque", pushes=(push_for_excursion(0.12, 0.0),),
                                        duration=1.5))
    swing = np.array([phase == "Swing" for phase in trace.phase])
    passive = np.ascontiguousarray(trace.torque[swing])
    passive_zero = bool(swing.any()) and not passive.view(np.int64).any()
    ok = list(assist) == [1.5, 0.4, 0.4] and passive_zero
    assert report(
        7,
        "one degree of error commands exactly [1.5, 0.4, 0.4] N*m, none when passive",
        ok,
        f"assist {list(assist)}, passive {'+0.0' if passive_zero else 'not +0.0'} "
        f"on {int(swing.sum())} swing ticks",
    )


def test_criterion_08_forward_push_recovers_in_one_step():
    config = ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),))
    start = time.perf_counter()
    trace = run_scenario(config)
    wall = time.perf_counter() - start
    summary = summarize(trace)
    single_step = len(events_of(trace, "TouchDown")) == 1 and summary.num_steps == 1
    k_td = int(round(summary.touchdown_time / trace.config.dt))
    offsets = np.linalg.norm(trace.xi - trace.cop, axis=1)
    below = np.nonzero(offsets[k_td:] < 0.02)[0]
    settle = float(below[0]) * trace.config.dt if below.size else math.inf
    settled = (
        summary.captured
        and not summary.aborted
        and settle <= 0.5
        and summary.final_dcm_offset < 0.02
    )

    again = run_scenario(config)
    deterministic = all(
        np.array_equal(getattr(trace, name), getattr(again, name))
        for name in ("t", "com", "com_vel", "xi", "cop", "foot",
                     "joint_desired", "joint_measured", "torque")
    ) and trace.phase == again.phase

    ok = single_step and settled and deterministic and wall < 2.0
    assert report(
        8,
        "a 0.12 m DCM push is captured in one deterministic step",
        ok,
        f"touchdown {summary.touchdown_time:.3f} s, offset < 0.02 m after "
        f"{settle:.3f} s, final {summary.final_dcm_offset:.1e} m, {wall:.2f} s",
    )


def test_criterion_09_mid_swing_push_retargets_toward_the_push():
    push_time = 0.62
    shifts = {}
    monotone = True
    replanned_after_push = True
    for sign in (1.0, -1.0):
        config = ScenarioConfig(
            pushes=(
                push_for_excursion(0.12, 0.0),
                push_for_excursion(0.0, sign * 0.06, t=push_time),
            )
        )
        trace = run_scenario(config)
        replans = events_of(trace, "Replanned")
        replanned_after_push &= any(e.time >= push_time for e in replans)
        remaining = [e.payload["remaining"] for e in replans]
        monotone &= all(b <= a + 1e-12 for a, b in zip(remaining, remaining[1:]))
        td = events_of(trace, "TouchDown")[0]
        shifts[sign] = td.payload["landed"][1] - td.payload["initial_planned"][1]
    ok = (
        replanned_after_push
        and monotone
        and shifts[1.0] > 1e-3
        and shifts[-1.0] < -1e-3
    )
    assert report(
        9,
        "a mid-swing shove moves the landing toward the push on both sides",
        ok,
        f"shift +{shifts[1.0]:.3f} m / {shifts[-1.0]:.3f} m",
    )


def test_criterion_10_cli_rerun_is_byte_identical(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "lipm.mass = 70\n"
        "sim.duration = 1.5\n"
        "push.0.time = 0.3\n"
        "push.0.impulse = 28.05, 0\n"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_a)])
    rc_b = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_b)])
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("trace.csv", "events.csv", "summary.txt")
    )
    rows = (out_a / "trace.csv").read_text().strip().splitlines()
    ok = rc_a == 0 and rc_b == 0 and identical and len(rows) == 1501
    assert report(
        10,
        "two CLI runs of one scenario write byte-identical artifacts",
        ok,
        f"exit codes {rc_a}/{rc_b}, {len(rows) - 1} trace rows",
    )
