"""Closed-loop scenario tests: measurement, phase flow, recovery outcomes."""

import dataclasses
import itertools
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from exorecover import (
    ConfigurationError,
    Event,
    HumanPulse,
    PushEvent,
    ScenarioConfig,
    SimTrace,
    estimate_com,
    run_scenario,
    summarize,
)
from exorecover import cli
from exorecover.detector import TRANSITIONS
from exorecover.simulation import Controller, Plant

from oracle_utils import ellipse_excursion
from test_run_loop import CASES as RUN_LOOP_CASES, reference_run

MASS = 70.0
OMEGA = math.sqrt(9.81 / 0.88)  # default scenario pendulum frequency


def push_for_excursion(exc_x, exc_y, t=0.5):
    """Impulse that shifts the default wearer's DCM by (exc_x, exc_y)."""
    return PushEvent(t, [exc_x * MASS * OMEGA, exc_y * MASS * OMEGA])


def events_of(trace, kind):
    return [e for e in trace.events if e.kind == kind]


# --------------------------------------------------------------------------
# measurement pathway and small helpers


def test_estimate_com_inverts_the_attitude_pathway():
    L = 0.88
    rng = np.random.default_rng(411)
    for _ in range(200):
        com = rng.uniform(-0.8, 0.8, size=2) * L
        back = estimate_com(math.asin(com[1] / L), math.asin(com[0] / L), L)
        assert np.allclose(back, com, rtol=0.0, atol=1e-12)

    flat = estimate_com(0.0, 0.0, L)
    assert flat[0] == 0.0 and flat[1] == 0.0
    tilted = estimate_com(0.0, 0.1, L)
    assert tilted[0] == pytest.approx(L * math.sin(0.1), abs=1e-15)
    assert tilted[1] == 0.0


def is_pair(value) -> bool:
    return type(value) is tuple and len(value) == 2 and all(type(v) is float for v in value)


def test_planar_vectors_are_float_pairs():
    """Every planar vector the package stores or returns is an ``(x, y)`` pair
    of Python floats, whatever sequence it was built from."""
    from exorecover import (BalanceDetector, apply_impulse, mirror_bounds,
                            mirror_gait, plan_step, replan, step_program)

    config = ScenarioConfig()
    # A left swing's gait and bounds, as the controller builds them.
    nominal, bounds = mirror_gait(config.nominal_gait()), mirror_bounds(config.step_bounds())
    program = step_program(np.array([0.0, 0.1]), config.omega, nominal, bounds)
    plan = plan_step(np.array([0.08, 0.02]), program)
    optimal = replan(plan, (0.09, 0.02), program, 0.05)
    terminal = replan(plan, (0.09, 0.02), program, 10.0)
    assert (optimal.status, terminal.status) == ("optimal", "terminal")
    detector = BalanceDetector(np.zeros(2), 0.05, 0.05, 1, config.capture_tolerance,
                               config.capture_hold)
    assert type(detector.update(np.array([0.1, 0.0]), 0.0)) is float
    center = (detector._cx, detector._cy)  # the sway region's centre, held as two numbers
    values = [
        nominal.cop_T_nom, nominal.gamma_nom, bounds.cop_min, bounds.cop_max, program.cop0,
        program.cop_min, program.cop_max, program.cop_nom,
        *(p.cop_T for p in (plan, optimal, terminal)),
        *(p.gamma_T for p in (plan, optimal, terminal)),
        *(p.xi_T for p in (plan, optimal, terminal)),
        PushEvent(0.5, np.array([20.0, 0.0])).impulse, center,
        apply_impulse(np.zeros(2), np.array([20.0, 0.0]), config.mass),
        mirror_gait(nominal).cop_T_nom, mirror_gait(nominal).gamma_nom,
        mirror_bounds(bounds).cop_min, mirror_bounds(bounds).cop_max,
        bounds.shift(np.array([0.1, 0.0])).cop_min, bounds.shift(np.array([0.1, 0.0])).cop_max,
    ]
    assert [i for i, v in enumerate(values) if not is_pair(v)] == []


def test_push_event_and_human_pulse_validation():
    PushEvent(0.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        PushEvent(-0.1, [1.0, 0.0])
    with pytest.raises(ValueError):
        PushEvent(0.5, [1.0, 0.0, 0.0])

    HumanPulse(joint=2, start=0.1, end=0.2, torque=-3.0)
    with pytest.raises(ValueError):
        HumanPulse(joint=3, start=0.1, end=0.2, torque=1.0)
    with pytest.raises(ValueError):
        HumanPulse(joint=0, start=0.2, end=0.2, torque=1.0)
    with pytest.raises(ValueError):
        HumanPulse(joint=0, start=-0.1, end=0.2, torque=1.0)
    for start, end, message in ((0.0, math.inf, "end must be finite, got inf"),
                                (math.inf, math.inf, "start must be finite, got inf"),
                                (math.nan, 0.2, "start must be finite, got nan"),
                                (0.1, math.nan, "end must be finite, got nan")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            HumanPulse(joint=0, start=start, end=end, torque=1.0)
    for joint in (1.0, True):
        with pytest.raises(ValueError, match=f"^joint must be 0, 1 or 2, got {joint}$"):
            HumanPulse(joint, 0, 0.02, 1.0)

    # A config built in Python may hold something other than the records;
    # validate names the field and the index rather than failing on an attribute.
    pulse = HumanPulse(joint=1, start=0.1, end=0.2, torque=1.0)
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(pushes=(PushEvent(0.2, (1.0, 0.0)), (0.5, (1.0, 0.0))),
                       human_pulses=((1, 0.1, 0.2, 1.0), pulse)).validate()
    assert str(err.value) == ("invalid scenario: pushes[1] must be a PushEvent, got (0.5, (1.0, 0.0)); "
                              "human_pulses[0] must be a HumanPulse, got (1, 0.1, 0.2, 1.0)")
    with pytest.raises(ConfigurationError, match=r"^invalid scenario: pushes\[0\] must be a PushEvent"):
        ScenarioConfig(pushes=((0.5, (1.0, 0.0)),), human_pulses=(pulse,)).validate()


def ankle_clamp(monkeypatch):
    """``clamp(xi, center, half)``: the CoP that one standing tick of
    ``run_scenario``'s stance loop commands for the measured DCM ``xi`` over
    the support box ``center +- half``, for the default wearer.  The
    attitude sensor is replaced by one that reads ``xi`` and the CoM is at
    rest with ``-0.0`` velocity, so the DCM estimate is ``xi`` bit for bit.
    The sway ellipse is too wide for any finite DCM to leave, and the
    debounce too long for a run of NaN samples (outside by the detector's
    rule) to fire, so the controller stays standing, and only the ankle
    clamp sets the CoP, which the tick logs and hands the controller."""
    from exorecover import simulation

    config = ScenarioConfig(ellipse_a=1e300, ellipse_b=1e300, debounce_cycles=10**9)
    plant = Plant(config, [], 1)
    controller = Controller(config, [], plant.q)
    row = np.zeros((1, 21))
    reading = [None]
    monkeypatch.setattr(simulation, "_sensed_com", lambda com, anchor, L, noise: reading[0])

    def clamp(xi, center, half):
        (cx, cy), (hx, hy) = map(float, center), map(float, half)
        controller.support_box = (cx - hx, cx + hx, cy - hy, cy + hy)
        reading[0] = tuple(map(float, xi))
        plant.com, plant.vel = (0.0, 0.0), (-0.0, -0.0)
        assert simulation._run_stance(plant, controller, 0, 1, memoryview(row).cast("B"), []) == (1, None)
        assert controller.detector.phase.value == "Standing"
        assert row[0, 7:9].tobytes() == np.array(controller.cop).tobytes()
        return controller.cop

    return clamp


def test_the_controllers_ankle_clamp_boxes_the_dcm(monkeypatch):
    clamp = ankle_clamp(monkeypatch)
    center = np.array([0.3, -0.1])
    half = np.array([0.10, 0.06])

    inside = np.array([0.35, -0.08])
    assert np.array_equal(clamp(inside, center, half), inside)

    far = clamp(np.array([0.9, -0.5]), center, half)
    assert np.array_equal(far, center + half * [1, -1])

    one_axis = clamp(np.array([0.05, -0.1]), center, half)
    assert np.array_equal(one_axis, [center[0] - half[0], -0.1])

    pinned = clamp(np.array([9.0, 9.0]), center, np.zeros(2))
    assert np.array_equal(pinned, center)


def test_the_controllers_ankle_clamp_is_np_clip_bit_for_bit(monkeypatch):
    """The controller's clamp returns np.clip's bits over random points, the
    box edges (a tie gives the bound), signed zeros, where ``min(max(x, lo),
    hi)`` would not, and a NaN, which np.clip passes through."""
    clamp = ankle_clamp(monkeypatch)

    def reference(xi, center, half):
        center, half = np.array(center), np.array(half)
        return np.clip(np.array(xi), center - half, center + half)

    def check(xi, center, half):
        out = clamp(xi, center, half)
        assert all(type(v) is float for v in out)
        assert np.array(out).tobytes() == reference(xi, center, half).tobytes(), (xi, center, half)

    rng = np.random.default_rng(53)
    for _ in range(2000):
        center = rng.uniform(-0.3, 0.3, 2).tolist()
        half = rng.uniform(0.0, 0.2, 2).tolist()
        check(rng.uniform(-0.6, 0.6, 2).tolist(), center, half)
        lo, hi = reference([-1.0, -1.0], center, half), reference([1.0, 1.0], center, half)
        check(lo.tolist(), center, half)
        check(hi.tolist(), center, half)
    signed = (0.0, -0.0, 0.1, -0.1)
    for x, y in itertools.product((*signed, math.nan), repeat=2):
        for cx, cy, hx in itertools.product(signed, repeat=3):
            for hy in (0.0, -0.0, 0.1):
                check([x, y], [cx, cy], [abs(hx), hy])
    assert repr(clamp([-0.0, math.nan], [0.0, 0.0], [0.0, 0.1])) == "(0.0, nan)"


def test_a_nan_dcm_estimate_ends_the_step_in_a_declared_abort():
    """A DCM estimate that turns NaN (here through a NaN CoM velocity) fires
    the detector in the stance loop's first tick, and ``plan_step``'s
    finite check ends the step in a ``StepAborted``."""
    from exorecover import simulation

    config = ScenarioConfig(debounce_cycles=1)
    events = []
    plant = Plant(config, events, 1)
    controller = Controller(config, events, plant.q)
    rest = (0.0, 0.0, 0.0)
    plant.vel = (math.nan, 0.0)
    k, command = simulation._run_stance(plant, controller, 0, 1, memoryview(np.zeros((1, 21))).cast("B"), [])
    assert k == 0 and math.isnan(events[0].payload["xi"][0])
    assert [event.kind for event in events] == ["BalanceLost", "StepAborted"]
    assert math.isnan(events[0].payload["excursion"])
    assert events[1].payload["reason"].startswith("plan_step: xi0 must be finite")
    assert controller.episode is None and command.torque == rest and command.lift is None


# --------------------------------------------------------------------------
# configuration


def test_config_validation_collects_every_error():
    cfg = ScenarioConfig(
        gravity=-9.81,
        mass=0.0,
        dt=0.02,
        torque_kp=-0.1,
        mode="hover",
        duration=3.0,
        seed=-1,  # the noise generator takes no negative seed
        attitude_noise_deg=0.1,
        pushes=(PushEvent(5.0, [1.0, 0.0]),),
    )
    with pytest.raises(ConfigurationError) as err:
        cfg.validate()
    msg = str(err.value)
    for fragment in ("gravity", "mass", "dt", "torque_kp", "mode", "seed must be an integer >= 0",
                     "push 0"):
        assert fragment in msg

    # Counts and the noise seed are integers: neither is rounded or left to fail mid-run.
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(seed=1.5, attitude_noise_deg=0.1, debounce_cycles=2.5).validate()
    assert str(err.value) == ("invalid scenario: debounce_cycles must be an integer >= 1, got 2.5; "
                              "seed must be an integer >= 0, got 1.5")
    # A bool is an Integral, but format_config would write it as `true`,
    # which parse_scenario rejects.
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(debounce_cycles=True, seed=False).validate()
    assert str(err.value) == ("invalid scenario: debounce_cycles must be an integer >= 1, got True; "
                              "seed must be an integer >= 0, got False")

    # The one-tick rule divides by dt, so it is skipped when dt is itself invalid.
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(dt=0.0, duration=0.0004).validate()
    assert str(err.value) == "invalid scenario: dt must be in (0, 0.01], got 0.0"


NUMERIC_FIELDS = [
    f for f in dataclasses.fields(ScenarioConfig) if "key" in f.metadata and f.name != "mode"
]


@pytest.mark.parametrize("name", [f.name for f in NUMERIC_FIELDS])
def test_config_rejects_non_finite_numbers(name):
    """Tuple fields are scanned as lists too: ``com0 = [nan, 0]`` is not
    left to fail the standing pose, nor a NaN ``cop_min`` to read as an
    inverted box.  The field's other checks are skipped, so that message
    is the only one."""
    default = getattr(ScenarioConfig(), name)
    for bad in (math.inf, -math.inf, math.nan):
        if isinstance(default, tuple):
            values = ((bad,) + default[1:], [bad, *default[1:]])
        else:
            values = (bad,)
        for value in values:
            with pytest.raises(ConfigurationError) as err:
                ScenarioConfig(**{name: value}).validate()
            assert str(err.value) == f"invalid scenario: {name} must be finite, got {value}"


@pytest.mark.parametrize("fields, message", [
    ({"cop_min": [math.nan, -0.3]}, "cop_min must be finite, got [nan, -0.3]"),
    ({"cop_min": (math.nan, -0.3)}, "cop_min must be finite, got (nan, -0.3)"),
    ({"cop_max": (0.3, math.nan)}, "cop_max must be finite, got (0.3, nan)"),
    ({"cop_min": (-math.inf, -0.3), "cop_max": (math.inf, math.nan)},
     "cop_min must be finite, got (-inf, -0.3); cop_max must be finite, got (inf, nan)"),
    ({"knee_limits_deg": (math.nan, 160.0)}, "knee_limits_deg must be finite, got (nan, 160.0)"),
    ({"hip_ab_limits_deg": (-30.0, math.nan)},
     "hip_ab_limits_deg must be finite, got (-30.0, nan)"),
    ({"weights": (1.0, math.nan, 0.02)}, "weights must be finite, got (1.0, nan, 0.02)"),
    # The skip is per field: the order checks of finite fields still report.
    ({"cop_min": (0.4, -0.3), "knee_limits_deg": (160.0, 5.0), "weights": (1.0, math.inf, 0.02)},
     "weights must be finite, got (1.0, inf, 0.02); "
     "knee_limits_deg must satisfy min < max, got (160.0, 5.0); "
     "cop_min (0.4, -0.3) must not exceed cop_max (0.3, -0.04)"),
])
def test_a_non_finite_bound_is_reported_once(fields, message):
    """A NaN fails every order or sign test, so without the skip a NaN bound
    would also read as an inverted box, limit pair or non-positive weight."""
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(**fields).validate()
    assert str(err.value) == f"invalid scenario: {message}"


@pytest.mark.parametrize("fields, message", [
    ({"gravity": math.nan}, "gravity must be finite, got nan"),
    ({"gravity": -math.inf}, "gravity must be finite, got -inf"),
    ({"ellipse_a": math.nan}, "ellipse_a must be finite, got nan"),
    ({"t_min": math.nan}, "t_min must be finite, got nan"),
    ({"t_max": math.inf}, "t_max must be finite, got inf"),
    ({"t_nom": math.inf}, "t_nom must be finite, got inf"),
    ({"dt": math.nan}, "dt must be finite, got nan"),
    ({"stiffness_deg": (1.5, math.nan, 0.4)}, "stiffness_deg must be finite, got (1.5, nan, 0.4)"),
    ({"damping": [0.0, 0.0, -math.inf]}, "damping must be finite, got [0.0, 0.0, -inf]"),
    ({"peak_fraction": math.inf}, "peak_fraction must be finite, got inf"),
    ({"debounce_cycles": math.nan}, "debounce_cycles must be finite, got nan"),
    ({"seed": -math.inf}, "seed must be finite, got -inf"),
    # A non-finite duration has no last tick to test a push or pulse against.
    ({"duration": math.nan, "pushes": (PushEvent(0.5, (1.0, 0.0)),),
      "human_pulses": (HumanPulse(0, 0.5, 0.6, 1.0),)}, "duration must be finite, got nan"),
    # The skip is per field: a finite field's checks still report.
    ({"gravity": math.nan, "ellipse_b": -0.05}, "gravity must be finite, got nan; ellipse_b must be positive, got -0.05"),
])
def test_a_non_finite_scalar_is_reported_once(fields, message):
    """A NaN fails every sign and range test, so without the skip the field
    would be reported as non-finite and again as out of range."""
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(**fields).validate()
    assert str(err.value) == f"invalid scenario: {message}"


#: Per ScenarioConfig field: a value its rule accepts, one it rejects, and
#: the rejection's message.
FIELD_RULES = [
    ("gravity", 9.0, 0.0, "gravity must be positive, got 0.0"),
    ("com_height", 0.85, -0.88, "com_height must be positive, got -0.88"),
    ("mass", 80, True, "mass must be positive, got True"),
    ("com0", (0.01, 0.0), (0.0, "x"), "com0 must be finite, got (0.0, 'x')"),
    ("vel0", (0.1, -0.1), [math.nan, 0.0], "vel0 must be finite, got [nan, 0.0]"),
    ("l0", 0.07, -0.06, "l0 must be positive, got -0.06"),
    ("l1", 0.05, 0.0, "l1 must be positive, got 0.0"),
    ("l2", 0.46, math.inf, "l2 must be finite, got inf"),
    ("l3", 0.44, None, "l3 must be positive, got None"),
    ("stance_width", 0.22, 0.0, "stance_width must be positive, got 0.0"),
    ("hip_ab_limits_deg", (-25.0, 25.0), (None, 20.0), "hip_ab_limits_deg must be finite, got (None, 20.0)"),
    ("hip_flex_limits_deg", (-10, 90), (False, 100.0), "hip_flex_limits_deg must be finite, got (False, 100.0)"),
    ("knee_limits_deg", (0.0, 110.0), (0.0, -math.inf), "knee_limits_deg must be finite, got (0.0, -inf)"),
    ("ellipse_a", 0.06, -0.05, "ellipse_a must be positive, got -0.05"),
    ("ellipse_b", 0.04, 0.0, "ellipse_b must be positive, got 0.0"),
    ("debounce_cycles", 3, 0, "debounce_cycles must be an integer >= 1, got 0"),
    ("capture_tolerance", 0.03, 0.0, "capture_tolerance must be positive, got 0.0"),
    ("capture_hold", 0.0, -0.2, "capture_hold must be >= 0, got -0.2"),
    ("chain_offset", 0.05, "0.04", "chain_offset must be positive, got '0.04'"),
    ("t_nom", 0.6, 0.0, "t_nom must be positive, got 0.0"),
    ("t_min", 0.2, -0.25, "t_min must be positive, got -0.25"),
    ("t_max", 1.0, 0.0, "t_max must be positive, got 0.0"),
    ("weights", (2.0, 5.0, 0.02), (1.0, 0.0, 0.02), "weights must be positive, got (1.0, 0.0, 0.02)"),
    ("cop_nom", (0.05, -0.2), (0.0, math.nan), "cop_nom must be finite, got (0.0, nan)"),
    ("gamma_nom", (0.01, 0.0), (True, 0.0), "gamma_nom must be finite, got (True, 0.0)"),
    ("cop_min", (-0.1, -0.3), (-math.inf, -0.3), "cop_min must be finite, got (-inf, -0.3)"),
    ("cop_max", (0.25, -0.05), ("0.3", -0.04), "cop_max must be finite, got ('0.3', -0.04)"),
    ("peak_height", 0.08, 0.0, "peak_height must be positive, got 0.0"),
    ("peak_fraction", 0.5, 1.0, "peak_fraction must be in (0, 1), got 1.0"),
    ("stiffness_deg", (1.0, 0.5, 0.5), (1.5, -0.4, 0.4), "stiffness_deg must be >= 0, got (1.5, -0.4, 0.4)"),
    ("damping", (0.1, 0.1, 0.1), (0.0, 0.0, -0.1), "damping must be >= 0, got (0.0, 0.0, -0.1)"),
    ("torque_kp", 0.0, -1.0, "torque_kp must be >= 0, got -1.0"),
    ("mode", "zero_torque", "Assist", "mode must be assist or zero_torque, got 'Assist'"),
    ("inertia", 0.06, 0.0, "inertia must be positive, got 0.0"),
    ("viscous_damping", 0.0, -0.5, "viscous_damping must be >= 0, got -0.5"),
    ("foot_half_x", 0.12, 0.0, "foot_half_x must be positive, got 0.0"),
    ("foot_half_y", 0.05, -0.06, "foot_half_y must be positive, got -0.06"),
    ("dt", 0.002, 0.02, "dt must be in (0, 0.01], got 0.02"),
    ("duration", 2.0, 0.0, "duration must be positive, got 0.0"),
    ("seed", 7, -1, "seed must be an integer >= 0, got -1"),
    ("attitude_noise_deg", 0.1, -0.1, "attitude_noise_deg must be >= 0, got -0.1"),
    ("pushes", (PushEvent(0.5, (1.0, 0.0)),), PushEvent(0.5, (1.0, 0.0)),
     "pushes must be a tuple or list of PushEvent records, got PushEvent(time=0.5, impulse=(1.0, 0.0))"),
    ("human_pulses", (HumanPulse(1, 0.1, 0.2, 1.0),), None,
     "human_pulses must be a tuple or list of HumanPulse records, got None"),
]


def test_the_rule_table_lists_every_field_once_in_field_order():
    assert [row[0] for row in FIELD_RULES] == [f.name for f in dataclasses.fields(ScenarioConfig)]


@pytest.mark.parametrize("fields, message", [
    ({"pushes": None}, "pushes must be a tuple or list of PushEvent records, got None"),
    ({"human_pulses": HumanPulse(1, 0.1, 0.2, 1.0), "duration": 0.0},
     "duration must be positive, got 0.0; human_pulses must be a tuple or list of HumanPulse records, "
     "got HumanPulse(joint=1, start=0.1, end=0.2, torque=1.0)"),
])
def test_a_record_field_that_is_no_sequence_is_named(fields, message):
    """``pushes`` and ``human_pulses`` that are not a tuple or list get a
    ConfigurationError naming the field, not a TypeError from ``len``, and
    the other fields are still reported (``FIELD_RULES`` has one row each)."""
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(**fields).validate()
    assert str(err.value) == f"invalid scenario: {message}"


@pytest.mark.parametrize("name, accepted, rejected, message", FIELD_RULES,
                         ids=[row[0] for row in FIELD_RULES])
def test_each_field_keeps_its_rule(tmp_path, name, accepted, rejected, message):
    """A value the rule accepts validates and its ``summary.txt`` text parses
    back to an equal config; a value it rejects gets the rule's message alone."""
    config = ScenarioConfig(**{name: accepted})
    config.validate()
    path = tmp_path / "config.txt"
    path.write_text(cli.format_config(config))
    assert cli.parse_scenario(path)[0] == config

    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(**{name: rejected}).validate()
    assert str(err.value) == f"invalid scenario: {message}"


def test_no_field_is_reported_twice():
    """With every field broken at once, each is reported once, by its own
    rule, in field order: no check across fields reads a broken field."""
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(**{name: rejected for name, _, rejected, _ in FIELD_RULES}).validate()
    assert str(err.value) == "invalid scenario: " + "; ".join(row[3] for row in FIELD_RULES)


@pytest.mark.parametrize("fields, message", [
    ({"gravity": (9.81,)}, "gravity must be a single value, got (9.81,)"),
    ({"mode": ["assist"]}, "mode must be a single value, got ['assist']"),
    ({"cop_min": (-0.1,)}, "cop_min must have 2 components, got (-0.1,)"),
    ({"knee_limits_deg": (0.0, 90.0, 120.0)}, "knee_limits_deg must have 2 components, got (0.0, 90.0, 120.0)"),
    ({"weights": ()}, "weights must have 3 components, got ()"),
])
def test_a_field_holds_what_its_default_holds(fields, message):
    """A rule tests each number of a value, so the count is checked apart:
    a one-element tuple is not a number, nor a short pair a pair."""
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(**fields).validate()
    assert str(err.value) == f"invalid scenario: {message}"


@pytest.mark.parametrize("name", [f.name for f in NUMERIC_FIELDS])
def test_no_numeric_field_takes_a_bool(tmp_path, name):
    """A bool passes ``isinstance(v, numbers.Real)``, but ``format_config``
    would write it as ``true``, which the scenario parser rejects."""
    default = getattr(ScenarioConfig(), name)
    value = (True, *default[1:]) if isinstance(default, tuple) else True
    words = next(f for f in NUMERIC_FIELDS if f.name == name).metadata["rule"].words
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(**{name: value}).validate()
    assert str(err.value) == f"invalid scenario: {name} must be {words}, got {value}"


def test_records_check_their_fields_with_the_shared_rules():
    """A non-finite push time or pulse bound is reported as such, not as out of range."""
    for time in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^push time must be finite, got {time}$"):
            PushEvent(time, (1.0, 0.0))
    for time in (-0.1, True):
        with pytest.raises(ValueError, match=f"^push time must be >= 0, got {time}$"):
            PushEvent(time, (1.0, 0.0))
    for fields, message in (({"torque": math.nan}, "torque must be finite, got nan"),
                            ({"start": -0.1}, r"start must be >= 0, got -0\.1"),
                            ({"end": 0.1}, r"need start < end, got \[0\.1, 0\.1\]"),
                            ({"joint": 2.0}, r"joint must be 0, 1 or 2, got 2\.0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            HumanPulse(**{"joint": 0, "start": 0.1, "end": 0.2, "torque": 1.0, **fields})


def test_config_helper_resolution():
    cfg = ScenarioConfig()
    assert cfg.resolved_stance_width() == pytest.approx(2 * (cfg.l0 + cfg.l1))
    assert ScenarioConfig(stance_width=0.3).resolved_stance_width() == 0.3

    assert cfg.omega == pytest.approx(OMEGA, abs=1e-15)

    gait = cfg.nominal_gait()
    assert np.array_equal(gait.cop_T_nom, cfg.cop_nom)
    assert np.array_equal(gait.gamma_nom, cfg.gamma_nom)
    assert gait.T_nom == cfg.t_nom
    assert tuple(gait.weights) == tuple(cfg.weights)

    bounds = cfg.step_bounds()
    assert np.array_equal(bounds.cop_min, cfg.cop_min)
    assert np.array_equal(bounds.cop_max, cfg.cop_max)
    assert (bounds.T_min, bounds.T_max) == (cfg.t_min, cfg.t_max)


# --------------------------------------------------------------------------
# quiet standing and sub-threshold pushes


def test_quiet_standing_stays_put():
    trace = run_scenario(ScenarioConfig(duration=0.5))
    n = round(0.5 / 0.001)
    assert trace.t.shape == (n,)
    assert trace.events == []
    assert set(trace.phase) == {"Standing"}
    assert float(np.max(np.abs(trace.com))) == 0.0
    assert float(np.max(np.abs(trace.xi))) == 0.0
    assert float(np.max(np.abs(trace.cop))) == 0.0
    assert float(np.max(np.abs(trace.torque))) == 0.0


def test_small_push_held_by_ankle_strategy():
    # A 0.04 m DCM excursion stays inside the 0.05 m sway ellipse; the
    # standing CoP regulation pins it without a step.
    trace = run_scenario(
        ScenarioConfig(pushes=(push_for_excursion(0.04, 0.0, t=0.2),), duration=1.5)
    )
    assert [e.kind for e in trace.events] == ["PushApplied"]
    assert set(trace.phase) == {"Standing"}
    assert float(np.max(np.abs(trace.xi[:, 0]))) < 0.05
    # After the push the clamp holds the DCM where it stopped.
    assert float(np.max(np.abs(trace.xi[300:, 0] - trace.xi[300, 0]))) < 1e-9
    summary = summarize(trace)
    assert not summary.step_taken and summary.num_steps == 0


def test_summary_scalars_are_float_sums():
    """final_dcm_offset and the landing angle equal the Python-float formulas
    bit for bit, so summary.txt does not depend on the BLAS build."""
    rng = np.random.default_rng(29)
    config = ScenarioConfig()
    for _ in range(2000):
        xi, cop, start, planned, landed = rng.uniform(-0.4, 0.4, size=(5, 2)).tolist()
        events = [
            Event(0.5, "PlanIssued", {"swing": "right"}),
            Event(0.8, "TouchDown", {"swing_start": start, "initial_planned": planned,
                                     "landed": landed, "trigger_time": 0.5}),
        ]
        log = np.zeros((1, 21))
        log[0, 5:9] = xi + cop  # the DCM and CoP columns
        trace = SimTrace(log=log, phase=["Landed"], events=events, config=config)
        summary = summarize(trace)

        dx, dy = xi[0] - cop[0], xi[1] - cop[1]
        assert summary.final_dcm_offset == math.sqrt(dx * dx + dy * dy)
        vx, vy = planned[0] - start[0], planned[1] - start[1]
        wx, wy = landed[0] - start[0], landed[1] - start[1]
        assert summary.planned_vs_landed_angle_deg == math.degrees(
            math.atan2(vx * wy - vy * wx, vx * wx + vy * wy))


# --------------------------------------------------------------------------
# single forward step


def forward_push_trace():
    return run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),)))


def test_forward_push_recovers_in_one_step():
    trace = forward_push_trace()
    summary = summarize(trace)

    assert summary.step_taken and summary.num_steps == 1
    assert summary.captured and not summary.aborted
    assert summary.swing_side == "right"
    assert summary.trigger_time == pytest.approx(0.501, abs=1e-12)
    assert 0.7 < summary.touchdown_time < 0.95
    assert summary.capture_time - summary.touchdown_time <= 0.5
    assert summary.step_duration == pytest.approx(
        summary.touchdown_time - summary.trigger_time, abs=1e-12
    )

    kinds = [e.kind for e in trace.events]
    assert kinds[0] == "PushApplied"
    assert kinds[1] == "BalanceLost"
    assert kinds[2] == "PlanIssued"
    assert kinds[-2] == "TouchDown"
    assert kinds[-1] == "Captured"
    assert set(kinds[3:-2]) <= {"Replanned"}

    # After touchdown the CoP lives inside the landed foot's rectangle.
    landed = np.asarray(events_of(trace, "TouchDown")[0].payload["landed"])
    k_td = int(round(summary.touchdown_time / trace.config.dt))
    for k in range(k_td + 1, len(trace.t)):
        if trace.phase[k] != "Landed":
            break
        assert abs(trace.cop[k, 0] - landed[0]) <= trace.config.foot_half_x + 1e-12
        assert abs(trace.cop[k, 1] - landed[1]) <= trace.config.foot_half_y + 1e-12

    assert summary.final_dcm_offset < 1e-8
    assert trace.phase[-1] == "Standing"


def test_a_second_push_after_capture_trips_the_ellipse_about_the_new_stance():
    """The Captured re-arm centres the sway ellipse on the CoP it captured
    with: the DCM rests there, far outside the first ellipse, without a
    trigger, and a second push's BalanceLost reports the excursion about
    that point, which the reference formula gives bit for bit."""
    config = ScenarioConfig(duration=1.6, pushes=(push_for_excursion(0.12, 0.0),
                                                  push_for_excursion(0.08, 0.0, t=1.5)))
    trace = run_scenario(config)
    (captured,) = events_of(trace, "Captured")
    first, second = events_of(trace, "BalanceLost")
    assert first.time < captured.time < 1.5 < second.time
    assert second.time == pytest.approx(1.501, abs=1e-12)  # the debounce's second sample

    a, b = config.ellipse_a, config.ellipse_b
    xi = second.payload["xi"]
    assert second.payload["excursion"] == ellipse_excursion(xi, captured.payload["cop"], a, b)
    assert second.payload["excursion"] == pytest.approx((0.08 / a) ** 2, rel=1e-9)
    # About the first ellipse the captured DCM itself is far outside.
    assert ellipse_excursion(captured.payload["xi"], (0.0, 0.0), a, b) > 40.0


#: The runs whose phase sequences are checked against the table: the
#: ROADMAP's four named pushes, a hip-flexion limit that aborts the step
#: and a zero-torque swing moved by a wearer pulse, each 3 s long.
PHASE_RUNS = {
    "forward": dict(pushes=(push_for_excursion(0.12, 0.0),)),
    "lateral": dict(pushes=(push_for_excursion(0.0, 0.12),)),
    "midswing": dict(pushes=(push_for_excursion(0.12, 0.0),
                             push_for_excursion(0.0, 0.06, t=0.62))),
    "noisy": dict(pushes=(push_for_excursion(0.12, 0.0),), attitude_noise_deg=0.2),
    "joint_limit_abort": dict(pushes=(push_for_excursion(0.12, 0.0),),
                              hip_flex_limits_deg=(-20.0, 15.0)),
    "zero_torque_pulse": dict(pushes=(push_for_excursion(0.12, 0.0),), mode="zero_torque",
                              human_pulses=(HumanPulse(1, 0.55, 0.65, 1.5),)),
}


def test_phase_sequence_follows_the_machine():
    """Every change between consecutive logged phases is a move of the table."""
    legal = {(a.value, b.value) for a, targets in TRANSITIONS.items() for b in targets}
    seen = set()
    for name, fields in PHASE_RUNS.items():
        trace = run_scenario(ScenarioConfig(duration=3.0, **fields))
        moves = {(a, b) for a, b in zip(trace.phase, trace.phase[1:]) if a != b}
        assert moves <= legal, name
        seen |= moves
        if name == "forward":
            # The full cycle actually happened.
            assert moves == legal - {("Landed", "SteppingPlanned")}
        if name == "joint_limit_abort":
            # The aborted step leaves the machine in flight to the end.
            assert summarize(trace).aborted and trace.phase[-1] == "Swing"
    # The lateral push chains a second step, so every move of the table is made.
    assert seen == legal


def test_event_payloads_serialize_to_json():
    trace = run_scenario(
        ScenarioConfig(
            pushes=(push_for_excursion(0.12, 0.0), push_for_excursion(0.0, 0.06, t=0.62)),
        )
    )
    for event in trace.events:
        rebuilt = json.loads(json.dumps(event.payload, sort_keys=True))
        assert set(rebuilt) == set(event.payload)


# --------------------------------------------------------------------------
# lateral pushes


def test_swing_side_matches_fall_side():
    # Falling to one side loads that leg; the opposite leg swings.
    left_fall = summarize(run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.0, 0.07),))))
    right_fall = summarize(run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.0, -0.07),))))

    assert left_fall.swing_side == "right"
    assert right_fall.swing_side == "left"
    assert left_fall.captured and right_fall.captured
    assert left_fall.num_steps == 1 and right_fall.num_steps == 1
    # The swing foot starts from its own home position.
    assert left_fall.swing_start == pytest.approx((0.0, -0.1), abs=1e-12)
    assert right_fall.swing_start == pytest.approx((0.0, 0.1), abs=1e-12)


def test_lateral_recovery_mirrors_exactly():
    plus = run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.0, 0.07),)))
    minus = run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.0, -0.07),)))
    flip = np.array([1.0, -1.0])

    assert np.array_equal(plus.com, minus.com * flip)
    assert np.array_equal(plus.xi, minus.xi * flip)
    assert np.array_equal(plus.cop, minus.cop * flip)
    # Abduction-positive joints and their torques are side-symmetric.
    assert np.array_equal(plus.joint_measured, minus.joint_measured)
    assert np.array_equal(plus.torque, minus.torque)
    assert plus.phase == minus.phase
    # The commanded foot mirrors once the step is under way.
    k_trig = int(round(summarize(plus).trigger_time / plus.config.dt))
    assert np.array_equal(
        plus.foot[k_trig:], minus.foot[k_trig:] * np.array([1.0, -1.0, 1.0])
    )


# --------------------------------------------------------------------------
# mid-swing replanning


def test_push_during_swing_triggers_material_replans():
    first = push_for_excursion(0.12, 0.0)
    nudge = push_for_excursion(0.0, 0.06, t=0.62)

    ref = run_scenario(ScenarioConfig(pushes=(first,)))
    bumped = run_scenario(ScenarioConfig(pushes=(first, nudge)))

    replans = events_of(bumped, "Replanned")
    assert any(e.time >= 0.62 for e in replans)
    remaining = [e.payload["remaining"] for e in replans]
    assert all(b <= a + 1e-12 for a, b in zip(remaining, remaining[1:]))

    td = events_of(bumped, "TouchDown")[0]
    shift = td.payload["landed"][1] - td.payload["initial_planned"][1]
    assert shift > 0.05  # landing moved toward the second push

    bumped_angle = summarize(bumped).planned_vs_landed_angle_deg
    ref_angle = summarize(ref).planned_vs_landed_angle_deg
    assert bumped_angle > ref_angle + 5.0


def test_every_in_flight_replan_solves_its_own_steps_program(monkeypatch):
    """The step's fixed terms, built once at its trigger, cannot go stale.

    Over the lateral push, whose chained second step swings the other leg
    from the foot that just landed, and the mid-swing shove, every in-flight
    ``replan`` equals, field by field by ``repr`` apart from ``planned_at``,
    ``plan_step`` of the ``step_program`` built from that step's own stance
    CoP, side gait and the box with the shrunk window.  The stance CoP and side
    are read from the events: the other foot's start, or where it last
    landed.  A terminal replan's cost and binding rows are its own against
    the same program."""
    from exorecover import StepPlan, mirror_bounds, mirror_gait, plan_step, simulation, step_program
    from exorecover.planner import REPLAN_FLOOR
    from oracle_utils import PlanningCase, planning_cost

    controllers, calls = [], []
    init, real = Controller.__init__, simulation.replan

    def capturing_init(self, *args):
        init(self, *args)
        controllers.append(self)

    def spy(current, xi0, program, elapsed):
        plan = real(current, xi0, program, elapsed)
        calls.append((len(controllers[-1].events), current, xi0, elapsed, plan))
        return plan

    monkeypatch.setattr(Controller, "__init__", capturing_init)
    monkeypatch.setattr(simulation, "replan", spy)
    config = ScenarioConfig()
    gait, box = config.nominal_gait(), config.step_bounds()
    frames = {"right": (gait, box), "left": (mirror_gait(gait), mirror_bounds(box))}
    omega, half = config.omega, 0.5 * config.resolved_stance_width()
    fields = [name for name in StepPlan._fields if name != "planned_at"]
    seen = []
    for pushes in ((push_for_excursion(0.0, 0.12),),
                   (push_for_excursion(0.12, 0.0), push_for_excursion(0.0, 0.06, t=0.62))):
        calls.clear()
        trace = run_scenario(dataclasses.replace(config, pushes=pushes))
        for logged, current, xi0, elapsed, plan in calls:
            feet, side, steps = {"left": (0.0, half), "right": (0.0, -half)}, None, 0
            for ev in trace.events[:logged]:
                if ev.kind == "PlanIssued":
                    side, steps = ev.payload["swing"], steps + 1
                elif ev.kind == "TouchDown":
                    feet[side] = tuple(ev.payload["landed"])
            stance = feet["left" if side == "right" else "right"]
            nominal, bounds = frames[side]
            t_lo = max(REPLAN_FLOOR, bounds.T_min - elapsed)
            t_hi = min(bounds.T_max - elapsed, current.landing_time - elapsed)
            if plan.status == "optimal":
                window = dataclasses.replace(bounds, T_min=t_lo, T_max=t_hi)
                want = plan_step(xi0, step_program(stance, omega, nominal, window))
                assert [repr(getattr(plan, f)) for f in fields] == \
                       [repr(getattr(want, f)) for f in fields]
            else:
                assert plan.status == "terminal" and t_hi < t_lo
                lo, hi = bounds.shift(stance).cop_min, bounds.shift(stance).cop_max
                s_lo, s_hi = bounds.sigma_bounds(omega)
                (cx, cy), sigma = plan.cop_T, plan.sigma
                on = (cx == hi[0], cy == hi[1], cx == lo[0], cy == lo[1], sigma == s_hi, sigma == s_lo)
                assert plan.active_set == tuple(i for i in range(6) if on[i])
                case = PlanningCase(xi0, stance, omega, nominal, bounds)
                assert plan.objective == planning_cost(case, plan.cop_T, sigma, plan.gamma_T)
            assert plan.planned_at == elapsed
            seen.append((steps, side, stance, plan.status))
    # Both sides, a chained step from a landed foot, and both kinds of replan.
    assert {(side, status) for _, side, _, status in seen} >= {
        ("right", "optimal"), ("left", "optimal"), ("right", "terminal"), ("left", "terminal")}
    assert any(steps == 2 and stance not in ((0.0, half), (0.0, -half))
               for steps, _, stance, _ in seen)


def test_control_loop_does_not_call_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the control loop called LAPACK")

    for name in ("svd", "lstsq", "cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    forward, lateral = push_for_excursion(0.12, 0.0), push_for_excursion(0.0, 0.12)
    mid_swing = push_for_excursion(0.0, 0.06, t=0.62)
    for pushes in ((forward,), (lateral,), (forward, mid_swing)):
        trace = run_scenario(ScenarioConfig(pushes=pushes))
        assert events_of(trace, "TouchDown") and events_of(trace, "Replanned")
        assert not events_of(trace, "StepAborted")


def run_counting_plant_steps(monkeypatch, config, run=run_scenario):
    """``run(config)`` counting the calls of ``step_lipm`` and
    ``joint_plant_step`` made through any ``exorecover`` module-level name
    (the spans of ``bench/spans.py`` time the tick by them)."""
    from exorecover.impedance import joint_plant_step
    from exorecover.lipm import step_lipm

    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "exorecover"]
    for module in modules:
        for name, fn in (("step_lipm", step_lipm), ("joint_plant_step", joint_plant_step)):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    return run(config), counts


def test_each_tick_steps_the_pendulum_once_and_each_joint_once(monkeypatch):
    """``step_lipm`` runs once per tick and ``joint_plant_step``, which steps
    the leg's three joints, once on every tick from the trigger tick on,
    each through its module-level name, over a forward push.  Up to the
    trigger the stance loop holds the leg at rest, the push tick included;
    the trigger tick runs through ``Plant.step``, which integrates the
    lifted leg, and its rates are then a new tuple, not ``_REST``, on every
    later tick."""
    trace, counts = run_counting_plant_steps(
        monkeypatch, ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),), duration=2.0))
    assert events_of(trace, "TouchDown") and events_of(trace, "Captured")
    ticks = len(trace.t)
    moving = int(np.count_nonzero(trace.t >= events_of(trace, "BalanceLost")[0].time))
    assert 0 < moving < ticks
    assert counts == {"step_lipm": ticks, "joint_plant_step": moving}


def test_noisy_standing_ticks_step_the_pendulum_once_and_each_joint_once(monkeypatch):
    """A standing tick steps the pendulum once, through ``simulation``'s
    module-level name, and the joints not at all: the leg stays at rest
    under the ``_REST`` torque the whole run."""
    from exorecover import simulation

    trace, counts = run_counting_plant_steps(
        monkeypatch, ScenarioConfig(attitude_noise_deg=0.2, seed=3, duration=1.0))
    assert set(trace.phase) == {"Standing"} and not trace.events
    assert simulation.joint_plant_step.__name__ == "wrapped"
    assert simulation.step_lipm.__name__ == "wrapped"
    ticks = len(trace.t)
    assert (counts["step_lipm"], counts["joint_plant_step"]) == (ticks, 0)


def test_pushes_inside_the_ellipse_leave_the_leg_at_rest(monkeypatch):
    """Pushes whose DCM stays inside the sway ellipse step no leg, and the
    stance loop applies them without integrating the planted leg at rest:
    its rates stay the ``_REST`` object, so no tick calls
    ``joint_plant_step``, whose RK4 would return ``q + 0.0`` and ``+0.0``
    rates on every tick after the first push."""
    trace, counts = run_counting_plant_steps(monkeypatch, RUN_LOOP_CASES["pushes_inside_the_ellipse"])
    assert len(events_of(trace, "PushApplied")) == 3 and set(trace.phase) == {"Standing"}
    assert (counts["step_lipm"], counts["joint_plant_step"]) == (len(trace.t), 0)


@pytest.mark.parametrize("config", [
    ScenarioConfig(attitude_noise_deg=0.2, seed=3, duration=1.0),
    ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),), duration=2.0),
    ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),), mode="zero_torque", duration=2.0,
                   human_pulses=(HumanPulse(1, 0.2, 0.3, 2.0), HumanPulse(2, 0.35, 0.4, -1.0))),
], ids=["noisy_standing", "forward_push", "zero_torque_early_pulses"])
def test_rest_rule_matches_integrating_every_tick(monkeypatch, config):
    """The stance loop's rest rule changes no bit: the reference loop of
    ``tests/test_run_loop.py``, whose ``Plant.step`` integrates the leg on
    every tick, gives the real loop's trace, column by column.  The
    zero-torque run's wearer pulses move the leg before the trigger."""
    real = run_scenario(config)
    (oracle, phases, events), counts = run_counting_plant_steps(monkeypatch, config, reference_run)
    ticks = len(oracle["t"])
    assert counts == {"step_lipm": ticks, "joint_plant_step": ticks}
    for name in ("t", "com", "com_vel", "xi", "cop", "foot", "joint_desired",
                 "joint_measured", "torque"):
        assert getattr(real, name).tobytes() == oracle[name].tobytes(), name
    assert real.phase == phases and real.events == events
    if config.human_pulses:
        before = real.t < events_of(real, "PlanIssued")[0].time
        assert len(np.unique(real.joint_measured[before], axis=0)) > 1


def test_rest_rule_turns_a_negative_zero_angle_positive_as_rk4_does():
    """No scenario plants the leg at a ``-0.0`` angle, so one standing-loop
    tick, which does not integrate the leg at rest, and one ``Plant.step``,
    which does, are run directly: both leave ``(0.0, 5e-324, -0.3)`` at rest."""
    from exorecover import simulation
    from exorecover.simulation import _REST, Command

    config, states = ScenarioConfig(), []
    for in_loop in (True, False):
        plant = Plant(config, [], 1)
        controller = Controller(config, [], plant.q)
        plant.q = (-0.0, 5e-324, -0.3)
        if in_loop:
            assert simulation._run_stance(plant, controller, 0, 1,
                                            memoryview(np.zeros((1, 21))).cast("B"), []) == (1, None)
            assert plant.qd is _REST
        else:
            plant.step(Command((0.0, 0.0), _REST, None, None, False), 0.0)
            assert plant.qd is not _REST
        states.append(np.array([plant.q, plant.qd, plant.tau]).tobytes())
    assert states[0] == states[1] == np.array([(0.0, 5e-324, -0.3), _REST, _REST]).tobytes()


def test_noisy_readings_match_per_tick_draws(monkeypatch):
    """The noise drawn once per run reads as two scalar draws per tick: every
    CoM and DCM estimate of a noisy run equals, bit for bit, the array
    formula fed by per-tick ``rng.normal`` calls, before and after the
    attitude anchor moves at touchdown.  The run is the reference loop of
    ``tests/test_run_loop.py``, which reads every DCM estimate where
    ``Plant.measure`` returns it, and ``run_scenario`` gives its trace bit
    for bit.  The sensor function runs once per tick."""
    from exorecover import simulation

    config = ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),),
                            attitude_noise_deg=0.2, seed=5, duration=2.0)
    sensed, xis = [], {}
    sense, measure = simulation._sensed_com, Plant.measure

    def sensing(com, anchor, L, noise):
        com_hat = sense(com, anchor, L, noise)
        sensed.append((com, anchor, com_hat))
        return com_hat

    def measuring(plant, t):
        meas = measure(plant, t)
        xis[t] = meas.xi
        return meas

    monkeypatch.setattr(simulation, "_sensed_com", sensing)
    monkeypatch.setattr(Plant, "measure", measuring)
    trace, _, events = reference_run(config)
    monkeypatch.undo()
    assert run_scenario(config).log.tobytes() == np.column_stack(list(trace.values())).tobytes()
    assert [e for e in events if e.kind == "TouchDown"] and len(sensed) == len(xis) == len(trace["t"])
    readings = [(com, vel, anchor, com_hat, xis[t])
                for (com, anchor, com_hat), vel, t in zip(sensed, trace["com_vel"].tolist(), trace["t"])]
    assert len({anchor for _, _, anchor, _, _ in readings}) == 2

    rng = np.random.default_rng(config.seed)
    std = config.attitude_noise_deg * math.pi / 180.0
    L, omega = config.com_height, config.omega
    lim = 0.5 * math.pi - 1e-9
    for com, vel, anchor, com_hat, xi_hat in readings:
        scaled = np.clip((np.array(com) - anchor) / L, -1.0 + 1e-12, 1.0 - 1e-12)
        pitch = min(max(math.asin(scaled[0]) + rng.normal(0.0, std), -lim), lim)
        roll = min(max(math.asin(scaled[1]) + rng.normal(0.0, std), -lim), lim)
        ref_com = np.array(anchor) + np.array([L * math.sin(pitch), L * math.sin(roll)])
        ref_xi = ref_com + np.array(vel) / omega
        assert np.array(com_hat).tobytes() == ref_com.tobytes()
        assert np.array(xi_hat).tobytes() == ref_xi.tobytes()


def test_inclinometer_saturates_at_the_edge_of_its_range(monkeypatch):
    """A noisy pitch or roll past +-(pi/2 - 1e-9), on either side and by any
    amount, reads as that limit; one inside it, or on it, reads as it is."""
    lim = 0.5 * math.pi - 1e-9
    past, inside = math.nextafter(lim, math.inf), math.nextafter(lim, 0.0)
    # (pitch noise, roll noise) -> the saturated (pitch, roll); the standing
    # CoM sits on its anchor, so the noise is the whole angle.
    rows = [((3.0, -3.0), (lim, -lim)), ((-3.0, 3.0), (-lim, lim)),
            ((past, -past), (lim, -lim)), ((-past, past), (-lim, lim)),
            ((lim, -lim), (lim, -lim)), ((inside, -inside), (inside, -inside))]
    config = ScenarioConfig(attitude_noise_deg=0.2)
    plant = Plant(config, [], len(rows))
    plant.noise = iter([v for noise, _ in rows for v in noise])
    angles = []

    def recording(roll, pitch, length):
        angles.append((pitch, roll))
        return estimate_com(roll, pitch, length)

    monkeypatch.setattr("exorecover.simulation.estimate_com", recording)
    L = config.com_height
    for k, (_, (pitch, roll)) in enumerate(rows):
        assert plant.com == plant.anchor == (0.0, 0.0)
        com = plant.measure(k * config.dt).com
        assert repr(angles[-1]) == repr((pitch, roll))
        assert com == (0.0 + L * math.sin(pitch), 0.0 + L * math.sin(roll))


def test_control_loop_checks_inputs_once(monkeypatch):
    """No per-tick call re-checks the loop's own vectors or builds an array.

    Every ``exorecover`` binding of ``as_vec2`` is counted, and so is every
    ``numpy.array`` and ``numpy.asarray`` call.  The forward push is
    captured before 2 s, so a third second adds only standing ticks and no
    ``as_vec2`` call; a longer nominal step adds swing
    ticks, each one replanned, but no numpy array; and the lateral push's
    two steps build no ``NominalGait`` or ``StepBounds`` beyond the ones a
    run that never steps builds, so the trigger tick builds none.
    """
    from exorecover.lipm import as_vec2
    from exorecover.planner import NominalGait, StepBounds

    counts = {"as_vec2": 0, "numpy": 0, "NominalGait": 0, "StepBounds": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "exorecover"]
    for module in modules:
        if getattr(module, "as_vec2", None) is as_vec2:
            monkeypatch.setattr(module, "as_vec2", counting("as_vec2", as_vec2))
    for name in ("array", "asarray"):
        monkeypatch.setattr(np, name, counting("numpy", getattr(np, name)))
    for cls in (NominalGait, StepBounds):  # every construction, replace() included
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))

    def calls(action):
        before = dict(counts)
        result = action()
        return result, {k: counts[k] - before[k] for k in counts}

    push = (push_for_excursion(0.12, 0.0),)
    short, short_calls = calls(lambda: run_scenario(ScenarioConfig(pushes=push, duration=2.0)))
    config = ScenarioConfig(pushes=push, duration=3.0)
    _, long_calls = calls(lambda: run_scenario(config))
    slow, slow_calls = calls(lambda: run_scenario(ScenarioConfig(pushes=push, duration=2.0,
                                                                 t_nom=0.6)))

    assert summarize(short).capture_time < 2.0
    assert long_calls["as_vec2"] == short_calls["as_vec2"]
    assert slow.phase.count("Swing") > short.phase.count("Swing") + 30
    assert summarize(slow).num_replans > summarize(short).num_replans
    assert slow_calls["numpy"] == short_calls["numpy"]

    lateral, lateral_calls = calls(lambda: run_scenario(ScenarioConfig(
        pushes=(push_for_excursion(0.0, 0.12),), duration=2.0)))
    _, still_calls = calls(lambda: run_scenario(ScenarioConfig(duration=2.0)))
    assert summarize(lateral).num_steps == 2
    for name in ("NominalGait", "StepBounds"):
        assert lateral_calls[name] == still_calls[name] > 0


# --------------------------------------------------------------------------
# chaining, aborts, control modes


def test_chained_step_when_landing_box_too_small():
    # With the landing box cut to 0.18 m the first step cannot absorb a
    # 0.16 m DCM excursion; a second step with the trailing foot finishes
    # the recovery.
    trace = run_scenario(
        ScenarioConfig(
            pushes=(push_for_excursion(0.16, 0.0),),
            cop_max=(0.18, -0.04),
            duration=4.0,
        )
    )
    plans = events_of(trace, "PlanIssued")
    touchdowns = events_of(trace, "TouchDown")
    assert len(plans) == 2
    assert len(touchdowns) == 2
    assert plans[1].time > touchdowns[0].time  # second plan chains off the landing
    assert [p.payload["swing"] for p in plans] == ["right", "left"]

    summary = summarize(trace)
    assert summary.num_steps == 2
    assert summary.captured and not summary.aborted
    assert trace.phase[-1] == "Standing"


def test_unreachable_swing_target_aborts():
    trace = run_scenario(
        ScenarioConfig(
            pushes=(push_for_excursion(0.12, 0.0),),
            cop_min=(0.5, -0.21),
            cop_max=(0.52, -0.19),
            cop_nom=(0.51, -0.2),
        )
    )
    aborts = events_of(trace, "StepAborted")
    assert len(aborts) == 1
    assert "unreachable" in aborts[0].payload["reason"]
    # events.csv carries this string; pin it byte for byte.
    assert aborts[0].payload["reason"] == (
        "swing target unreachable: unreachable target "
        "[0.30282027203474327, -0.0033893789823797454, -0.8487467085585687]: "
        "target beyond full knee extension (knee cosine 1.00119)"
    )
    assert events_of(trace, "TouchDown") == []

    summary = summarize(trace)
    assert summary.aborted and summary.num_steps == 0 and not summary.captured

    # Actuation stops with the abort and the machine stays in Swing.
    k_abort = int(round(aborts[0].time / trace.config.dt))
    assert float(np.max(np.abs(trace.torque[k_abort:]))) == 0.0
    assert trace.phase[-1] == "Swing"


def test_joint_limit_on_swing_target_aborts():
    # The standing pose flexes the hip 12.1 deg; a 15 deg cap lets the
    # wearer stand but not swing the leg forward.
    trace = run_scenario(
        ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),), hip_flex_limits_deg=(-20.0, 15.0))
    )
    aborts = events_of(trace, "StepAborted")
    assert [(a.time, a.payload["reason"]) for a in aborts] == [(
        0.545,
        "swing target unreachable: solution [0.0006, 0.2636, 0.5556] rad "
        "violates limits on: hip_flex",
    )]
    assert events_of(trace, "TouchDown") == []
    assert summarize(trace).aborted


def test_zero_torque_mode_never_actuates():
    push = (push_for_excursion(0.12, 0.0),)
    passive = run_scenario(ScenarioConfig(pushes=push, mode="zero_torque"))
    assert float(np.max(np.abs(passive.torque))) == 0.0

    # Without actuation the leg never tracks the swing, so the recovery
    # that succeeds under assist fails here.
    assert summarize(run_scenario(ScenarioConfig(pushes=push))).captured
    assert not summarize(passive).captured


def test_human_pulse_perturbs_the_swing_leg():
    push = (push_for_excursion(0.12, 0.0),)
    ref = run_scenario(ScenarioConfig(pushes=push))
    pulsed = run_scenario(
        ScenarioConfig(pushes=push, human_pulses=(HumanPulse(2, 0.6, 0.7, 3.0),))
    )
    dq = np.abs(pulsed.joint_measured - ref.joint_measured)
    assert float(dq[:, 2].max()) > 1e-3
    # Nothing happens before the pulse starts.
    assert np.array_equal(pulsed.joint_measured[:600], ref.joint_measured[:600])


# --------------------------------------------------------------------------
# noise, determinism, trace invariants


def test_sensor_noise_is_seeded_and_bounded():
    push = (push_for_excursion(0.12, 0.0),)
    a = run_scenario(ScenarioConfig(pushes=push, attitude_noise_deg=0.2, seed=7, duration=4.0))
    b = run_scenario(ScenarioConfig(pushes=push, attitude_noise_deg=0.2, seed=7, duration=4.0))
    c = run_scenario(ScenarioConfig(pushes=push, attitude_noise_deg=0.2, seed=8, duration=4.0))

    assert np.array_equal(a.cop, b.cop)
    assert np.array_equal(a.joint_measured, b.joint_measured)
    assert not np.array_equal(a.cop, c.cop)

    # Moderate sensor noise does not break the recovery.
    for trace in (a, c):
        summary = summarize(trace)
        assert summary.captured and not summary.aborted
        assert trace.phase[-1] == "Standing"


def test_rerun_is_bit_identical():
    cfg = dict(pushes=(push_for_excursion(0.12, 0.0), push_for_excursion(0.0, 0.06, t=0.62)))
    a = run_scenario(ScenarioConfig(**cfg))
    b = run_scenario(ScenarioConfig(**cfg))

    for name in ("t", "com", "com_vel", "xi", "cop", "foot",
                 "joint_desired", "joint_measured", "torque"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.phase == b.phase
    assert [(e.time, e.kind, e.payload) for e in a.events] == [
        (e.time, e.kind, e.payload) for e in b.events
    ]


def test_trace_grid_and_dcm_consistency():
    cfg = ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),), duration=2.0)
    trace = run_scenario(cfg)
    n = round(cfg.duration / cfg.dt)
    assert trace.t.shape == (n,)
    assert len(trace.phase) == n
    assert np.array_equal(trace.t, np.arange(n) * cfg.dt)
    # The logged DCM is exactly com + vel / omega of the logged state.
    omega = cfg.omega
    assert np.allclose(trace.xi, trace.com + trace.com_vel / omega, rtol=0.0, atol=1e-15)


def test_summary_reports_the_step_facts():
    trace = forward_push_trace()
    summary = summarize(trace)

    plan = events_of(trace, "PlanIssued")[0]
    td = events_of(trace, "TouchDown")[0]
    cap = events_of(trace, "Captured")[0]

    assert summary.num_replans == len(events_of(trace, "Replanned"))
    assert summary.trigger_time == td.payload["trigger_time"]
    assert summary.touchdown_time == td.time
    assert summary.capture_time == cap.time
    assert summary.planned_landing == tuple(td.payload["initial_planned"])
    assert summary.landed_position == tuple(td.payload["landed"])
    assert summary.swing_start == tuple(td.payload["swing_start"])
    assert summary.swing_side == plan.payload["swing"]
    # The planned and achieved step vectors subtend a small angle here.
    assert abs(summary.planned_vs_landed_angle_deg) < 15.0


def test_sample_runs_only_inside_retarget_once_per_retarget(monkeypatch):
    """The in-flight tick evaluates the foot position alone: over a forward
    push ``swing.sample`` runs only inside ``retarget``, once per retarget,
    and there is one retarget per ``Replanned`` event."""
    from exorecover import simulation, swing

    calls = Counter()
    inside = []
    sample, retarget = swing.sample, swing.retarget

    def counting_sample(*args):
        calls["sample"] += 1
        assert inside, "sample called outside retarget"
        return sample(*args)

    def counting_retarget(*args):
        calls["retarget"] += 1
        inside.append(True)
        try:
            return retarget(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(swing, "sample", counting_sample)
    monkeypatch.setattr(simulation, "retarget", counting_retarget)
    assert not hasattr(simulation, "sample")
    trace = run_scenario(ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),)))
    replanned = len(events_of(trace, "Replanned"))
    assert replanned > 0 and events_of(trace, "TouchDown")
    assert calls == {"sample": replanned, "retarget": replanned}


def test_the_trigger_tick_plans_through_plan_step(monkeypatch):
    """Every trigger tick, one that moves the detector into ``SteppingPlanned``,
    plans the step with one ``planner.plan_step`` call, under the name the
    benchmark's tracer wraps: in every ``exorecover`` namespace that holds
    it.  Over the forward push (one step) and a lateral push with the inner
    lateral bound at -0.13 m, whose chained second step lands and whose
    third aborts on its start pose after planning, the calls count the
    trigger ticks."""
    from exorecover import planner

    real, calls = planner.plan_step, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if (name == "exorecover" or name.startswith("exorecover.")) and module is not None:
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    counted = []
    for config in (ScenarioConfig(pushes=(push_for_excursion(0.12, 0.0),)),
                   ScenarioConfig(pushes=(push_for_excursion(0.0, 0.12),), cop_max=(0.30, -0.13))):
        calls.clear()
        trace = run_scenario(config)
        triggers = sum(1 for k in range(1, len(trace.t))
                       if trace.phase[k] == "SteppingPlanned" != trace.phase[k - 1])
        counted.append((len(calls), triggers))
    assert counted == [(1, 1), (3, 3)]
    assert events_of(trace, "StepAborted")[0].payload["reason"].startswith(
        "swing start pose unreachable")
