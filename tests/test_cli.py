"""Command-line interface tests: parsing, outputs, exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exorecover import (Event, HumanPulse, PushEvent, ScenarioConfig, ScenarioParseError,
                        SimTrace, cli, run_scenario, summarize)
from exorecover.errors import ConfigurationError
from exorecover.simulation import Controller, Plant

from oracle_utils import reference_control

BASE_SCENARIO = """\
# forward push, short run
lipm.mass = 70
sim.duration = 1.5
push.0.time = 0.3
push.0.impulse = 28.05, 0
"""

ABORT_OVERRIDES = """\
planner.cop_nom = 0.51,-0.2
planner.cop_min = 0.5,-0.21
planner.cop_max = 0.52,-0.19
"""


def write_scenario(tmp_path, text=BASE_SCENARIO, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# --------------------------------------------------------------------------
# scenario parsing


def test_parse_scenario_reads_keys_pushes_and_pulses(tmp_path):
    path = write_scenario(
        tmp_path,
        BASE_SCENARIO
        + "control.mode = zero_torque\n"
        + "limits.knee_deg = 5, 160\n"
        + "human.0.joint = 2\nhuman.0.start = 0.4\nhuman.0.end = 0.5\nhuman.0.torque = -2\n",
    )
    config = cli.load_scenario(path)
    assert config.mass == 70.0
    assert config.duration == 1.5
    assert config.mode == "zero_torque"
    assert config.knee_limits_deg == (5.0, 160.0)
    assert len(config.pushes) == 1
    assert config.pushes[0].time == 0.3
    assert np.allclose(config.pushes[0].impulse, [28.05, 0.0])
    assert len(config.human_pulses) == 1
    assert config.human_pulses[0].joint == 2
    assert config.human_pulses[0].torque == -2.0


def test_parse_errors_name_the_file_and_line(tmp_path):
    cases = [
        ("lipm.mass 70", "expected 'key = value'"),
        ("bogus.key = 1", "unknown key"),
        ("lipm.mass = fast", "invalid value"),
        ("lipm.mass = 70\nlipm.mass = 60", "duplicate key"),
        ("push.0.impulse = 1,2,3", "invalid value"),
        ("push.x.time = 1", "bad index"),
        # One spelling per index, so no two lines can name the same record.
        ("push.1.time = 0.5\npush.01.time = 0.7", "bad index in 'push.01.time'"),
        ("push.-1.time = 1", "bad index"),
        ("push.+1.time = 1", "bad index"),
        ("human.1_0.joint = 1", "bad index"),
        ("push.0.oomph = 1", "unknown key"),
        # An empty field is no number: 0.1,,0 is not the pair (0.1, 0).
        ("lipm.com0 = 0.1,,0", "invalid value for 'lipm.com0': expected 2 comma-separated numbers"),
    ]
    for text, fragment in cases:
        path = write_scenario(tmp_path, text + "\n")
        with pytest.raises(ScenarioParseError) as err:
            cli.parse_scenario(path)
        lineno = text.count("\n") + 1
        assert f"{path}:{lineno}:" in str(err.value)
        assert fragment in str(err.value)


def test_incomplete_push_and_pulse_groups_are_errors(tmp_path):
    path = write_scenario(tmp_path, "push.0.time = 0.3\n")
    with pytest.raises(ScenarioParseError, match="push.0: missing impulse"):
        cli.parse_scenario(path)

    path = write_scenario(tmp_path, "human.1.joint = 0\nhuman.1.torque = 1\n")
    with pytest.raises(ScenarioParseError, match="human.1: missing end, start"):
        cli.parse_scenario(path)


@pytest.mark.parametrize("records, fragment", [
    ("push.0.time = -1\npush.0.impulse = 28.05, 0\n", "push.0: push time must be >= 0"),
    ("human.0.joint = 3\nhuman.0.start = 0.1\nhuman.0.end = 0.2\nhuman.0.torque = 1\n",
     "human.0: joint must be 0, 1 or 2"),
], ids=["push", "human"])
def test_a_rejected_record_is_an_input_error(tmp_path, capsys, records, fragment):
    """A record its type rejects is a ScenarioParseError naming ``group.N``,
    and ``simulate`` exits 1 with an ``error:`` line instead of raising."""
    path = write_scenario(tmp_path, "sim.duration = 1.0\n" + records)
    with pytest.raises(ScenarioParseError, match=re.escape(fragment)):
        cli.load_scenario(path)

    out = tmp_path / "run"
    rc = cli.main(["simulate", "--scenario", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {fragment}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("records, fragment", [
    ("push.0.time = 1.0\npush.0.impulse = 28.05, 0\n",
     "push 0 at t=1.0 is after the last control tick at t=0.999"),
    ("push.0.time = 0.9995\npush.0.impulse = 28.05, 0\n",
     "push 0 at t=0.9995 is after the last control tick at t=0.999"),
    # Named by the file's push.N, not by its place in time order.
    ("push.0.time = 1.0\npush.0.impulse = 28.05, 0\npush.1.time = 0.5\npush.1.impulse = 0, 9\n",
     "push 0 at t=1.0 is after the last control tick at t=0.999"),
    ("human.0.joint = 1\nhuman.0.start = 0.9995\nhuman.0.end = 1.2\nhuman.0.torque = 1\n",
     "human pulse 0 starts at t=0.9995, after the last control tick at t=0.999"),
    ("human.0.joint = 1\nhuman.0.start = 0.1002\nhuman.0.end = 0.1008\nhuman.0.torque = 3\n",
     "human pulse 0 window [0.1002, 0.1008) holds no control tick "
     "(the first at or after its start is at t=0.101)"),
], ids=["push_at_duration", "push_between_ticks", "push_out_of_order", "human",
        "human_between_ticks"])
def test_a_record_after_the_last_tick_is_an_input_error(tmp_path, capsys, records, fragment):
    """A push or wearer pulse that no tick of the run reaches exits 1 with
    a message naming it, instead of running without it."""
    path = write_scenario(tmp_path, "sim.duration = 1.0\n" + records)
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--scenario", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: invalid scenario: {fragment}\n"
    assert not out.exists()


def test_record_errors_name_the_files_record_numbers(tmp_path, capsys):
    """Out of time order and with gaps in the numbering, an invalid push or
    pulse is named by its ``N`` in the file; the sorted config is unchanged."""
    records = ("push.2.time = 1.0\npush.2.impulse = 28.05, 0\n"
               "push.5.time = 0.5\npush.5.impulse = 0, 9\n"
               "human.3.joint = 0\nhuman.3.start = 0.2\nhuman.3.end = 0.3\nhuman.3.torque = 1\n"
               "human.7.joint = 2\nhuman.7.start = 0.4002\nhuman.7.end = 0.4004\n"
               "human.7.torque = 1\n")
    path = write_scenario(tmp_path, "sim.duration = 1.0\n" + records)
    with pytest.raises(ConfigurationError) as err:
        cli.load_scenario(path)
    assert str(err.value) == (
        "invalid scenario: push 2 at t=1.0 is after the last control tick at t=0.999; "
        "human pulse 7 window [0.4002, 0.4004) holds no control tick "
        "(the first at or after its start is at t=0.401)")
    config, _ = cli.parse_scenario(path)
    assert [p.time for p in config.pushes] == [0.5, 1.0]
    assert [h.start for h in config.human_pulses] == [0.2, 0.4002]


def test_a_pulse_over_exactly_one_tick_applies(tmp_path):
    """A wearer pulse whose window holds the one tick t = 0.1 passes
    validation and moves the standing leg from that tick on."""
    path = write_scenario(tmp_path, "sim.duration = 0.3\nhuman.0.joint = 1\n"
                                    "human.0.start = 0.0995\nhuman.0.end = 0.1005\n"
                                    "human.0.torque = 3\n")
    trace = run_scenario(cli.load_scenario(path))
    hip = trace.joint_measured[:, 1]
    assert (hip[:101] == hip[0]).all()
    assert hip[101] > hip[0]


def test_a_push_on_the_last_tick_applies(tmp_path, capsys):
    path = write_scenario(tmp_path, "sim.duration = 1.0\npush.0.time = 0.999\n"
                                    "push.0.impulse = 28.05, 0\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "events.csv")
    assert [row[:2] for row in rows] == [["0.999", "PushApplied"]]


def test_set_overrides_replace_file_values(tmp_path):
    path = write_scenario(tmp_path)
    config = cli.load_scenario(path, ["sim.duration = 0.75", "lipm.mass=60"])
    assert config.duration == 0.75
    assert config.mass == 60.0

    with pytest.raises(ScenarioParseError, match=r"--set\[0\]"):
        cli.load_scenario(path, ["nonsense"])
    with pytest.raises(ScenarioParseError, match=r"--set\[1\]: expected key=value"):
        cli.load_scenario(path, ["lipm.mass=60", "  # nothing"])


def test_resolved_config_roundtrips_through_the_parser(tmp_path):
    path = write_scenario(
        tmp_path,
        BASE_SCENARIO + "human.0.joint = 1\nhuman.0.start = 0.1\n"
        "human.0.end = 0.2\nhuman.0.torque = 0.5\n",
    )
    config = cli.load_scenario(path)
    text = cli.format_config(config)
    back = write_scenario(tmp_path, text, name="resolved.txt")
    reparsed = cli.load_scenario(back)
    assert cli.format_config(reparsed) == text


#: Floats whose text is easy to get wrong: signed zero, subnormal, extremes,
#: integral values and ones with no short binary form.
AWKWARD_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308, 3.0, -1e16, 0.1, 1 / 3)


def random_config(rng: np.random.Generator) -> ScenarioConfig:
    """A value of its own type for every scenario key, 0-3 pushes in time
    order and 0-3 wearer pulses.  The records are valid; nothing else needs
    to be, since the round trip parses without validating."""

    def number() -> float:
        if rng.random() < 0.3:
            return AWKWARD_FLOATS[rng.integers(len(AWKWARD_FLOATS))]
        return float(rng.normal() * 10.0 ** rng.integers(-8, 9))

    values = {}
    for f in dataclasses.fields(ScenarioConfig):
        if "key" not in f.metadata:
            continue
        if f.type == "int":
            values[f.name] = int(rng.integers(-10**6, 10**6))
        elif f.type == "str":
            values[f.name] = ("assist", "zero_torque")[rng.integers(2)]
        elif f.type == "float | None":
            values[f.name] = None if rng.random() < 0.5 else number()
        elif f.type.startswith("tuple[float"):
            values[f.name] = tuple(number() for _ in range(f.type.count("float")))
        else:
            assert f.type == "float", f.type
            values[f.name] = number()
    times = sorted(abs(number()) for _ in range(rng.integers(4)))
    pushes = tuple(PushEvent(t, (number(), number())) for t in times)
    pulses = []
    for _ in range(rng.integers(4)):
        start = float(rng.uniform(0.0, 10.0))
        pulses.append(HumanPulse(int(rng.integers(3)), start,
                                 start + float(rng.uniform(1e-6, 5.0)), number()))
    return ScenarioConfig(**values, pushes=pushes, human_pulses=tuple(pulses))


@pytest.mark.parametrize("seed", range(8))
def test_random_configs_roundtrip_through_the_text(tmp_path, seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        config = random_config(rng)
        text = cli.format_config(config)
        reparsed, _ = cli.parse_scenario(write_scenario(tmp_path, text))
        assert cli.format_config(reparsed) == text
        assert reparsed == config


def test_numpy_numbers_roundtrip_through_the_text(tmp_path):
    """numpy scalars are written as plain numbers, which parse back."""
    f = np.float64
    config = ScenarioConfig(
        duration=f(2.0), com0=(f(0.01), f(-0.0)), weights=(f(1.0), f(5.0), f(1 / 3)),
        stance_width=f(0.2), seed=np.int64(3), debounce_cycles=np.int64(2),
        mass=np.float32(70.1), stiffness_deg=tuple(np.array([1.5, 0.4, 0.4], dtype=np.float32)),
        pushes=(PushEvent(f(0.5), np.array([28.05, 0.0])),),
        human_pulses=(HumanPulse(np.int64(1), f(0.1), f(0.2), f(0.5)),))
    text = cli.format_config(config)
    assert "np." not in text
    assert "sim.duration = 2.0\n" in text and "lipm.com0 = 0.01,-0.0\n" in text
    # A float32 prints as the float64 it widens to; integers print without ".0".
    assert "lipm.mass = 70.0999984741211\n" in text
    assert "control.stiffness_deg = 1.5,0.4000000059604645,0.4000000059604645\n" in text
    assert "sim.seed = 3\n" in text and "detector.debounce_cycles = 2\n" in text
    assert "human.0.joint = 1\n" in text
    reparsed = cli.load_scenario(write_scenario(tmp_path, text))
    assert reparsed == config
    assert cli.format_config(reparsed) == text


def test_scenario_key_help_lists_the_whole_schema():
    help_text = cli.scenario_key_help()
    for key in ("lipm.gravity", "planner.weights", "detector.debounce_cycles",
                "control.mode", "sim.dt", "push.N.time", "human.N.joint"):
        assert key in help_text
    # Each key's line ends with the words of its field's rule.
    lines = help_text.splitlines()
    for line in ("  lipm.gravity = 9.81  # m/s^2; positive",
                 "  detector.debounce_cycles = 2  # cycles outside before trigger; an integer >= 1",
                 "  control.mode = assist  # control law; assist or zero_torque",
                 "  sim.dt = 0.001  # s, control period; in (0, 0.01]"):
        assert line in lines
    for f in dataclasses.fields(ScenarioConfig):
        if "key" in f.metadata:
            [line] = [x for x in lines if x.startswith(f"  {f.metadata['key']} = ")]
            assert line.endswith(f"; {f.metadata['rule'].words}")


# --------------------------------------------------------------------------
# simulate


def test_simulate_writes_the_three_outputs(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 0
    assert "captured=yes" in capsys.readouterr().out

    header, rows = read_csv_rows(out / "trace.csv")
    assert ",".join(header) == cli.TRACE_HEADER
    assert len(rows) == 1500
    assert rows[0][0] == "0" and rows[1][0] == "0.001"
    phases = {row[9] for row in rows}
    assert {"Standing", "Swing", "Landed", "Captured"} <= phases

    # The logged DCM equals com + vel / omega at print precision.
    omega = math.sqrt(9.81 / 0.88)
    for row in rows[::97]:
        com_x, vel_x, xi_x = float(row[1]), float(row[3]), float(row[5])
        assert xi_x == pytest.approx(com_x + vel_x / omega, abs=1e-9)

    eheader, erows = read_csv_rows(out / "events.csv")
    assert ",".join(eheader) == cli.EVENTS_HEADER
    kinds = [row[1] for row in erows]
    assert kinds[0] == "PushApplied" and "TouchDown" in kinds and "Captured" in kinds
    # Payloads are compact JSON.
    import json

    for row in erows:
        json.loads(row[2])

    summary_text = (out / "summary.txt").read_text()
    assert "[summary]" in summary_text and "[config]" in summary_text
    assert "captured = true" in summary_text
    assert "push.0.time = 0.3" in summary_text


def test_simulate_exit_codes(tmp_path, capsys):
    bad = write_scenario(tmp_path, "bogus.key = 1\n", name="bad.txt")
    rc = cli.main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # A run shorter than one tick is rejected with the other input errors.
    short = write_scenario(tmp_path, "sim.duration = 0.0004\n", name="short.txt")
    rc = cli.main(["simulate", "--scenario", str(short), "--out", str(tmp_path / "short")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: invalid scenario: duration 0.0004 is shorter "
                                       "than one control cycle of 0.001\n")
    assert not (tmp_path / "short").exists()

    aborting = write_scenario(tmp_path, BASE_SCENARIO + ABORT_OVERRIDES, name="abort.txt")
    out = tmp_path / "aborted"
    rc = cli.main(["simulate", "--scenario", str(aborting), "--out", str(out)])
    assert rc == 2
    capsys.readouterr()
    # Outputs are still written for post-mortem inspection.
    assert (out / "trace.csv").exists()
    assert "aborted = true" in (out / "summary.txt").read_text()


def test_simulate_aborts_a_step_whose_plan_is_not_finite(tmp_path, capsys):
    """A 200 s step window validates, but the plan's cost overflows: ``plan``
    reports it as an error, and ``simulate`` aborts the step and still writes
    its outputs."""
    scenario = write_scenario(tmp_path, BASE_SCENARIO + "planner.t_min = 200\n"
                                                       "planner.t_max = 201\n")
    assert cli.main(["plan", "--scenario", str(scenario), "--xi0", "0.12,0",
                     "--cop0", "0,0.1"]) == 1
    assert "is not finite" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
    capsys.readouterr()
    assert sorted(f.name for f in out.iterdir()) == ["events.csv", "summary.txt", "trace.csv"]
    _, rows = read_csv_rows(out / "events.csv")
    assert [row[1] for row in rows] == ["PushApplied", "BalanceLost", "StepAborted"]
    assert json.loads(rows[2][2])["reason"].startswith(
        "plan_step: the plan from xi0=(0.1200836374464")
    assert "aborted = true" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("command", ["simulate", "sweep-weights"])
@pytest.mark.parametrize("bad_out", ["a file", "under a file", "an output that is a directory"])
def test_an_unusable_out_is_an_input_error(tmp_path, capsys, monkeypatch, command, bad_out):
    """``--out`` naming a file, or a path under one, and an output file that
    is a directory, exit 1 with one ``error:`` line, not a traceback; a
    simulation does not run when its directory cannot be made."""
    scenario = write_scenario(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = {"a file": blocker, "under a file": blocker / "sub",
           "an output that is a directory": tmp_path / "out"}[bad_out]
    if bad_out == "an output that is a directory":
        (out / ("trace.csv" if command == "simulate" else "sweep.csv")).mkdir(parents=True)
    else:
        def no_run(config):
            raise AssertionError("the simulation ran before the output directory was made")

        monkeypatch.setattr(cli, "run_scenario", no_run)
    extra = (["--grid", str(write_scenario(tmp_path, GRID, name="grid.txt"))]
             if command == "sweep-weights" else [])
    rc = cli.main([command, "--scenario", str(scenario), "--out", str(out), *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: cannot write outputs: [Errno ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == ""
    assert not list(tmp_path.rglob("*.tmp"))


def test_every_subcommand_rejects_inverted_step_bounds(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, GRID, name="grid.txt")
    commands = {
        "simulate": ["--out", str(tmp_path / "sim")],
        "plan": ["--xi0", "0.12,0", "--cop0", "0,0"],
        "sweep-weights": ["--grid", str(grid), "--out", str(tmp_path / "sweep")],
    }
    inverted = {
        "cop_min": ["planner.cop_min = 0.4,-0.3", "planner.cop_max = 0.3,-0.04"],
        "t_min": ["planner.t_min = 1.5", "planner.t_max = 1.2"],
        # exp(omega * 300) overflows the planner's sigma.
        "t_max": ["planner.t_max = 300"],
        "t_nom": ["planner.t_nom = 300"],
    }
    for command, extra in commands.items():
        for field, overrides in inverted.items():
            sets = [arg for o in overrides for arg in ("--set", o)]
            rc = cli.main([command, "--scenario", str(scenario), *extra, *sets])
            err = capsys.readouterr().err
            assert rc == 1, (command, field)
            assert "error:" in err and field in err, (command, field, err)
    assert not (tmp_path / "sim").exists() and not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("line, fragments", [
    ("geometry.l2 = 0.2", ("com0, com_height, l0-l3 and stance_width put its stance point out of "
                           "reach", "beyond full knee extension (knee cosine 2.955)")),
    ("lipm.com0 = 0.9, 0", ("put its stance point out of reach", "(knee cosine 2.9121)")),
    ("limits.knee_deg = 30, 120", ("its pose violates knee_limits_deg: solution",
                                   "violates limits on: knee")),
], ids=["thigh", "com0", "knee_limits"])
def test_every_subcommand_rejects_a_scenario_whose_leg_cannot_stand(tmp_path, capsys, line,
                                                                   fragments):
    """A planted right leg that cannot reach its stance point, or whose pose
    there breaks a joint limit, is an input error on every subcommand, with
    no traceback and no output written."""
    scenario = write_scenario(tmp_path, BASE_SCENARIO + line + "\n")
    grid = write_scenario(tmp_path, GRID, name="grid.txt")
    commands = {
        "simulate": ["--out", str(tmp_path / "sim")],
        "plan": ["--xi0", "0.12,0", "--cop0", "0,0"],
        "sweep-weights": ["--grid", str(grid), "--out", str(tmp_path / "sweep")],
    }
    for command, extra in commands.items():
        assert cli.main([command, "--scenario", str(scenario), *extra]) == 1, command
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid scenario: "), (command, captured.err)
        assert captured.err.count("\n") == 1 and captured.out == ""
        for fragment in fragments:
            assert fragment in captured.err, (command, captured.err)
    assert not (tmp_path / "sim").exists() and not (tmp_path / "sweep").exists()


def test_the_standing_pose_is_checked_after_every_field(tmp_path):
    """An unreachable stance is reported only once every field is valid, so
    a field error is reported alone."""
    path = write_scenario(tmp_path, "geometry.l2 = 0.2\nsim.dt = 0\n")
    with pytest.raises(ConfigurationError) as err:
        cli.load_scenario(path)
    assert str(err.value) == "invalid scenario: dt must be in (0, 0.01], got 0.0"
    with pytest.raises(ConfigurationError, match="the planted right leg cannot stand"):
        cli.load_scenario(path, ["sim.dt = 0.001"])


def test_simulate_set_override_changes_the_run(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "short"
    rc = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out),
                   "--set", "sim.duration = 0.5"])
    assert rc == 0
    _, rows = read_csv_rows(out / "trace.csv")
    assert len(rows) == 500


def test_simulate_reruns_are_byte_identical(tmp_path):
    scenario = write_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out_b)]) == 0
    for name in ("trace.csv", "events.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


#: The ROADMAP's four named pushes, as (time, DCM shift x, DCM shift y) per
#: push plus extra scenario lines, each run for 3 s.
NAMED_PUSHES = {
    "forward": ([(0.5, 0.12, 0.0)], []),
    "lateral": ([(0.5, 0.0, 0.12)], []),
    "midswing": ([(0.5, 0.12, 0.0), (0.62, 0.0, 0.06)], []),
    "noisy": ([(0.5, 0.12, 0.0)], ["sim.attitude_noise_deg = 0.2"]),
}

#: sha256 of trace.csv, events.csv and summary.txt of each named push,
#: recorded before the swing tick moved onto Python floats; a change that
#: means to move an artifact updates these and says why.
GOLDEN_DIGESTS = {
    "forward": ("b047bb2c7bd97de0fe6b0fe88eeadcfc1aebb933cdee338b969245c8ce3a1312",
                "3f2a7e0a8566e654084bea00e5705d81d6a226a2b77dec1ec32246e89be4ea4d",
                "ea64182ebb6b19a2e0b0fb9e10dbd7acec4698a59ff4219e2af432e0ed367117"),
    "lateral": ("6b4fbd370291702d172e1f3682b65d77c5a7daad2dafeb0ad1aacb3e9846b3bc",
                "c9cadd0ae70934cc6dbec39447b8e03573990cb5e4bd90126f1c8d9dd1d00633",
                "36ed0a32f8f44d95feb102d1ca47d1f4b619339f7fb23623f355be37f97f56e4"),
    "midswing": ("747d7ed01110c8a94835257a65b3391172877290861f8db9c489db47ff6c624d",
                 "83c76ea2ae052bae8a46a9bd524b73ae363e17e49f35ef25498e77d6238ef8b6",
                 "f15b358336c22e61cbd40653d2eb54c6309b48000f3433c0fada12fdd2a52d32"),
    "noisy": ("eda016c8e3f7ea5162f2771231a898cf18d02558616dbc7c34469d552ccb6e68",
              "69f1115b06ae74f4fe5984497cee61d6c1e516ddde452d7d09bbf1239713fc63",
              "c1f351ffe245e2881645b9efade86d0a22bb62d1baecc40d6130027921a85958"),
}


def simulate_digests(tmp_path, name, pushes, extra):
    """Exit code and the sha256 of trace.csv, events.csv and summary.txt of a
    3 s run with ``pushes`` as (time, DCM shift x, DCM shift y) plus ``extra``
    scenario lines."""
    mass, omega = 70.0, math.sqrt(9.81 / 0.88)  # an impulse of d*mass*omega shifts the DCM by d
    lines = ["sim.duration = 3.0"]
    for i, (t, dx, dy) in enumerate(pushes):
        lines += [f"push.{i}.time = {t!r}",
                  f"push.{i}.impulse = {dx * mass * omega!r}, {dy * mass * omega!r}"]
    scenario = write_scenario(tmp_path, "\n".join(lines + extra) + "\n")
    out = tmp_path / name
    rc = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    return rc, tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                     for f in ("trace.csv", "events.csv", "summary.txt"))


@pytest.mark.parametrize("name", sorted(NAMED_PUSHES))
def test_named_push_artifacts_are_byte_identical_to_the_golden_digests(tmp_path, capsys, name):
    assert simulate_digests(tmp_path, name, *NAMED_PUSHES[name]) == (0, GOLDEN_DIGESTS[name])


#: Forward pushes down the swing paths the named pushes miss, as (extra
#: scenario lines, exit code, sha256 of trace.csv, events.csv and
#: summary.txt), recorded before the in-flight planner, swing splice and IK
#: limit test became straight-line float code: a hip-flexion limit that
#: aborts the step at 0.545 s, and a zero-torque swing moved by a wearer
#: pulse.
GUARDED_SWINGS = {
    "joint_limit_abort": (["limits.hip_flex_deg = -20, 15"], 2, (
        "89cb85274e67a79c3845621826500264d94f09a21c1ab81f0b765d23960a1406",
        "5efcfc4b5b4e3f496b0f5d21d9a9cf1d1593d72d3d2f3ee6c46b60f606ed3974",
        "3d1f96a62267c259b01909920a470b6e2ac5c2a3bf2b57d6e518555ff5826f10")),
    "zero_torque_pulse": (["control.mode = zero_torque", "human.0.joint = 1",
                           "human.0.start = 0.55", "human.0.end = 0.65",
                           "human.0.torque = 1.5"], 0, (
        "3acd018783eebd2c2c541544d526310be8ab58a646384b970d76526372d509e4",
        "be2b8a87678e5bae3da5c10df882cdcffaf79c32f4a77ae95cdaee5527b08b14",
        "5563ca01ff4f92d2eb5218d96663f58e5a3ca4951958a2f1945494997a1c2705")),
}


@pytest.mark.parametrize("name", sorted(GUARDED_SWINGS))
def test_guarded_swing_artifacts_are_byte_identical_to_the_golden_digests(tmp_path, capsys, name):
    extra, code, digests = GUARDED_SWINGS[name]
    assert simulate_digests(tmp_path, name, [(0.5, 0.12, 0.0)], extra) == (code, digests)


def test_failed_write_leaves_the_old_file(tmp_path):
    """A writer that fails partway keeps the old file and leaves no .tmp behind."""
    scenario = write_scenario(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    old = {name: (out / name).read_bytes() for name in ("trace.csv", "events.csv")}
    trace = run_scenario(cli.load_scenario(scenario))
    assert trace.phase[:200] == ["Standing"] * 200  # the failure comes inside one phase run
    written = []  # the .tmp file's bytes when the phases fail

    class Unplugged(list):
        """Phases that fail after 200 rows, past the first chunk and buffer flush."""

        def __iter__(self):
            yield from self[:200]
            written.append((out / "trace.csv.tmp").read_bytes())
            raise OSError("disk unplugged")

    with pytest.raises(OSError, match="unplugged"):
        cli.write_trace_csv(dataclasses.replace(trace, phase=Unplugged(trace.phase)),
                            out / "trace.csv")
    # The writer streams chunk by chunk: rows of the first chunk, not only the
    # header, reached the file before the failure.
    header = len(cli.TRACE_HEADER) + 1
    assert len(written) == 1 and len(written[0]) > header
    assert old["trace.csv"].startswith(written[0])
    unserialisable = trace.events + [Event(1.0, "Bad", {"value": object()})]
    with pytest.raises(TypeError):
        cli.write_events_csv(dataclasses.replace(trace, events=unserialisable),
                             out / "events.csv")
    for name, data in old.items():
        assert (out / name).read_bytes() == data, name
    assert sorted(p.name for p in out.iterdir()) == ["events.csv", "summary.txt", "trace.csv"]


def reference_trace_csv(trace, path):
    """``trace.csv`` as written with every number formatted on every row."""
    row = ",".join(["%.12g"] * 9 + ["%s"] + ["%.12g"] * 12) + "\n"
    log = np.concatenate((trace.t[:, None], trace.com, trace.com_vel, trace.xi, trace.cop,
                          trace.foot, trace.joint_desired, trace.joint_measured, trace.torque),
                         axis=1)
    with open(path, "w") as out:
        out.write(cli.TRACE_HEADER + "\n")
        for values, phase in zip(log.tolist(), trace.phase):
            out.write(row % (*values[:9], phase, *values[9:]))


PHASES = ("Standing", "Swing", "Landed")


def synthetic_trace(log, phase=None):
    """A ``SimTrace`` over an ``(n, 21)`` log laid out as ``run_scenario`` logs,
    with the given phases or else a new phase on every row."""
    if phase is None:
        phase = [PHASES[k % 3] for k in range(len(log))]
    return SimTrace(log=log, phase=phase, events=[], config=ScenarioConfig())


#: (first, stop) column of the CoP pair and of each leg triple in a log row.
LOG_GROUPS = ((7, 9), (9, 12), (12, 15), (15, 18), (18, 21))


def repeating_log(n, seed=0):
    """A log whose CoP pair and leg triples mostly repeat the row above,
    and otherwise take values that include both signed zeros."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 1e-300, 0.25, -0.25, 1.0 / 3.0])
    log = rng.normal(size=(n, 21))
    for k in range(1, n):
        for first, stop in LOG_GROUPS:
            if rng.random() < 0.6:
                log[k, first:stop] = log[k - 1, first:stop]
            elif rng.random() < 0.5:
                log[k, first:stop] = rng.choice(pool, stop - first)
    return log


def signed_zero_log():
    """A CoP and a torque column flipping 0.0 -> -0.0 -> 0.0, the rest fixed."""
    log = np.zeros((6, 21))
    log[:, 0] = np.arange(6) * 1e-3
    log[:, 7] = [0.0, -0.0, 0.0, 0.0, -0.0, -0.0]
    log[:, 20] = [-0.0, 0.0, -0.0, -0.0, 0.0, 0.0]
    return log


def block_edge_log():
    """Changes exactly at rows 127/128 and 255/256, across the writer's
    128-row blocks, in one CoP or leg column at a time."""
    log = np.ones((300, 21))
    log[:, 0] = np.arange(300) * 1e-3
    log[127:, 8] = 2.0  # the last row of the first block
    log[128:, 10] = 3.0  # the first row of the second block
    log[255:, 16] = 4.0
    log[256:, 19] = 5.0
    log[:128, 13] = 0.0
    log[128:, 13] = -0.0  # a signed-zero flip at the block edge
    log[256:, 7] = 0.0
    log[257:, 7] = -0.0
    log[1:128, 17] = 6.0  # back to the first block's first row at row 128
    return log


@pytest.mark.parametrize("log", [
    pytest.param(signed_zero_log(), id="signed-zero-flips"),
    pytest.param(block_edge_log(), id="block-edges"),
    pytest.param(repeating_log(1), id="one-row"),
    pytest.param(repeating_log(129), id="129-rows"),
    pytest.param(repeating_log(700, seed=1), id="random-repeats"),
])
def test_trace_writer_is_the_per_row_reference_byte_for_byte(tmp_path, log):
    assert_writes_the_reference(tmp_path, synthetic_trace(log))


def assert_writes_the_reference(tmp_path, trace):
    cli.write_trace_csv(trace, tmp_path / "trace.csv")
    reference_trace_csv(trace, tmp_path / "reference.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def phase_runs(*lengths, names=PHASES):
    """Phases in runs of the given lengths, cycling through ``names``."""
    return [names[i % len(names)] for i, n in enumerate(lengths) for _ in range(n)]


def random_runs(n, seed):
    """Run lengths of 1-300 rows that add up to ``n``."""
    rng = np.random.default_rng(seed)
    lengths = []
    while sum(lengths) < n:
        lengths.append(min(int(rng.integers(1, 301)), n - sum(lengths)))
    return lengths


def stance_like_log(n, seed=0):
    """A log whose CoP pair and leg triples hold their bits for long runs,
    as a standing leg does, and change now and then to values that include
    both signed zeros."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 1e-300, 0.25, -0.25, 1.0 / 3.0])
    log = rng.normal(size=(n, 21))
    for k in range(1, n):
        for first, stop in LOG_GROUPS:
            if rng.random() < 0.99:
                log[k, first:stop] = log[k - 1, first:stop]
            elif rng.random() < 0.5:
                log[k, first:stop] = rng.choice(pool, stop - first)
    return log


def last_row_log():
    """256 rows whose CoP and leg columns are fixed except on the last row
    of each 128-row chunk: there one CoP and one leg column change value,
    and one torque changes only the sign of its zero."""
    log = np.ones((256, 21))
    log[:, 0] = np.arange(256) * 1e-3
    log[:, 18:21] = 0.0
    log[127, 8] = 2.0
    log[127, 16] = -1.0
    log[255, 20] = -0.0
    log[255, 10] = 3.0
    return log


@pytest.mark.parametrize("log, phase", [
    pytest.param(stance_like_log(3000, seed=2), phase_runs(*random_runs(3000, seed=2)),
                 id="runs-of-1-300"),
    pytest.param(repeating_log(3000, seed=3), phase_runs(*random_runs(3000, seed=3)),
                 id="runs-of-1-300-busy"),
    pytest.param(block_edge_log(), phase_runs(127, 173), id="phase-change-at-127"),
    pytest.param(block_edge_log(), phase_runs(128, 172), id="phase-change-at-128"),
    pytest.param(last_row_log(), phase_runs(256), id="changes-on-last-rows"),
    pytest.param(stance_like_log(128, seed=4), phase_runs(128), id="128-rows"),
    pytest.param(stance_like_log(256, seed=5), phase_runs(256), id="256-rows"),
    pytest.param(stance_like_log(600, seed=6), phase_runs(200, 1, 399, names=("50%", "%s", "%%")),
                 id="percent-signs-in-phases"),
])
def test_trace_writer_matches_the_reference_over_phase_runs(tmp_path, log, phase):
    """Chunks that hold many rows of one phase, where the writer formats
    the constant groups once."""
    assert_writes_the_reference(tmp_path, synthetic_trace(log, phase))


def one_group_varies_log(first, stop, n=300):
    """Rows whose CoP and leg columns hold their values except the columns
    ``first:stop``, which change on every row."""
    log = np.ones((n, 21))
    log[:, 0] = np.arange(n) * 1e-3
    log[:, first:stop] = np.arange(n * (stop - first)).reshape(n, -1) * 0.1
    return log


@pytest.mark.parametrize("first, stop", [(7, 9), (12, 15), (18, 21)], ids=["cop", "desired", "torque"])
def test_trace_writer_keeps_a_prefix_or_a_spread_of_columns(tmp_path, first, stop):
    """Only the CoP varies (the numbers kept per row are the first nine
    columns, a slice), or only a later group does (a gather of columns)."""
    assert_writes_the_reference(tmp_path, synthetic_trace(one_group_varies_log(first, stop),
                                                          phase_runs(300)))


def reference_events_csv(trace, path):
    """``events.csv`` as ``csv.writer`` writes it, one row per event, with
    each non-finite number's JSON token (``NaN``, ``Infinity``,
    ``-Infinity``) read back as a string and encoded again."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with open(path, "w") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cli.EVENTS_HEADER.split(","))
        for ev in trace.events:
            payload = json.loads(encode(ev.payload), parse_constant=str)
            writer.writerow([f"{ev.time:.12g}", ev.kind, encode(payload)])


def test_events_writer_is_the_csv_writer_reference_byte_for_byte(tmp_path):
    """Every event kind of the forward and lateral pushes, then hand-made
    payloads: a reason holding a quote, a comma, a line break and a
    non-ASCII character, NaN and infinite floats, and an empty payload."""
    omega_m = 70.0 * math.sqrt(9.81 / 0.88)
    events = []
    for impulse in ((0.12 * omega_m, 0.0), (0.0, 0.12 * omega_m)):
        events += run_scenario(ScenarioConfig(pushes=(PushEvent(0.5, impulse),))).events
    assert {ev.kind for ev in events} == {"PushApplied", "BalanceLost", "PlanIssued",
                                          "Replanned", "TouchDown", "Captured"}
    events += [
        Event(2.5, "StepAborted", {"reason": 'swing "target", unreachable\nat 0.3 m \u2013 knee'}),
        Event(2.6, "Replanned", {"cop_T": [math.nan, math.inf], "remaining": -math.inf,
                                 "landing_time": 1e-300, "sigma": -0.0}),
        Event(-0.0, "Empty", {}),
    ]
    trace = SimTrace(log=np.zeros((1, 21)), phase=["Standing"], events=events,
                     config=ScenarioConfig())
    cli.write_events_csv(trace, tmp_path / "events.csv")
    reference_events_csv(trace, tmp_path / "reference.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_a_non_finite_payload_number_is_written_as_a_json_string(tmp_path):
    """A DCM estimate of ``(nan, 0.0)`` handed to the standing controller
    (``oracle_utils.reference_control``) fires the trigger; its
    ``BalanceLost`` payload, written to ``events.csv``, parses as strict
    JSON, the NaNs as strings."""
    config = ScenarioConfig(debounce_cycles=1)
    plant, events = Plant(config, [], 1), []
    controller = Controller(config, events, plant.q)
    reference_control(controller, plant.measure(0.0)._replace(xi=(math.nan, 0.0)), 0.0)
    assert [ev.kind for ev in events] == ["BalanceLost", "StepAborted"]
    trace = SimTrace(log=np.zeros((1, 21)), phase=["Standing"], events=events, config=config)
    cli.write_events_csv(trace, tmp_path / "events.csv")

    def strict(name):
        raise ValueError(f"{name} is not JSON")

    with open(tmp_path / "events.csv", newline="") as f:
        rows = list(csv.reader(f))
    payloads = [json.loads(row[2], parse_constant=strict) for row in rows[1:]]
    assert payloads[0] == {"excursion": "NaN", "xi": ["NaN", 0.0]}
    assert rows[1][2] == '{"excursion":"NaN","xi":["NaN",0.0]}'


def test_simulate_summarizes_once_and_prints_the_written_summary(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(trace):
        calls.append(trace)
        return summarize(trace)

    monkeypatch.setattr(cli, "summarize", counting)
    scenario = write_scenario(tmp_path)
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    summary = summarize(calls[0])
    assert f"steps={summary.num_steps} captured=yes" in capsys.readouterr().out
    assert cli.write_summary(calls[0], tmp_path / "again.txt") == summary


def test_emit_gnuplot_writes_a_script(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "plotted"
    rc = cli.main(["simulate", "--scenario", str(scenario), "--out", str(out),
                   "--emit-gnuplot"])
    assert rc == 0
    script = (out / "trace.gp").read_text()
    assert 'set datafile separator ","' in script
    assert "trace.csv" in script


# --------------------------------------------------------------------------
# plan


def test_plan_prints_the_solution(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    rc = cli.main(["plan", "--scenario", str(scenario),
                   "--xi0", "0.12,0", "--cop0", "0,-0.1"])
    assert rc == 0
    lines = dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["status"] == "optimal"

    # The printed numbers are the library solution verbatim; the planner
    # takes the config's gait and box about cop0 as they are.
    from exorecover import plan_step, step_program

    config = cli.load_scenario(scenario)
    plan = plan_step((0.12, 0.0), step_program(np.array([0.0, -0.1]), config.omega,
                                               config.nominal_gait(), config.step_bounds()))
    assert lines["cop_T"] == ",".join(repr(float(v)) for v in plan.cop_T)
    assert lines["sigma"] == repr(plan.sigma)
    assert lines["duration_s"] == repr(plan.duration)


def test_plan_rejects_bad_vectors(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    rc = cli.main(["plan", "--scenario", str(scenario),
                   "--xi0", "1,2,3", "--cop0", "0,0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# sweep-weights


GRID = """\
1, 5, 0.02
1, 50, 0.02
1, 5, 2.0
"""


def test_sweep_writes_csv_and_flags_the_conservative_plan(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, GRID, name="grid.txt")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-weights", "--scenario", str(scenario),
                   "--grid", str(grid), "--out", str(out)])
    assert rc == 0

    header, rows = read_csv_rows(out / "sweep.csv")
    assert header[:3] == ["alpha1", "alpha2", "alpha3"]
    assert len(rows) == 3
    flags = [int(row[-1]) for row in rows]
    assert sum(flags) == 1

    # The flag marks the shortest-step, longest-duration compromise.
    lengths = np.array([float(row[9]) for row in rows])
    durations = np.array([float(row[8]) for row in rows])
    rank_len = np.argsort(np.argsort(lengths, kind="stable"), kind="stable")
    rank_dur = np.argsort(np.argsort(-durations, kind="stable"), kind="stable")
    assert flags.index(1) == int(np.argmin(rank_len + rank_dur))

    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 4  # header plus one line per triple
    assert sum("*" in line for line in table) == 1

    rerun = tmp_path / "rerun"
    assert cli.main(["sweep-weights", "--scenario", str(scenario),
                     "--grid", str(grid), "--out", str(rerun)]) == 0
    assert (rerun / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()


#: sha256 of sweep.csv for a state whose landing CoP leaves the CoP box, so
#: the planner's clipped pieces and sigma breakpoints decide most rows;
#: recorded before ``planner._solve`` became straight-line float code.
SWEEP_OUTSIDE_BOX_DIGEST = "3f8233ccb767635911e44ef6e124cb3f3cf3b3e946885f68c67900be4c26624b"


def test_sweep_outside_the_cop_box_is_byte_identical_to_the_golden_digest(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, GRID + "10, 1, 0.02\n0.1, 5, 0.5\n3, 1, 1\n1, 1, 5\n",
                          name="grid.txt")
    out = tmp_path / "sweep"
    assert cli.main(["sweep-weights", "--scenario", str(scenario), "--grid", str(grid),
                     "--out", str(out), "--cop0", "0,0", "--xi0", "0.45,-0.3"]) == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == SWEEP_OUTSIDE_BOX_DIGEST


def test_sweep_step_length_is_a_float_sum(tmp_path, monkeypatch):
    """step_length equals the Python-float formula bit for bit, and the flagged
    row is ranked on those exact lengths, so sweep.csv does not depend on the
    BLAS build."""
    monkeypatch.setattr(cli, "_num", lambda x: repr(float(x)))  # full precision
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, GRID + "10, 5, 0.2\n0.5, 1, 1\n3, 20, 0.5\n", name="grid.txt")
    out = tmp_path / "sweep"
    rng = np.random.default_rng(31)
    for _ in range(150):
        cop0 = rng.uniform(-0.1, 0.1, size=2).tolist()
        xi0 = (np.asarray(cop0) + rng.uniform(-0.15, 0.15, size=2)).tolist()
        assert cli.main(["sweep-weights", "--scenario", str(scenario), "--grid", str(grid),
                         "--out", str(out), "--cop0=" + ",".join(map(repr, cop0)),
                         "--xi0=" + ",".join(map(repr, xi0))]) == 0
        header, rows = read_csv_rows(out / "sweep.csv")
        col = {name: i for i, name in enumerate(header)}
        lengths, durations = [], []
        for row in rows:
            dx = float(row[col["cop_x"]]) - cop0[0]
            dy = float(row[col["cop_y"]]) - cop0[1]
            assert float(row[col["step_length"]]) == math.sqrt(dx * dx + dy * dy)
            lengths.append(float(row[col["step_length"]]))
            durations.append(float(row[col["duration_s"]]))
        # Summed stable ranks: shorter step, then longer duration; ties to grid order.
        n = len(rows)
        rank_len = [sum((lengths[j], j) < (lengths[i], i) for j in range(n)) for i in range(n)]
        rank_dur = [sum((-durations[j], j) < (-durations[i], i) for j in range(n))
                    for i in range(n)]
        flagged = min(range(n), key=lambda i: (rank_len[i] + rank_dur[i], i))
        assert [row[-1] for row in rows] == ["1" if i == flagged else "0" for i in range(n)]


def test_sweep_default_xi0_is_cop0_plus_a_forward_offset(tmp_path, capsys):
    """The default ``--xi0`` is ``cop0 + (0.08, 0)``, so a ``--cop0`` y of -0.0
    plans from a y of +0.0. The sign of that zero reaches sweep.csv when the
    nominal gait and the CoP box are symmetric about y = 0. An empty
    ``--xi0=`` is a bad vector, as it is for ``plan``, not the default."""
    scenario = write_scenario(tmp_path, BASE_SCENARIO + (
        "planner.cop_nom = 0.3,0\nplanner.gamma_nom = 0.05,0\n"
        "planner.cop_min = -0.1,-0.1\nplanner.cop_max = 0.4,0.1\n"))
    grid = write_scenario(tmp_path, GRID, name="grid.txt")
    sweep = ["sweep-weights", "--scenario", str(scenario), "--grid", str(grid)]
    for cop0, xi0 in (("0,-0", "0.08,0"), ("0.02,-0", "0.1,0"), ("0,0.01", "0.08,0.01")):
        a, b = tmp_path / "default", tmp_path / "explicit"
        assert cli.main(sweep + ["--out", str(a), "--cop0=" + cop0]) == 0
        assert cli.main(sweep + ["--out", str(b), "--cop0=" + cop0, "--xi0=" + xi0]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    capsys.readouterr()

    for empty in ("--xi0=", "--cop0="):
        assert cli.main(sweep + ["--out", str(tmp_path / "empty"), empty]) == 1
        assert "error: expected 2 comma-separated numbers" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


def test_sweep_ties_flag_the_first_row_in_grid_order(tmp_path, capsys):
    """Equal triples give equal plans, so equal ranks; the first is flagged."""
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, "1, 50, 0.02\n1, 5, 0.02\n1, 5, 0.02\n", name="grid.txt")
    out = tmp_path / "sweep"
    assert cli.main(["sweep-weights", "--scenario", str(scenario),
                     "--grid", str(grid), "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = read_csv_rows(out / "sweep.csv")
    assert rows[1][:-1] == rows[2][:-1]
    assert [row[-1] for row in rows] == ["0", "1", "0"]


def test_sweep_needs_at_least_two_triples(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, "1, 5, 0.02\n", name="grid.txt")
    rc = cli.main(["sweep-weights", "--scenario", str(scenario),
                   "--grid", str(grid), "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "need at least 2 weight triples" in capsys.readouterr().err


def test_grid_errors_name_the_file_and_line(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, "# alpha1, alpha2, alpha3\n1, 5, 0.02\n\n2, 5  # two\n",
                          name="grid.txt")
    zero = write_scenario(tmp_path, "1, 5, 0.02\n0, 1, 1\n", name="zero.txt")
    missing = tmp_path / "missing.txt"
    for path, fragment in ((grid, f"{grid}:4: expected 3 comma-separated numbers"),
                           (zero, f"{zero}:2: weights must be positive, got (0.0, 1.0, 1.0)"),
                           (missing, f"{missing}: cannot read grid:")):
        rc = cli.main(["sweep-weights", "--scenario", str(scenario),
                       "--grid", str(path), "--out", str(tmp_path / "s")])
        assert rc == 1
        assert f"error: {fragment}" in capsys.readouterr().err


def test_negative_vectors_parse_in_both_spellings(tmp_path, capsys):
    """Backward and rightward states parse as ``--xi0 -0.1,0`` too, with the
    same result as ``--xi0=-0.1,0``; an option still cannot be a value."""
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, GRID, name="grid.txt")
    plan = ["plan", "--scenario", str(scenario)]
    sweep = ["sweep-weights", "--scenario", str(scenario), "--grid", str(grid)]
    for xi0, cop0 in (("-0.1,0", "0,0"), ("0.02,-0.15", "0,-0.05"), ("-0.05,-0.12", "-.02,-0.03")):
        assert cli.main(plan + ["--xi0", xi0, "--cop0", cop0]) == 0
        spaced = capsys.readouterr().out
        assert cli.main(plan + ["--xi0=" + xi0, "--cop0=" + cop0]) == 0
        assert capsys.readouterr().out == spaced

        a, b = tmp_path / "spaced", tmp_path / "joined"
        assert cli.main(sweep + ["--out", str(a), "--xi0", xi0, "--cop0", cop0]) == 0
        assert cli.main(sweep + ["--out", str(b), "--xi0=" + xi0, "--cop0=" + cop0]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        cli.main(plan + ["--xi0", "--cop0", "0,0"])
    assert exc.value.code == 1
    assert "argument --xi0: expected one argument" in capsys.readouterr().err


# --------------------------------------------------------------------------
# in-process calls and the module entry point

PLAN_ARGS = ["--xi0", "0.12,0", "--cop0", "0,-0.1"]


def test_usage_errors_exit_with_the_input_error_code(capsys):
    # Exit code 2 means "aborted", so a mistyped command must not read as one.
    for argv in (["simulate"], ["plan", "--scenario", "x"], ["bogus"]):
        for _ in range(2):  # the second call reuses the parser
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: exorecover")
            assert "error: " in err


def test_help_is_the_same_on_every_call(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert cli.scenario_key_help() in texts[0]


def test_repeated_calls_share_no_values(tmp_path):
    scenario = write_scenario(tmp_path)
    short, full = tmp_path / "short", tmp_path / "full"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(short),
                     "--set", "sim.duration=0.4"]) == 0
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(full)]) == 0
    # The override applied to its own call only: the second run has the
    # scenario's own 1.5 s.
    assert len(read_csv_rows(short / "trace.csv")[1]) == 400
    assert len(read_csv_rows(full / "trace.csv")[1]) == 1500


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    scenario = write_scenario(tmp_path)
    real, calls = cli.scenario_key_help, []

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "scenario_key_help", counting)
    cli.build_parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.main(["plan", "--scenario", str(scenario), *PLAN_ARGS]) == 0
    finally:
        cli.build_parser.cache_clear()  # later tests rebuild with the real help
    assert len(calls) == 1


def run_fresh_python(*args):
    """Run a new interpreter that imports the package from this checkout's ``src``."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_python_m_exorecover_runs_the_cli(tmp_path):
    scenario = write_scenario(tmp_path)
    result = run_fresh_python("-m", "exorecover", "plan", "--scenario", str(scenario), *PLAN_ARGS)
    assert result.returncode == 0, result.stderr
    assert "status = optimal" in result.stdout.splitlines()


def test_importing_the_cli_leaves_the_reference_qp_unloaded():
    # The planner solves its program exactly; the QP solver is a test reference only.
    result = run_fresh_python("-c", "import sys, exorecover.cli; print('exorecover.qp' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize("module", ["exorecover", "exorecover.cli"])
def test_importing_the_package_loads_no_numpy(module):
    # numpy is imported only where simulate needs it: the log, the noise draw
    # and the trace writer.
    result = run_fresh_python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize("command", ["plan", "sweep-weights"])
def test_plan_and_sweep_weights_load_no_numpy(tmp_path, command):
    argv = [command, "--scenario", str(write_scenario(tmp_path)), *PLAN_ARGS]
    if command == "sweep-weights":
        argv += ["--grid", str(write_scenario(tmp_path, GRID, name="grid.txt")),
                 "--out", str(tmp_path / "sweep")]
    script = ("import sys; from exorecover import cli; "
              "print(cli.main(sys.argv[1:]), 'numpy' in sys.modules)")
    result = run_fresh_python("-c", script, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
    if command == "sweep-weights":
        assert len(read_csv_rows(tmp_path / "sweep" / "sweep.csv")[1]) == 3


@pytest.mark.parametrize("vectors, fragment", [
    (["--xi0=0.1,0", "--cop0=inf,0"], "must be finite (--cop0)"),
    (["--xi0=0.1", "--cop0=0,0"], "expected 2 comma-separated numbers (--xi0)"),
    (["--xi0=nan,0", "--cop0=0,0"], "must be finite (--xi0)"),
    (["--xi0=a,0", "--cop0=0,0"], "could not convert string to float: 'a' (--xi0)"),
    (["--xi0=1e300,0", "--cop0=0,0"], "the plan from xi0=(1e+300, 0.0), cop0=(0.0, 0.0) is not finite"),
    (["--xi0=1e308,0", "--cop0=0,0"], "the plan from xi0=(1e+308, 0.0), cop0=(0.0, 0.0) is not finite"),
    # An empty field is no number, wherever it is.
    (["--xi0=0.1,,0", "--cop0=0,0"], "expected 2 comma-separated numbers (--xi0)"),
    (["--xi0=0.1,0", "--cop0=0, ,0"], "expected 2 comma-separated numbers (--cop0)"),
    (["--xi0=0.1,0,", "--cop0=0,0"], "expected 2 comma-separated numbers (--xi0)"),
    # A separate value that starts with a minus sign is the option's, too.
    (["--xi0", "-inf,0", "--cop0=0,0"], "must be finite (--xi0)"),
    (["--xi0=0.1,0", "--cop0", "-a,0"], "could not convert string to float: '-a' (--cop0)"),
])
@pytest.mark.parametrize("command", ["plan", "sweep-weights"])
def test_vector_and_overflow_errors_name_the_option_or_state(tmp_path, capsys, command, vectors,
                                                              fragment):
    """A bad --xi0 or --cop0 is named on stderr, and a plan that overflows
    is an input error, not an optimal plan; neither writes a sweep.csv."""
    scenario = write_scenario(tmp_path)
    argv = [command, "--scenario", str(scenario), *vectors]
    if command == "sweep-weights":
        argv += ["--grid", str(write_scenario(tmp_path, GRID, name="grid.txt")),
                 "--out", str(tmp_path / "sweep")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {fragment}" in captured.err
    assert "status = optimal" not in captured.out
    assert not (tmp_path / "sweep").exists()
