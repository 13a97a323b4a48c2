"""Command-line interface tests: parsing, outputs, exit codes."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exorecover import Event, ScenarioParseError, cli, run_scenario

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
        ("push.0.oomph = 1", "unknown key"),
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


def test_set_overrides_replace_file_values(tmp_path):
    path = write_scenario(tmp_path)
    config = cli.load_scenario(path, ["sim.duration = 0.75", "lipm.mass=60"])
    assert config.duration == 0.75
    assert config.mass == 60.0

    with pytest.raises(ScenarioParseError, match=r"--set\[0\]"):
        cli.load_scenario(path, ["nonsense"])


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


def test_scenario_key_help_lists_the_whole_schema():
    help_text = cli.scenario_key_help()
    for key in ("lipm.gravity", "planner.weights", "detector.debounce_cycles",
                "control.mode", "sim.dt", "push.N.time", "human.N.joint"):
        assert key in help_text


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

    aborting = write_scenario(tmp_path, BASE_SCENARIO + ABORT_OVERRIDES, name="abort.txt")
    out = tmp_path / "aborted"
    rc = cli.main(["simulate", "--scenario", str(aborting), "--out", str(out)])
    assert rc == 2
    capsys.readouterr()
    # Outputs are still written for post-mortem inspection.
    assert (out / "trace.csv").exists()
    assert "aborted = true" in (out / "summary.txt").read_text()


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
    }
    for command, extra in commands.items():
        for field, overrides in inverted.items():
            sets = [arg for o in overrides for arg in ("--set", o)]
            rc = cli.main([command, "--scenario", str(scenario), *extra, *sets])
            err = capsys.readouterr().err
            assert rc == 1, (command, field)
            assert "error:" in err and field in err, (command, field, err)
    assert not (tmp_path / "sim").exists() and not (tmp_path / "sweep").exists()


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


def test_failed_write_leaves_the_old_file(tmp_path):
    """A writer that fails partway keeps the old file and leaves no .tmp behind."""
    scenario = write_scenario(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    old = {name: (out / name).read_bytes() for name in ("trace.csv", "events.csv")}
    trace = run_scenario(cli.load_scenario(scenario))

    class Unplugged(list):
        """Phases that fail after 200 rows, past the first buffer flush."""

        def __iter__(self):
            yield from self[:200]
            raise OSError("disk unplugged")

    with pytest.raises(OSError, match="unplugged"):
        cli.write_trace_csv(dataclasses.replace(trace, phase=Unplugged(trace.phase)),
                            out / "trace.csv")
    unserialisable = trace.events + [Event(1.0, "Bad", {"value": object()})]
    with pytest.raises(TypeError):
        cli.write_events_csv(dataclasses.replace(trace, events=unserialisable),
                             out / "events.csv")
    for name, data in old.items():
        assert (out / name).read_bytes() == data, name
    assert sorted(p.name for p in out.iterdir()) == ["events.csv", "summary.txt", "trace.csv"]


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

    # The printed numbers are the library solution verbatim.
    from exorecover import PlannerInput, plan_step
    from dataclasses import replace

    config = cli.load_scenario(scenario)
    cop0 = np.array([0.0, -0.1])
    nominal = config.nominal_gait()
    nominal = replace(nominal, cop_T_nom=nominal.cop_T_nom + cop0)
    plan = plan_step(PlannerInput(
        xi0=np.array([0.12, 0.0]), cop0=cop0, omega=config.lipm_params().omega,
        nominal=nominal, bounds=config.step_bounds().shift(cop0),
    ))
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


def test_sweep_needs_at_least_two_triples(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    grid = write_scenario(tmp_path, "1, 5, 0.02\n", name="grid.txt")
    rc = cli.main(["sweep-weights", "--scenario", str(scenario),
                   "--grid", str(grid), "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "need at least 2 weight triples" in capsys.readouterr().err


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


def test_python_m_exorecover_runs_the_cli(tmp_path):
    scenario = write_scenario(tmp_path)
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "exorecover", "plan", "--scenario", str(scenario), *PLAN_ARGS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "status = optimal" in result.stdout.splitlines()
