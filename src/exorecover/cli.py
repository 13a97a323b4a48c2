"""Command-line front end.

Three subcommands:

* ``simulate --scenario f --out dir [--set k=v ...] [--emit-gnuplot]``
  runs a closed-loop scenario and writes ``trace.csv``, ``events.csv``
  and ``summary.txt`` into the output directory.
* ``plan --scenario f --xi0 x,y --cop0 x,y`` solves one step-adaptation
  program and prints the plan.
* ``sweep-weights --scenario f --grid f --out dir`` re-plans one
  perturbed state across a grid of cost-weight triples and writes
  ``sweep.csv``.

Vector options take a negative value either way: ``--xi0 -0.1,0`` or
``--xi0=-0.1,0``, and a bad one fails the same way in both spellings.

Exit codes: 0 success (and ``--help``), 1 input error (a usage error
such as a missing option or an unknown subcommand, an unparseable or
invalid scenario, a missing file, a bad grid), 2 infeasible planning
problem or a simulation that aborted its step.

``python -m exorecover`` runs the same command line.  In-process callers
use ``main(argv)``, which returns the exit code (a usage error or
``--help`` raises ``SystemExit`` with it, as argparse does).  The parser
is built on the first ``main`` call and reused by every later call in
the process; each call parses into a fresh namespace, so no value
carries over from one call to the next.

Scenario files are line oriented: ``key = value`` with ``#`` comments,
dotted keys, and comma-separated numbers for vectors.  Angles are
written in degrees; everything internal is radians.  Pushes use
indexed keys (``push.0.time``, ``push.0.impulse``), wearer-torque
pulses likewise under ``human.N.*``.  Unknown keys are errors, and so is
a record with a missing key or one its type rejects (``push.N: ...``).
All keys and their defaults are listed in ``--help`` of each subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path

from .errors import ConfigurationError, PlannerInfeasibleError, ScenarioParseError
from .lipm import broken
from .planner import StepPlan, plan_step, step_program
from .simulation import (
    _LOG_COLUMNS,
    MODE,
    HumanPulse,
    PushEvent,
    ScenarioConfig,
    SimTrace,
    StepSummary,
    run_scenario,
    summarize,
)

__all__ = ["main", "parse_scenario", "load_scenario", "write_trace_csv",
           "write_events_csv", "write_summary", "format_config"]

TRACE_HEADER = (
    "t,com_x,com_y,vel_x,vel_y,xi_x,xi_y,cop_x,cop_y,phase,"
    "foot_x,foot_y,foot_z,q1_des,q2_des,q3_des,q1,q2,q3,tau1,tau2,tau3"
)
EVENTS_HEADER = "t,kind,payload"


# -- scenario schema ---------------------------------------------------------


def _float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _int(text: str) -> int:
    return int(text, 10)


def _floats(text: str, n: int) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n or not all(parts):
        raise ValueError(f"expected {n} comma-separated numbers")
    return tuple(_float(p) for p in parts)


def _vec2(text: str) -> tuple[float, float]:
    return _floats(text, 2)  # type: ignore[return-value]


def _option_vec2(args, name: str) -> tuple[float, float]:
    # A bad value's error names the option after the reason, as in
    # "must be finite (--cop0)", so the reason still opens the message.
    try:
        return _vec2(getattr(args, name))
    except ValueError as err:
        raise ValueError(f"{err} (--{name})") from None


def _vec3(text: str) -> tuple[float, float, float]:
    return _floats(text, 3)  # type: ignore[return-value]


def _mode(text: str) -> str:
    v = text.strip().lower()
    if why := broken(v, MODE):
        raise ValueError(why)
    return v


def _fmt(value) -> str:
    # A numpy array or scalar becomes Python values: repr(np.float64(2.0)) shows "np.".
    value = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(value, (tuple, list)):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, float) else str(value)


_CONVERTERS = {
    "float": _float,
    "float | None": _float,
    "int": _int,
    "str": _mode,
    "tuple[float, float]": _vec2,
    "tuple[float, float, float]": _vec3,
}

#: Scenario key -> (config field, converter, help), in ScenarioConfig field
#: order; converters follow from the field annotations, and the help ends
#: with the words of the field's rule.
_KEYS = {
    f.metadata["key"]: (
        f.name, _CONVERTERS[f.type], f"{f.metadata['help']}; {f.metadata['rule'].words}"
    )
    for f in dataclasses.fields(ScenarioConfig)
    if "key" in f.metadata
}


def _record_keys(record) -> dict:
    """Key -> converter of each field of ``record``, in order, by annotation as in ``_KEYS``."""
    return {f.name: _CONVERTERS[f.type] for f in dataclasses.fields(record)}


#: Indexed record groups, ``group.N.key = value`` with one record per index N:
#: group -> (record type, ScenarioConfig field, key -> converter in the
#: record's field order, record key the records are sorted by or None for
#: index order, help).
_GROUPS = {
    "push": (PushEvent, "pushes", _record_keys(PushEvent), "time",
             "N = 0,1,...; time in s, impulse in N*s (x,y)"),
    "human": (HumanPulse, "human_pulses", _record_keys(HumanPulse), None,
              "wearer torque pulse; joint 0-2, start/end in s, torque in N*m"),
}


def scenario_key_help() -> str:
    """Plain-text table of every scenario key with its default, meaning and rule."""
    default = ScenarioConfig()
    lines = ["scenario keys (key = default  # meaning; rule):"]
    for key, (attr, _, meaning) in _KEYS.items():
        value = getattr(default, attr)
        shown = "unset" if value is None else _fmt(value)
        lines.append(f"  {key} = {shown}  # {meaning}")
    for group, (_, _, keys, _, meaning) in _GROUPS.items():
        lines.append(f"  {group}.N.{' / .'.join(keys)}  # {meaning}")
    return "\n".join(lines)


def _read_lines(path, what: str, text: str | None = None) -> list[tuple[str, str]]:
    """The lines of ``text``, or of the ``what`` file at ``path`` when ``text``
    is None, as ``(where, line)``: ``where`` is ``path:lineno`` and ``line`` is
    cut at its ``#`` comment and stripped; blank lines are left out."""
    if text is None:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as err:
            raise ScenarioParseError(f"{path}: cannot read {what}: {err}") from None
    numbered = ((f"{path}:{n}", raw.split("#", 1)[0].strip())
                for n, raw in enumerate(text.splitlines(), start=1))
    return [(where, line) for where, line in numbered if line]


def _parse_lines(lines, fields: dict, records: dict) -> None:
    """Convert ``(where, "key = value")`` lines into ``fields`` (config field ->
    value) and ``records`` (group -> N -> record key -> value)."""
    seen: set[str] = set()
    for where, text in lines:
        key, eq, value = text.partition("=")
        if not eq:
            raise ScenarioParseError(f"{where}: expected 'key = value', got {text!r}")
        key = key.strip().lower()
        if key in seen:
            raise ScenarioParseError(f"{where}: duplicate key '{key}'")
        seen.add(key)
        parts = key.split(".")
        if len(parts) == 3 and parts[0] in _GROUPS:
            group, index, attr = parts
            convert = _GROUPS[group][2].get(attr)
            if convert is None:
                raise ScenarioParseError(f"{where}: unknown key '{key}'")
            # One spelling per index: int() would also take '01', '+1', '-1' and '1_0'.
            if not re.fullmatch(r"0|[1-9][0-9]*", index):
                raise ScenarioParseError(f"{where}: bad index in '{key}'")
            target = records[group].setdefault(int(index), {})
        elif key in _KEYS:
            target, (attr, convert, _) = fields, _KEYS[key]
        else:
            raise ScenarioParseError(f"{where}: unknown key '{key}'")
        try:
            target[attr] = convert(value.strip())
        except ValueError as err:
            raise ScenarioParseError(f"{where}: invalid value for '{key}': {err}") from None


def parse_scenario(path, overrides: list[str] | None = None) -> tuple[ScenarioConfig, dict]:
    """Parse a scenario file plus ``--set key=value`` overrides, unvalidated.

    Returns the config and, per record group, the records' numbers ``N``
    in the order of the config's records (pushes are sorted by time)."""
    fields: dict = {}
    records: dict = {group: {} for group in _GROUPS}
    _parse_lines(_read_lines(path, "scenario"), fields, records)
    for i, item in enumerate(overrides or []):
        lines = _read_lines(f"--set[{i}]", "override", item)
        if not lines:
            raise ScenarioParseError(f"--set[{i}]: expected key=value, got {item!r}")
        _parse_lines(lines, fields, records)

    ids = {}
    for group, (record, attr, keys, order, _) in _GROUPS.items():
        built = []
        for n, entry in sorted(records[group].items()):
            missing = sorted(set(keys) - set(entry))
            if missing:
                raise ScenarioParseError(f"{group}.{n}: missing {', '.join(missing)}")
            try:
                built.append((n, record(**entry)))
            except ValueError as err:
                raise ScenarioParseError(f"{group}.{n}: {err}") from None
        if order is not None:
            built.sort(key=lambda item: getattr(item[1], order))
        fields[attr] = tuple(r for _, r in built)
        ids[group] = [n for n, _ in built]
    return ScenarioConfig(**fields), ids


def load_scenario(path, overrides: list[str] | None = None) -> ScenarioConfig:
    """Parse and validate; raises ScenarioParseError or ConfigurationError.

    Validation errors name a push or pulse by its record number ``N`` in
    the file, not by its place in the time-sorted config."""
    config, ids = parse_scenario(path, overrides)
    config._validate(ids["push"], ids["human"])
    return config


def format_config(config: ScenarioConfig) -> str:
    """Resolved config in scenario syntax (parseable back)."""
    lines = []
    for key, (attr, _, _) in _KEYS.items():
        value = getattr(config, attr)
        if value is None:
            continue
        lines.append(f"{key} = {_fmt(value)}")
    for group, (_, attr, keys, _, _) in _GROUPS.items():
        for n, record in enumerate(getattr(config, attr)):
            lines.extend(f"{group}.{n}.{key} = {_fmt(getattr(record, key))}" for key in keys)
    return "\n".join(lines) + "\n"


# -- output writers ----------------------------------------------------------


@contextlib.contextmanager
def _atomic_open(path: Path):
    """A ``.tmp`` sibling to stream into, renamed onto ``path`` once the write
    completes; a write or a rename that fails deletes it and leaves ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _num(x: float) -> str:
    return f"{x:.12g}"


#: Most rows in one chunk of ``trace.csv``.  A chunk is converted to Python
#: floats with one ``.tolist()``, so the trace is never held as Python
#: lists: a whole-trace ``.tolist()`` would raise the peak memory by several
#: times the file size, and 512 rows already by 0.75 MB.
_TRACE_BLOCK_ROWS = 128

#: The CoP pair and the leg triples (foot, desired angles, measured angles,
#: torques) of a log row, the cells a chunk of ``trace.csv`` may bake; the
#: numbers before the CoP are formatted on every row.
_TRACE_CELLS = tuple(_LOG_COLUMNS[name] for name in
                     ("cop", "foot", "joint_desired", "joint_measured", "torque"))
_PER_ROW = _TRACE_CELLS[0].start


def _trace_lines(trace: SimTrace):
    """The text of ``trace.csv`` after its header, one string per chunk.

    A chunk is at most ``_TRACE_BLOCK_ROWS`` rows of the log that share
    one phase.  A CoP pair or leg triple whose bits are the same on every
    row of the chunk is formatted once and baked, with the phase, into the
    chunk's row format; that format then takes each row's remaining
    numbers in one C-level ``%``.  Bits, not ``==``: ``-0.0 == 0.0``, but
    ``%.12g`` prints the two differently.
    """
    import numpy as np  # only simulate writes a trace; plan and sweep-weights load no numpy

    log = trace.log
    start = 0
    for phase, run in itertools.groupby(trace.phase):
        # Phases are read a chunk at a time, so each chunk is written before the next is read.
        while n := len(list(itertools.islice(run, _TRACE_BLOCK_ROWS))):
            block = log[start:start + n]
            start += n
            bits = block.view(np.int64)
            same = (bits == bits[0]).all(axis=0).tolist()
            first = block[0].tolist()
            cells, keep = [], list(range(_PER_ROW))
            for col in _TRACE_CELLS:
                a, b = col.start, col.stop
                cell = ",".join(["%.12g"] * (b - a))  # "%.12g" is _num's format
                if all(same[col]):
                    cell = (cell % tuple(first[col])).replace("%", "%%")
                else:
                    keep += range(a, b)
                cells.append(cell)
            cells.insert(1, phase.replace("%", "%%"))
            row = "%.12g," * _PER_ROW + ",".join(cells) + "\n"
            # The kept columns are often the first ones: a slice, not a copy.
            values = block[:, :len(keep)] if keep[-1] == len(keep) - 1 else block[:, keep]
            yield "".join(map(row.__mod__, map(tuple, values.tolist())))


def write_trace_csv(trace: SimTrace, path) -> None:
    with _atomic_open(Path(path)) as out:
        out.write(TRACE_HEADER + "\n")
        for text in _trace_lines(trace):
            out.write(text)


def _json_strings(value):
    """``value`` with each float that is not finite, in its lists and dicts,
    replaced by the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"
    if isinstance(value, dict):
        return {key: _json_strings(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_strings(item) for item in value]
    return value


def write_events_csv(trace: SimTrace, path) -> None:
    """Write ``events.csv``: the time, the kind and the payload as JSON.

    The payload is strict JSON: a number that is not finite is written as
    the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``.  Each row is
    what ``csv.writer`` writes for the three fields: JSON escapes every
    line break, so the payload is quoted, its quotes doubled, exactly when
    it holds a quote or a comma (the JSON of any non-empty dict does); the
    time and the kind, a plain word, never need quoting."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
    with _atomic_open(Path(path)) as out:
        out.write(EVENTS_HEADER + "\n")
        for ev in trace.events:
            text = encode(_json_strings(ev.payload))
            if '"' in text or "," in text:
                text = '"' + text.replace('"', '""') + '"'
            out.write("%.12g,%s,%s\n" % (ev.time, ev.kind, text))  # "%.12g" is _num's format


def write_summary(trace: SimTrace, path) -> StepSummary:
    """Write ``summary.txt`` and return the summary it holds."""
    summary = summarize(trace)
    lines = ["[summary]"]
    for f in dataclasses.fields(StepSummary):
        value = getattr(summary, f.name)
        lines.append(f"{f.name} = {'none' if value is None else _fmt(value)}")
    lines += [f"weights = {_fmt(trace.config.weights)}", "", "[config]",
              format_config(trace.config).rstrip("\n")]
    with _atomic_open(Path(path)) as out:
        out.write("\n".join(lines) + "\n")
    return summary


def write_gnuplot(path) -> None:
    text = "\n".join([
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set xlabel 't [s]'",
        "set terminal pngcairo size 1200,800",
        "set output 'trace.png'",
        "set multiplot layout 2,1",
        "set ylabel 'x [m]'",
        "plot 'trace.csv' using 1:2 with lines, '' using 1:6 with lines, "
        "'' using 1:8 with lines",
        "set ylabel 'y [m]'",
        "plot 'trace.csv' using 1:3 with lines, '' using 1:7 with lines, "
        "'' using 1:9 with lines",
        "unset multiplot",
        "",
    ])
    with _atomic_open(Path(path)) as out:
        out.write(text)


# -- subcommands -------------------------------------------------------------


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cannot_write(out: Path, err: OSError) -> int:
    return _fail(f"{out}: cannot write outputs: {err}", 1)


def cmd_simulate(args) -> int:
    try:
        config = load_scenario(args.scenario, args.set)
    except (ScenarioParseError, ConfigurationError) as err:
        return _fail(str(err), 1)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the loop
    except OSError as err:
        return _cannot_write(out, err)
    trace = run_scenario(config)
    try:
        write_trace_csv(trace, out / "trace.csv")
        write_events_csv(trace, out / "events.csv")
        summary = write_summary(trace, out / "summary.txt")
        if args.emit_gnuplot:
            write_gnuplot(out / "trace.gp")
    except OSError as err:
        return _cannot_write(out, err)
    print(
        f"simulated {config.duration} s: steps={summary.num_steps} "
        f"captured={'yes' if summary.captured else 'no'} "
        f"final_dcm_offset={summary.final_dcm_offset:.6g} m"
    )
    if summary.aborted:
        return 2
    return 0


def _print_plan(plan: StepPlan) -> None:
    print(f"cop_T = {_fmt(plan.cop_T)}")
    print(f"gamma_T = {_fmt(plan.gamma_T)}")
    print(f"sigma = {repr(plan.sigma)}")
    print(f"duration_s = {repr(plan.duration)}")
    print(f"xi_T = {_fmt(plan.xi_T)}")
    print(f"objective = {repr(plan.objective)}")
    print(f"status = {plan.status}")
    print(f"active_set = {','.join(map(str, plan.active_set)) or 'none'}")


def cmd_plan(args) -> int:
    try:
        config = load_scenario(args.scenario, args.set)
        xi0, cop0 = _option_vec2(args, "xi0"), _option_vec2(args, "cop0")
        program = step_program(cop0, config.omega, config.nominal_gait(), config.step_bounds())
        plan = plan_step(xi0, program)
    except (ScenarioParseError, ConfigurationError, ValueError) as err:  # a plan_step overflow too
        return _fail(str(err), 1)
    except PlannerInfeasibleError as err:
        return _fail(str(err), 2)
    _print_plan(plan)
    return 0


def _read_grid(path) -> list[tuple[str, tuple[float, float, float]]]:
    """``(path:line, triple)`` for each weight triple in the grid file."""
    triples = []
    for where, line in _read_lines(path, "grid"):
        try:
            triples.append((where, _vec3(line)))
        except ValueError as err:
            raise ScenarioParseError(f"{where}: {err}") from None
    if len(triples) < 2:
        raise ScenarioParseError(f"{Path(path)}: need at least 2 weight triples, got {len(triples)}")
    return triples


def cmd_sweep_weights(args) -> int:
    try:
        config = load_scenario(args.scenario, args.set)
        grid = _read_grid(args.grid)
        cop0 = _option_vec2(args, "cop0")
        # `+ 0.0` turns a y of -0.0 into 0.0; the sign of that zero reaches sweep.csv.
        xi0 = _option_vec2(args, "xi0") if args.xi0 is not None else (cop0[0] + 0.08, cop0[1] + 0.0)
        base, bounds = config.nominal_gait(), config.step_bounds()
        gaits = []
        for where, weights in grid:
            try:
                gaits.append(dataclasses.replace(base, weights=weights))
            except ValueError as err:
                raise ScenarioParseError(f"{where}: {err}") from None
        omega = config.omega
        results = []
        for nominal in gaits:
            plan = plan_step(xi0, step_program(cop0, omega, nominal, bounds))
            # A Python-float sum, so the length (and the flagged row it ranks)
            # does not depend on the BLAS build.
            dx, dy = plan.cop_T[0] - cop0[0], plan.cop_T[1] - cop0[1]
            results.append((plan, math.sqrt(dx * dx + dy * dy)))
    except (ScenarioParseError, ConfigurationError, ValueError) as err:  # a plan_step overflow too
        return _fail(str(err), 1)

    # Flag the most conservative plan: shortest step with the longest
    # duration, scored by summed ranks; ties resolve to grid order.
    score = [0] * len(results)
    for key in (lambda i: results[i][1], lambda i: -results[i][0].duration):
        for rank, i in enumerate(sorted(range(len(score)), key=key)):  # a stable sort
            score[i] += rank
    flagged = score.index(min(score))  # the first minimum

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with _atomic_open(out / "sweep.csv") as csv_out:
            csv_out.write("alpha1,alpha2,alpha3,cop_x,cop_y,gamma_x,gamma_y,sigma,duration_s,"
                          "step_length,objective,flagged\n")
            for i, (nominal, (plan, length)) in enumerate(zip(gaits, results)):
                weights = nominal.weights
                csv_out.write(",".join([
                    _num(weights[0]), _num(weights[1]), _num(weights[2]),
                    _num(plan.cop_T[0]), _num(plan.cop_T[1]),
                    _num(plan.gamma_T[0]), _num(plan.gamma_T[1]),
                    _num(plan.sigma), _num(plan.duration),
                    _num(length), _num(plan.objective),
                    "1" if i == flagged else "0",
                ]) + "\n")
    except OSError as err:
        return _cannot_write(out, err)

    print(f"{'alpha1':>8} {'alpha2':>8} {'alpha3':>8} {'step_len':>10} {'duration':>10} flag")
    for i, (nominal, (plan, length)) in enumerate(zip(gaits, results)):
        weights, mark = nominal.weights, ("*" if i == flagged else "")
        print(f"{weights[0]:>8g} {weights[1]:>8g} {weights[2]:>8g} "
              f"{length:>10.4f} {plan.duration:>10.4f} {mark}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on the input-error exit code, 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and then shared."""
    parser = _Parser(
        prog="exorecover",
        description="DCM-based push-recovery step planning and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    keys = scenario_key_help()

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario file (key = value lines)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one scenario key (repeatable)")

    p_sim = sub.add_parser(
        "simulate", help="run a closed-loop scenario",
        epilog=keys, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_common(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--emit-gnuplot", action="store_true",
                       help="also write a trace.gp plotting script")
    p_sim.set_defaults(func=cmd_simulate)

    p_plan = sub.add_parser(
        "plan", help="solve one step-adaptation program",
        epilog=keys, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_common(p_plan)
    p_plan.add_argument("--xi0", required=True, metavar="X,Y", help="DCM at trigger (m)")
    p_plan.add_argument("--cop0", required=True, metavar="X,Y", help="stance CoP (m)")
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser(
        "sweep-weights", help="re-plan one state over a grid of weight triples",
        epilog=keys, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_common(p_sweep)
    p_sweep.add_argument("--grid", required=True,
                         help="file with one alpha1,alpha2,alpha3 triple per line")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--xi0", metavar="X,Y", default=None,
                         help="perturbed DCM (default cop0 + 0.08,0)")
    p_sweep.add_argument("--cop0", metavar="X,Y", default="0,0", help="stance CoP")
    p_sweep.set_defaults(func=cmd_sweep_weights)
    return parser


#: Options whose value is an ``X,Y`` vector, which may start with a minus sign.
_VECTOR_OPTIONS = frozenset({"--xi0", "--cop0"})


def _attach_negative_vectors(argv: list[str]) -> list[str]:
    """Spell ``--xi0 -0.1,0`` as ``--xi0=-0.1,0``.

    argparse takes a separate value that starts with a minus sign and is
    not a plain number, such as ``-0.1,0``, for an option of its own.  So
    any single-dash token after a vector option is its value (``-inf,0``
    too); ``--xi0 --cop0`` stays a usage error.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_vectors(argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
