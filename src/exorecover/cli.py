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
``--xi0=-0.1,0``.

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
pulses likewise under ``human.N.*``.  Unknown keys are errors.  All
keys and their defaults are listed in ``--help`` of each subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, PlannerInfeasibleError, ScenarioParseError
from .planner import PlannerInput, StepPlan, plan_step
from .simulation import (
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
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated numbers")
    return tuple(_float(p) for p in parts)


def _vec2(text: str) -> tuple[float, float]:
    return _floats(text, 2)  # type: ignore[return-value]


def _vec3(text: str) -> tuple[float, float, float]:
    return _floats(text, 3)  # type: ignore[return-value]


def _mode(text: str) -> str:
    v = text.strip().lower()
    if v not in ("assist", "zero_torque"):
        raise ValueError("must be 'assist' or 'zero_torque'")
    return v


def _fmt(value) -> str:
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_CONVERTERS = {
    "float": _float,
    "float | None": _float,
    "int": _int,
    "tuple[float, float]": _vec2,
    "tuple[float, float, float]": _vec3,
}

#: Scenario key -> (config field, converter, help), in ScenarioConfig field
#: order; converters follow from the field annotations.
_KEYS = {
    f.metadata["key"]: (
        f.name, _mode if f.name == "mode" else _CONVERTERS[f.type], f.metadata["help"]
    )
    for f in dataclasses.fields(ScenarioConfig)
    if "key" in f.metadata
}

_PUSH_FIELDS = {"time": _float, "impulse": _vec2}
_HUMAN_FIELDS = {"joint": _int, "start": _float, "end": _float, "torque": _float}


def scenario_key_help() -> str:
    """Plain-text table of every scenario key with its default."""
    default = ScenarioConfig()
    lines = ["scenario keys (key = default  # meaning):"]
    for key, (attr, _, meaning) in _KEYS.items():
        value = getattr(default, attr)
        shown = "unset" if value is None else _fmt(value)
        lines.append(f"  {key} = {shown}  # {meaning}")
    lines.append("  push.N.time / push.N.impulse  # N = 0,1,...; impulse in N*s (x,y)")
    lines.append("  human.N.joint / .start / .end / .torque  # wearer torque pulse")
    return "\n".join(lines)


def _parse_lines(lines, source: str, fields: dict, pushes: dict, humans: dict) -> None:
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ScenarioParseError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = text.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in seen:
            raise ScenarioParseError(f"{source}:{lineno}: duplicate key '{key}'")
        seen.add(key)
        parts = key.split(".")
        if len(parts) == 3 and parts[0] in ("push", "human"):
            group, idx_text, attr = parts
            table = _PUSH_FIELDS if group == "push" else _HUMAN_FIELDS
            if attr not in table:
                raise ScenarioParseError(f"{source}:{lineno}: unknown key '{key}'")
            try:
                idx = int(idx_text, 10)
            except ValueError:
                raise ScenarioParseError(f"{source}:{lineno}: bad index in '{key}'") from None
            try:
                parsed = table[attr](value)
            except ValueError as err:
                raise ScenarioParseError(
                    f"{source}:{lineno}: invalid value for '{key}': {err}"
                ) from None
            target = pushes if group == "push" else humans
            target.setdefault(idx, {})[attr] = parsed
            continue
        entry = _KEYS.get(key)
        if entry is None:
            raise ScenarioParseError(f"{source}:{lineno}: unknown key '{key}'")
        attr, convert, _ = entry
        try:
            fields[attr] = convert(value)
        except ValueError as err:
            raise ScenarioParseError(
                f"{source}:{lineno}: invalid value for '{key}': {err}"
            ) from None


def parse_scenario(path, overrides: list[str] | None = None) -> ScenarioConfig:
    """Parse a scenario file plus ``--set key=value`` overrides."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioParseError(f"{path}: cannot read scenario: {err}") from None
    fields: dict = {}
    pushes: dict = {}
    humans: dict = {}
    _parse_lines(text.splitlines(), str(path), fields, pushes, humans)
    for i, item in enumerate(overrides or []):
        if "=" not in item:
            raise ScenarioParseError(f"--set[{i}]: expected key=value, got {item!r}")
        _parse_lines([item], f"--set[{i}]", fields, pushes, humans)

    push_events = []
    for idx in sorted(pushes):
        entry = pushes[idx]
        missing = sorted(set(_PUSH_FIELDS) - set(entry))
        if missing:
            raise ScenarioParseError(f"push.{idx}: missing {', '.join(missing)}")
        push_events.append(PushEvent(time=entry["time"], impulse=np.asarray(entry["impulse"])))
    human_pulses = []
    for idx in sorted(humans):
        entry = humans[idx]
        missing = sorted(set(_HUMAN_FIELDS) - set(entry))
        if missing:
            raise ScenarioParseError(f"human.{idx}: missing {', '.join(missing)}")
        try:
            human_pulses.append(HumanPulse(**entry))
        except ValueError as err:
            raise ScenarioParseError(f"human.{idx}: {err}") from None
    return ScenarioConfig(
        **fields,
        pushes=tuple(sorted(push_events, key=lambda p: p.time)),
        human_pulses=tuple(human_pulses),
    )


def load_scenario(path, overrides: list[str] | None = None) -> ScenarioConfig:
    """Parse and validate; raises ScenarioParseError or ConfigurationError."""
    config = parse_scenario(path, overrides)
    config.validate()
    return config


def format_config(config: ScenarioConfig) -> str:
    """Resolved config in scenario syntax (parseable back)."""
    lines = []
    for key, (attr, _, _) in _KEYS.items():
        value = getattr(config, attr)
        if value is None:
            continue
        lines.append(f"{key} = {_fmt(value)}")
    for i, push in enumerate(config.pushes):
        lines.append(f"push.{i}.time = {_fmt(push.time)}")
        lines.append(f"push.{i}.impulse = {_fmt(push.impulse)}")
    for i, pulse in enumerate(config.human_pulses):
        lines.append(f"human.{i}.joint = {pulse.joint}")
        lines.append(f"human.{i}.start = {_fmt(pulse.start)}")
        lines.append(f"human.{i}.end = {_fmt(pulse.end)}")
        lines.append(f"human.{i}.torque = {_fmt(pulse.torque)}")
    return "\n".join(lines) + "\n"


# -- output writers ----------------------------------------------------------


@contextlib.contextmanager
def _atomic_open(path: Path):
    """A ``.tmp`` sibling to stream into, renamed onto ``path`` once the write
    completes; a write that fails partway deletes it and leaves ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as out:
            yield out
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _num(x: float) -> str:
    return f"{x:.12g}"


def write_trace_csv(trace: SimTrace, path) -> None:
    # One %-format per row over Python floats ("%.12g" is _num's format).
    # Rows are converted one at a time: a whole-trace .tolist() would
    # raise the peak memory by several times the file size.
    row = ",".join(["%.12g"] * 9 + ["%s"] + ["%.12g"] * 12) + "\n"
    vectors = zip(trace.com, trace.com_vel, trace.xi, trace.cop,
                  trace.foot, trace.joint_desired, trace.joint_measured, trace.torque)
    with _atomic_open(Path(path)) as out:
        out.write(TRACE_HEADER + "\n")
        for t, phase, (com, vel, xi, cop, foot, q_des, q_meas, tau) in zip(
                trace.t.tolist(), trace.phase, vectors):
            out.write(row % (t, *com.tolist(), *vel.tolist(), *xi.tolist(), *cop.tolist(), phase,
                             *foot.tolist(), *q_des.tolist(), *q_meas.tolist(), *tau.tolist()))


def write_events_csv(trace: SimTrace, path) -> None:
    with _atomic_open(Path(path)) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(EVENTS_HEADER.split(","))
        for ev in trace.events:
            writer.writerow([
                _num(ev.time),
                ev.kind,
                json.dumps(ev.payload, sort_keys=True, separators=(",", ":")),
            ])


def _summary_lines(summary: StepSummary, config: ScenarioConfig) -> list[str]:
    lines = ["[summary]"]
    for f in dataclasses.fields(StepSummary):
        value = getattr(summary, f.name)
        lines.append(f"{f.name} = {'none' if value is None else _fmt(value)}")
    lines.append(f"weights = {_fmt(config.weights)}")
    return lines


def write_summary(trace: SimTrace, path) -> None:
    summary = summarize(trace)
    lines = _summary_lines(summary, trace.config)
    lines.append("")
    lines.append("[config]")
    lines.append(format_config(trace.config).rstrip("\n"))
    with _atomic_open(Path(path)) as out:
        out.write("\n".join(lines) + "\n")


def write_gnuplot(path, trace_name: str = "trace.csv") -> None:
    text = "\n".join([
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set xlabel 't [s]'",
        "set terminal pngcairo size 1200,800",
        "set output 'trace.png'",
        "set multiplot layout 2,1",
        "set ylabel 'x [m]'",
        f"plot '{trace_name}' using 1:2 with lines, '' using 1:6 with lines, "
        "'' using 1:8 with lines",
        "set ylabel 'y [m]'",
        f"plot '{trace_name}' using 1:3 with lines, '' using 1:7 with lines, "
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


def cmd_simulate(args) -> int:
    try:
        config = load_scenario(args.scenario, args.set)
    except (ScenarioParseError, ConfigurationError) as err:
        return _fail(str(err), 1)

    trace = run_scenario(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out / "trace.csv")
    write_events_csv(trace, out / "events.csv")
    write_summary(trace, out / "summary.txt")
    if args.emit_gnuplot:
        write_gnuplot(out / "trace.gp")
    summary = summarize(trace)
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
        xi0 = np.asarray(_vec2(args.xi0))
        cop0 = np.asarray(_vec2(args.cop0))
    except (ScenarioParseError, ConfigurationError, ValueError) as err:
        return _fail(str(err), 1)

    nominal, bounds = config.stance_frame(cop0)
    inp = PlannerInput(
        xi0=xi0, cop0=cop0, omega=config.lipm_params().omega,
        nominal=nominal, bounds=bounds,
    )
    try:
        plan = plan_step(inp)
    except PlannerInfeasibleError as err:
        return _fail(str(err), 2)
    _print_plan(plan)
    return 0


def _read_grid(path) -> list[tuple[float, float, float]]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioParseError(f"{path}: cannot read grid: {err}") from None
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            triples.append(_vec3(line))
        except ValueError as err:
            raise ScenarioParseError(f"{path}:{lineno}: {err}") from None
    if len(triples) < 2:
        raise ScenarioParseError(f"{path}: need at least 2 weight triples, got {len(triples)}")
    return triples


def cmd_sweep_weights(args) -> int:
    try:
        config = load_scenario(args.scenario, args.set)
        grid = _read_grid(args.grid)
        cop0 = np.asarray(_vec2(args.cop0))
        xi0 = np.asarray(_vec2(args.xi0)) if args.xi0 else cop0 + np.array([0.08, 0.0])
    except (ScenarioParseError, ConfigurationError, ValueError) as err:
        return _fail(str(err), 1)

    base, bounds = config.stance_frame(cop0)
    omega = config.lipm_params().omega
    results = []
    for weights in grid:
        plan = plan_step(PlannerInput(
            xi0=xi0, cop0=cop0, omega=omega,
            nominal=dataclasses.replace(base, weights=weights), bounds=bounds,
        ))
        # A Python-float sum, so the length (and the flagged row it ranks)
        # does not depend on the BLAS build.
        dx, dy = (plan.cop_T - cop0).tolist()
        results.append((plan, math.sqrt(dx * dx + dy * dy)))

    lengths = np.array([r[1] for r in results])
    durations = np.array([r[0].duration for r in results])
    # Flag the most conservative plan: shortest step with the longest
    # duration, scored by summed ranks; ties resolve to grid order.
    rank_len = np.argsort(np.argsort(lengths, kind="stable"), kind="stable")
    rank_dur = np.argsort(np.argsort(-durations, kind="stable"), kind="stable")
    flagged = int(np.argmin(rank_len + rank_dur))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _atomic_open(out / "sweep.csv") as csv_out:
        csv_out.write("alpha1,alpha2,alpha3,cop_x,cop_y,gamma_x,gamma_y,sigma,duration_s,"
                      "step_length,objective,flagged\n")
        for i, (weights, (plan, length)) in enumerate(zip(grid, results)):
            csv_out.write(",".join([
                _num(weights[0]), _num(weights[1]), _num(weights[2]),
                _num(plan.cop_T[0]), _num(plan.cop_T[1]),
                _num(plan.gamma_T[0]), _num(plan.gamma_T[1]),
                _num(plan.sigma), _num(plan.duration),
                _num(length), _num(plan.objective),
                "1" if i == flagged else "0",
            ]) + "\n")

    print(f"{'alpha1':>8} {'alpha2':>8} {'alpha3':>8} {'step_len':>10} {'duration':>10} flag")
    for i, (weights, (plan, length)) in enumerate(zip(grid, results)):
        mark = "*" if i == flagged else ""
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
    not a plain number, such as ``-0.1,0``, for an option of its own.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and re.match(r"-\.?\d", arg):
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
