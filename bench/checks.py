"""Output checks and deterministic counts for one executed command.

A command fails when it raises or exits with a code other than 0/2,
when an artifact holds a non-finite number, when its artifacts differ
byte-wise from an earlier execution of the same command in the run, or
when a workload invariant breaks (``quiet_stance`` takes a step,
``trace.csv`` has the wrong row count, the exit code disagrees with the
``StepAborted`` events, ``sweep.csv`` has the wrong row count or not
exactly one flagged row).
Exit code 2 from ``simulate`` is a declared ``StepAborted`` and counts
as an abort, not a failure.

The counts (events by kind, landing-box violations, artifact bytes and
digests) come from the artifacts alone, so they stay comparable when
the program's internals are restructured.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

from exorecover import cli, mirror_bounds

ARTIFACTS = {
    "simulate": ("trace.csv", "events.csv", "summary.txt"),
    "sweep": ("sweep.csv",),
}
EVENT_KINDS = ("PlanIssued", "Replanned", "TouchDown", "StepAborted", "BalanceLost", "Captured")

# A number token that does not parse to a finite float, as written by
# ``%.12g`` (nan, inf), ``repr`` (nan, inf) or ``json.dumps`` (NaN, Infinity).
_NON_FINITE = re.compile(r"(?<![A-Za-z_])[-+]?(?:nan|inf(?:inity)?)(?![A-Za-z_])", re.IGNORECASE)
_BOX_TOL = 1e-9


def digests(out: Path, kind: str) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS[kind]}


def _events(text: str) -> list[tuple[str, dict]]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [(kind, json.loads(payload)) for _, kind, payload in rows]


def landing_box_violations(events: list[tuple[str, dict]], scenario: Path) -> int:
    """Touchdowns whose landed foot lies outside the planned CoP box.

    The box is the scenario's ``cop_min``/``cop_max`` around the stance
    foot, mirrored for a left swing, exactly as the planner receives it.
    """
    config = cli.load_scenario(scenario)
    bounds = config.step_bounds()
    half = 0.5 * config.resolved_stance_width()
    feet = {"left": (0.0, half), "right": (0.0, -half)}
    box = None
    violations = 0
    for kind, payload in events:
        if kind == "PlanIssued":
            swing = payload["swing"]
            stance = feet["right" if swing == "left" else "left"]
            side_bounds = mirror_bounds(bounds) if swing == "left" else bounds
            box = (swing, side_bounds.shift(stance))
        elif kind == "TouchDown" and box is not None:
            swing, shifted = box
            x, y = payload["landed"]
            inside = (shifted.cop_min[0] - _BOX_TOL <= x <= shifted.cop_max[0] + _BOX_TOL
                      and shifted.cop_min[1] - _BOX_TOL <= y <= shifted.cop_max[1] + _BOX_TOL)
            violations += not inside
            feet[swing] = (x, y)
            box = None
    return violations


def inspect(workload: str, command, out: Path, rc: int) -> tuple[list[str], dict]:
    """Check one command's first execution; return (problems, counts)."""
    problems = []
    counts: dict = {}
    texts = {}
    for name in ARTIFACTS[command.kind]:
        try:
            texts[name] = (out / name).read_text()
        except OSError as err:
            problems.append(f"{name} missing: {err}")
            continue
        bad = _NON_FINITE.search(texts[name])
        if bad:
            problems.append(f"{name} holds non-finite number {bad.group(0)!r}")
    if problems:
        return problems, counts

    if command.kind == "sweep":
        rows = texts["sweep.csv"].splitlines()[1:]
        flagged = sum(row.rsplit(",", 1)[1] == "1" for row in rows)
        if len(rows) != command.work:
            problems.append(f"sweep.csv has {len(rows)} rows, grid has {command.work}")
        if flagged != 1:
            problems.append(f"sweep.csv flags {flagged} rows, expected 1")
        return problems, counts

    rows = texts["trace.csv"].count("\n") - 1
    if rows != command.work:
        problems.append(f"trace.csv has {rows} rows, expected {command.work}")
    events = _events(texts["events.csv"])
    for kind in EVENT_KINDS:
        counts[kind] = sum(k == kind for k, _ in events)
    counts["trace_bytes"] = len(texts["trace.csv"].encode())
    counts["landing_box_violations"] = landing_box_violations(events, command.scenario)
    aborted = counts["StepAborted"] > 0
    if aborted != (rc == 2):
        problems.append(f"exit code {rc} disagrees with {counts['StepAborted']} StepAborted events")
    if workload == "quiet_stance" and (counts["BalanceLost"] or "step_taken = false" not in
                                       texts["summary.txt"]):
        problems.append("quiet stance took a step")
    return problems, counts
