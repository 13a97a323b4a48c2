"""The seed-1 outcome ledger: every behaviour change shows as a text diff.

``outcomes_seed1.txt`` holds one line per seed-1 ``push_recovery``
command of ``bench/workloads.py``, run in-process through ``cli.main``:
its exit code, touchdowns, ``Replanned`` events, landings outside the
landing box (counted by ``bench/checks.py``, as the benchmark counts
them), the worst distance from the landed foot to the final plan, the
abort reason up to its first colon and the last event; then a totals
line.  The artifacts are bit-reproducible, so the ledger is exact.

The file is re-recorded only by a change meant to move it, with

    PYTHONPATH=src python tests/test_outcomes.py

and that change's CHANGES.md entry lists each moved line with its reason.
"""

import contextlib
import difflib
import importlib.util
import io
import math
import sys
from pathlib import Path

from exorecover import cli

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "outcomes_seed1.txt"
SEED = 1

HEADER = """\
# Seed-1 push_recovery outcomes, one line per command of bench/workloads.py.
# rc: exit code; td: touchdowns; replans: Replanned events; box: touchdowns
# outside the landing box (bench/checks.py); miss_mm: worst |landed - final
# plan| over the touchdowns; abort: the StepAborted reason up to its first
# colon; last: the last event.
"""


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def ledger(work: Path) -> str:
    """The ledger text, from the seed-1 commands run with inputs and outputs under ``work``."""
    workloads, checks = _bench_module("workloads"), _bench_module("checks")
    lines, totals = [], dict(aborts=0, td=0, box=0, replans=0)
    for command in workloads.generate("push_recovery", SEED, work / "inputs"):
        out = work / command.name
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*command.argv, "--out", str(out)])
        events = checks._events((out / "events.csv").read_text())  # parsed as the bench parses them
        kinds = [kind for kind, _ in events]
        misses = [math.dist(p["landed"], p["planned"]) for k, p in events if k == "TouchDown"]
        reasons = [p["reason"].split(":")[0] for k, p in events if k == "StepAborted"]
        td, replans = kinds.count("TouchDown"), kinds.count("Replanned")
        box = checks.landing_box_violations(events, command.scenario)
        miss = f"{1e3 * max(misses):.1f}" if misses else "-"
        abort = reasons[0].replace(" ", "_") if reasons else "-"
        lines.append(f"{command.name:<20} rc={rc} td={td} replans={replans} box={box} "
                     f"miss_mm={miss} abort={abort} last={kinds[-1] if kinds else '-'}")
        for key, value in (("aborts", bool(reasons)), ("td", td), ("box", box), ("replans", replans)):
            totals[key] += value
    lines.append("total " + " ".join(f"{key}={value}" for key, value in totals.items()))
    return HEADER + "\n".join(lines) + "\n"


def test_seed1_outcomes_match_the_committed_ledger(tmp_path):
    fresh = ledger(tmp_path)
    (tmp_path / LEDGER.name).write_text(fresh)
    committed = LEDGER.read_text()
    if fresh != committed:
        diff = "".join(difflib.unified_diff(committed.splitlines(True), fresh.splitlines(True),
                                            str(LEDGER.relative_to(ROOT)), "regenerated"))
        raise AssertionError("seed-1 outcomes moved:\n" + diff)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        LEDGER.write_text(ledger(Path(work)))
    print(f"wrote {LEDGER}")
