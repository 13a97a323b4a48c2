"""exorecover benchmark.

    python3 bench/run.py --workload push_recovery --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed`` (``workloads.py``), then
drives ``exorecover.cli.main`` in this process, one command after
another, in whole passes over the workload's batch for about
``--seconds`` seconds.  Every execution's artifacts are checked
(``checks.py``).  The run prints a readable report and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` times the public entry point only and reports the
end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs each
command once untraced and once traced (``spans.py``) per pass and
reports the per-layer metrics plus the tracing overhead; its counts are
per pass over the batch, so they repeat exactly for a given seed.

The program is imported from ``src/`` of the checkout this file sits
in; the run stops with exit code 1 when it is not there.  Outputs
(inputs, artifacts, ``result.json``, ``spans.npz``) go to
``.bench_out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 13
#: Nominal seconds for a fresh interpreter to ``import numpy``, about what it
#: took on the 2-vCPU VM the baseline was measured on (0.11-0.28 s as the
#: machine's speed drifted); ``setup_s`` is expressed on that scale.
SETUP_REF_S = 0.15


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def set_up(workload: str, seed: int, inputs: Path):
    """Fresh-interpreter import of the CLI plus input generation.

    Each repeat is timed right after a reference probe, a fresh
    interpreter that only imports numpy, and divided by it; that cancels
    the machine's drift in speed, which moves raw start-up times by 30%
    and more.  Returns (median ratio times ``SETUP_REF_S``, median raw
    seconds, commands).
    """
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def fresh(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    # The first import compiles bytecode, which users pay once per install.
    fresh("import exorecover.cli")
    ratios, raw = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        reference = fresh("import numpy")
        t0 = time.perf_counter()
        fresh("import exorecover.cli")
        commands = workloads.generate(workload, seed, inputs)
        raw.append(time.perf_counter() - t0)
        ratios.append(raw[-1] / reference)
    return statistics.median(ratios) * SETUP_REF_S, statistics.median(raw), commands


#: Fixed data for ``reference_kernel``: an equality block and a diagonal
#: Hessian shaped like the step program's.
_REF_E = np.array([[1.0, 0.0, -0.1, 1.0, 0.0], [0.0, 1.0, 0.05, 0.0, 1.0]])
_REF_H = np.diag([2.0, 2.0, 0.04, 10.0, 10.0]) + 0.01


def reference_kernel() -> float:
    """Fixed work that does not touch exorecover: small-array numpy calls,
    float math and 5x5 LAPACK solves, the same kinds of work as a control
    tick and a planner solve.  Its duration tracks how fast this machine
    runs at the moment."""
    x = np.zeros(2)
    acc = 0.0
    for i in range(230):
        v = np.array([i * 1e-3, 1.0])
        x = np.clip(x + 0.5 * v, -1.0, 1.0)
        acc += math.sin(float(x[0])) + float(np.linalg.norm(v))
        z = np.linalg.lstsq(_REF_E, v + x, rcond=None)[0]
        acc += float(np.linalg.solve(np.linalg.cholesky(_REF_H), z) @ z)
    return acc


class Reference:
    """Times ``reference_kernel`` between commands, at most once every
    ``INTERVAL`` seconds, so that its samples follow the machine's speed
    through the run."""

    INTERVAL = 0.2

    def __init__(self):
        self.times: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self.last < self.INTERVAL:
            return
        t0 = time.perf_counter()
        reference_kernel()
        self.last = time.perf_counter()
        self.times.append(self.last - t0)


class Runner:
    """Executes commands, times them and checks their artifacts."""

    def __init__(self, workload: str, runs: Path):
        import checks
        from exorecover import cli

        self.checks, self.cli = checks, cli
        self.workload, self.runs = workload, runs
        self.first: dict[str, dict] = {}  # command name -> rc, digests, counts, problems
        self.executions: list[dict] = []

    def execute(self, command, main=None) -> dict:
        out = self.runs / command.name
        shutil.rmtree(out, ignore_errors=True)  # digests come from this execution's files
        argv = list(command.argv) + ["--out", str(out)]
        main = main or self.cli.main
        rc, error = None, None
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as err:
                error = f"SystemExit({err.code})"
            except Exception as err:  # reported as a failed command
                error = f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - t0
        if error:
            problems = [error]
        elif rc not in (0, 2):
            problems = [f"exit code {rc}"]
        else:
            problems = self.compare(command, out, rc)
        record = {"command": command.name, "rc": rc, "seconds": elapsed,
                  "work": command.work, "problems": problems}
        self.executions.append(record)
        return record

    def compare(self, command, out: Path, rc: int) -> list[str]:
        try:
            digests = self.checks.digests(out, command.kind)
        except OSError as err:
            return [f"artifact missing: {err}"]
        first = self.first.get(command.name)
        if first is None:
            problems, counts = self.checks.inspect(self.workload, command, out, rc)
            self.first[command.name] = {"rc": rc, "digests": digests, "counts": counts,
                                        "problems": problems}
            return problems
        if digests != first["digests"] or rc != first["rc"]:
            return ["artifacts differ from an earlier execution of the same command"]
        return first["problems"]


def measure(runner: Runner, batch, seconds: float, tracer=None, reference=None):
    """Closed loop over whole passes of ``batch`` for about ``seconds``.

    Untraced, every command runs once per pass and at least two passes
    run, so every command is repeated.  Traced, every command runs once
    untraced and once traced per pass.  Returns (passes, untraced
    executions, traced executions).
    """
    traced_main = tracer.wrap("cli.main", runner.cli.main) if tracer else None
    plain, traced = [], []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for command in batch:
            if reference is not None:
                reference.sample()
            plain.append(runner.execute(command))
            if reference is not None:
                plain[-1]["reference"] = len(reference.times) - 1
            if tracer is not None:
                tracer.current_execution = len(traced)
                with tracer.installed():
                    traced.append(runner.execute(command, traced_main))
        passes += 1
        now = time.perf_counter()
        enough = passes >= (1 if tracer else 2)
        if enough and now - start + (now - pass_start) > seconds:
            return passes, plain, traced


def work_rates(records, reference: list[float]) -> tuple[float, float]:
    """(work per second, work per reference duration) over the batch.

    Each command counts once, with the median of its executions.  For the
    second figure every execution's time is first divided by the mean of
    the reference samples taken just before and just after it, which
    cancels the machine's drift in speed during and between runs.
    """
    seconds: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for r in records:
        i = r["reference"]
        local = 0.5 * (reference[i] + reference[min(i + 1, len(reference) - 1)])
        seconds.setdefault(r["command"], []).append(r["seconds"])
        scaled.setdefault(r["command"], []).append(r["seconds"] / local)
        work[r["command"]] = r["work"]
    total = sum(work.values())
    return (total / sum(statistics.median(t) for t in seconds.values()),
            total / sum(statistics.median(t) for t in scaled.values()))


def layer_report(runner: Runner, tracer, batch, passes, plain, traced) -> dict:
    import spans
    import workloads

    m = spans.layer_metrics(tracer, passes, workloads.DT)
    firsts = [runner.first[c.name]["counts"] for c in batch if c.name in runner.first]

    def total(key: str) -> float:
        return float(sum(c.get(key, 0) for c in firsts))

    replans = m["planner.replan.calls"]
    m["planner.replan.moved_frac"] = total("Replanned") / replans if replans else 0.0
    m["planner.replan.terminal_frac"] = (
        tracer.counts["replan_status.terminal"] / passes / replans if replans else 0.0)
    m["planner.iteration_limit"] = tracer.counts["plan_status.iteration_limit"] / passes
    m["qp.iterations"] = tracer.counts["qp.iterations"] / passes
    m["cli.write_trace_csv.bytes"] = total("trace_bytes")
    m["events.replanned"] = total("Replanned")
    m["events.plan_issued"] = total("PlanIssued")
    m["simulation.landing_box_violations"] = total("landing_box_violations")
    executions = plain + traced
    m["run.abort_frac"] = sum(r["rc"] == 2 for r in executions) / len(executions)
    m["run.fail_frac"] = sum(bool(r["problems"]) for r in executions) / len(executions)

    # ROADMAP's baseline for the fixed 0.12 m forward push: 204 QP solves
    # and 122 Replanned events.
    m["baseline.forward_push.qp_solves"] = 0.0
    m["baseline.forward_push.replanned"] = 0.0
    forward = [i for i, c in enumerate(batch) if c.name.endswith("_forward")]
    if forward and batch[forward[0]].name in runner.first:
        a = tracer.arrays()
        if "qp.solve" in tracer.names:
            solves = (a["execution"] == forward[0]) & (
                a["name_id"] == tracer.names.index("qp.solve"))
            m["baseline.forward_push.qp_solves"] = float(solves.sum())
        m["baseline.forward_push.replanned"] = float(
            runner.first[batch[forward[0]].name]["counts"]["Replanned"])

    work_plain = sum(r["work"] for r in plain)
    secs_plain = sum(r["seconds"] for r in plain)
    secs_traced = sum(r["seconds"] for r in traced)
    m["trace.untraced_rate"] = work_plain / secs_plain
    m["trace.traced_rate"] = work_plain / secs_traced
    m["trace.overhead_frac"] = secs_traced / secs_plain - 1.0
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "exorecover" / "__init__.py").is_file():
        die(f"no exorecover package under {SRC}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        die(f"cannot read BENCHMARK.json: {err}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    os.environ.pop("EXORECOVER_THREADS", None)  # sweeps stay single-threaded

    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    setup_s, setup_raw_s, commands = set_up(args.workload, args.seed, work_dir / "inputs")

    sys.path.insert(0, str(SRC))
    import exorecover
    import spans
    import workloads

    if Path(exorecover.__file__).resolve().parent != SRC / "exorecover":
        die(f"imported exorecover from {exorecover.__file__}, not from {SRC}")

    env = environment()
    runner = Runner(args.workload, work_dir / "runs")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)}
    if args.trace:
        tracer = spans.Tracer()
        passes, plain, traced = measure(runner, commands, args.seconds, tracer=tracer)
        values = layer_report(runner, tracer, commands, passes, plain, traced)
        tracer.save(work_dir / "spans.npz")
        report["missing_targets"] = tracer.missing
        wanted = spec["per_layer"]
    else:
        reference = Reference()
        passes, plain, _ = measure(runner, commands, args.seconds, reference=reference)
        raw_rate, values_rate = work_rates(plain, reference.times)
        values = {"setup_s": setup_s, "work_per_ref": values_rate,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        report["work_per_s"] = raw_rate
        report["setup_raw_s"] = setup_raw_s
        report["reference_s"] = reference.times
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    executions = runner.executions
    failed = sum(bool(r["problems"]) for r in executions)
    aborted = sum(r["rc"] == 2 for r in executions)
    print(f"environment: nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={env['python']} numpy={env['numpy']}")
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {passes} passes, "
          f"{len(executions)} executions of {len(commands)} distinct commands, "
          f"{sum(r['seconds'] for r in executions):.2f} s timed")
    if not args.trace and commands[0].kind == "simulate":
        print(f"  {'sim_rate':<40} {raw_rate * workloads.DT:.6g} s/s (simulated per host second)")
    elif not args.trace:
        print(f"  {'plans_per_s':<40} {raw_rate:.6g} 1/s (sweep grid rows per host second)")
    if not args.trace:
        print(f"  {'setup_raw_s':<40} {setup_raw_s:.6g} s (unscaled median)")
    if args.workload == "push_recovery":
        print(f"  {'abort_frac':<40} {aborted / len(executions):.6g} ({aborted} of "
              f"{len(executions)} end in StepAborted)")
    print(f"  {'fail_frac':<40} {failed / len(executions):.6g} ({failed} of "
          f"{len(executions)} failed)")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    failures = [(r["command"], p) for r in executions for p in r["problems"]]
    for command, problem in failures[:20]:
        print(f"FAILED {command}: {problem}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more problems in result.json")

    report.update(passes=passes, metrics=metrics, executions=executions, commands={
        name: {k: f[k] for k in ("rc", "digests", "counts")} for name, f in runner.first.items()})
    (work_dir / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(executions),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
