"""In-memory spans around exorecover's public functions.

``Tracer.installed()`` replaces each traced function, for the duration
of a ``with`` block, in every ``exorecover`` module namespace that holds
it (the defining module and every module that imported it by name), and
each traced method on its class.  The wrappers record one span per call:
name, start, end, parent span and the execution it belongs to.  Spans
live in flat arrays and are written out once, at the end of the run.

Self time is a span's duration minus the time its direct children cover
(calls are synchronous and single-threaded, so children never overlap).
"""

from __future__ import annotations

import array
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: (module, attribute) of every traced call; the span name is the
#: module's last component plus the function name.
TARGETS = (
    ("exorecover.cli", "load_scenario"),
    ("exorecover.cli", "write_trace_csv"),
    ("exorecover.cli", "write_events_csv"),
    ("exorecover.simulation", "run_scenario"),
    ("exorecover.planner", "plan_step"),
    ("exorecover.planner", "replan"),
    ("exorecover.qp", "ActiveSetQp.solve"),
    ("exorecover.swing", "sample"),
    ("exorecover.swing", "retarget"),
    ("exorecover.kinematics", "inverse_kinematics"),
    ("exorecover.impedance", "impedance_torque"),
    ("exorecover.impedance", "command_torques"),
    ("exorecover.impedance", "joint_plant_step"),
    ("exorecover.lipm", "step_lipm"),
    ("exorecover.detector", "BalanceDetector.update"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Span arrays, result-derived counts and the patching that feeds them."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.execution = array.array("i")
        self.current_execution = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._installs: list | None = None

    def wrap(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        execution, stack, clock = self.execution, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            execution.append(tracer.current_execution)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Deterministic counts taken from return values at the same boundaries.
    def _count_plan(self, plan) -> None:
        self.counts[f"plan_status.{plan.status}"] += 1

    def _count_replan(self, plan) -> None:
        self.counts[f"plan_status.{plan.status}"] += 1
        self.counts[f"replan_status.{plan.status}"] += 1

    def _count_solve(self, solution) -> None:
        self.counts["qp.iterations"] += solution.iterations

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(holder, key, original, wrapper) for every traced name binding."""
        hooks = {"planner.plan_step": self._count_plan, "planner.replan": self._count_replan,
                 "qp.solve": self._count_solve}
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "exorecover" or n.startswith("exorecover.")) and m is not None]
        patches = []
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            owner = importlib.import_module(module_name)
            owner_attr = attr
            if "." in attr:
                cls_name, owner_attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, owner_attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn, hooks.get(name))
            holders = [owner] if "." in attr else [
                m for m in modules if any(v is fn for v in vars(m).values())]
            patches += [(holder, key, value, wrapper) for holder in holders
                        for key, value in vars(holder).items() if value is fn]
        return patches

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the ``with`` block.  They are built on
        first use, after an untraced execution has imported every module
        the command needs."""
        if self._installs is None:
            self._installs = self._patches()
        try:
            for holder, key, _, wrapper in self._installs:
                setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original, _ in reversed(self._installs):
                setattr(holder, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "execution": np.frombuffer(self.execution, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer, passes: int, dt: float) -> dict[str, float]:
    """Per-layer statistics; totals are per pass over the traced batch."""
    a = tracer.arrays()
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    out: dict[str, float] = {}

    def by(name: str) -> np.ndarray:
        if name not in tracer.names:  # target missing from the program
            return np.zeros(dur.size, dtype=bool)
        return a["name_id"] == tracer.names.index(name)

    for module, attr in TARGETS + (("exorecover.cli", "main"),):
        name = span_name(module, attr)
        sel = by(name)
        out[f"{name}.calls"] = float(sel.sum()) / passes
        out[f"{name}.self_s"] = float(own[sel].sum()) / passes
        for q, label in ((50, "p50_us"), (99, "p99_us"), (100, "max_us")):
            out[f"{name}.{label}"] = _pct(dur[sel] * 1e6, q)

    # One lipm.step_lipm span per control tick: tick k's controller work
    # lies between the step_lipm starts of ticks k-1 and k.  A tick is a
    # swing tick when the swing foot was sampled (or a replan ran) in it.
    lipm, swingish = by("lipm.step_lipm"), by("swing.sample") | by("planner.replan")
    starts = a["start_ns"]
    ticks, swing_flags = [np.zeros(0)], [np.zeros(0, dtype=bool)]
    for ex in np.unique(a["execution"][lipm]):
        t = starts[lipm & (a["execution"] == ex)]
        s = np.sort(starts[swingish & (a["execution"] == ex)])
        ticks.append(np.diff(t) * 1e-3)
        hits = np.searchsorted(s, t[1:]) - np.searchsorted(s, t[:-1])
        swing_flags.append(hits > 0)
    tick_us, swing = np.concatenate(ticks), np.concatenate(swing_flags)
    n_ticks = int(lipm.sum())
    out["simulation.ticks"] = n_ticks / passes
    out["simulation.self_us_per_tick"] = (
        out["simulation.run_scenario.self_s"] * passes / n_ticks * 1e6 if n_ticks else 0.0)
    for label, sel in (("", slice(None)), (".stance", ~swing), (".swing", swing)):
        out[f"simulation.tick_p50_us{label}"] = _pct(tick_us[sel], 50)
        out[f"simulation.tick_p99_us{label}"] = _pct(tick_us[sel], 99)
        out[f"simulation.ticks_over_dt{label}"] = float((tick_us[sel] > dt * 1e6).sum()) / passes
    return out
