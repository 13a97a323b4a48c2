"""Every function the benchmark traces must exist in the program.

``bench/spans.py`` patches each ``(module, attr)`` of its ``TARGETS`` by
name; a missing module crashes ``--trace 1`` and a missing attribute
silently reports zeros, so a refactor of ``src/`` is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for module_name, attr in spans.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}:{attr}")
    assert missing == []
