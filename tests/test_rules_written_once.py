"""Each validity rule is written once, in ``lipm``'s rule vocabulary.

A message literal that says a value "must be positive", ">= 0" or
"finite" outside :func:`exorecover.lipm.broken` is a rule written again,
with its own test and its own message; checks go through
``lipm.require`` or a field's declared rule instead.  The exempt
functions check a per-call value that is no config field's rule.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "exorecover"

RULE_MESSAGE = re.compile(r"must be (positive|>= 0|finite)")

#: ``module.function`` whose literals may say it, with the reason.
EXEMPT_FUNCTIONS = {
    "lipm.broken": "the rule vocabulary, which writes every rule's message",
    "cli._float": "a scenario-file number; the key is named by the caller",
    "impedance.joint_plant_step": "the torques of one tick",
    "planner.replan": "the elapsed time of one in-flight replan",
    "swing._landing": "the plan that build_swing and retarget are given",
    "swing.sample_position": "the local time of one sample",
}

#: Modules exempt as a whole, with the reason.
EXEMPT_MODULES = {
    "qp": "the active-set solver, which the loop does not call (ROADMAP item 10)",
}


def _rule_messages(node, function=None):
    """``(enclosing function, line)`` of each string literal under ``node``
    that reads like a rule's message."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and RULE_MESSAGE.search(node.value):
        yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _rule_messages(child, function)


def _found() -> dict[str, list[int]]:
    """``module.function`` -> lines of its rule-message literals."""
    found: dict[str, list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT_MODULES:
            continue
        for function, line in _rule_messages(ast.parse(path.read_text(), str(path))):
            found.setdefault(f"{path.stem}.{function}", []).append(line)
    return found


def test_no_rule_message_is_written_outside_the_vocabulary():
    written_again = {where: lines for where, lines in _found().items()
                     if where not in EXEMPT_FUNCTIONS}
    assert written_again == {}


def test_every_exemption_is_still_needed():
    assert sorted(EXEMPT_FUNCTIONS) == sorted(_found())
    assert all((PACKAGE / f"{module}.py").is_file() for module in EXEMPT_MODULES)
