"""No builtin ``min`` or ``max`` and no enum member read off its class on
the per-tick path.

A call of either builtin costs about five times the two comparisons of
``lipm.clip`` (173 against 35 ns, timeit), so the functions the loop runs
on every tick, on every in-flight replan or retarget, or once per step,
write a clamp or a larger of two as comparisons, in ``clip``'s order: a tie or a NaN keeps the
first argument, as the builtins do, so the values keep their bits.

On Python 3.11 a member read off its enum class (``Side.RIGHT``) goes
through ``EnumType.__getattr__``, about 165 ns against 15 ns for a
module name, so those functions read the module names (``RIGHT``,
``STANDING``) or a fact held on an object (``LegGeometry.right``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "exorecover"

#: ``module.function`` or ``module.Class.method`` of each per-tick function.
PER_TICK = (
    "simulation.Plant.measure",
    "simulation.Plant.step",
    "simulation.Controller.step",
    "simulation.Controller._swing",
    "simulation.Controller._track",
    "simulation.Controller._command",
    "simulation._sensed_com",
    "simulation._run_standing",
    "simulation._disturbed",
    "simulation._hip_xy",
    "simulation._leg_target",
    "detector.BalanceDetector.update",
    "planner.replan",
    "planner.step_program",
    "planner._solve",
    "planner._cost",
    "planner._binding_rows",
    "swing.sample",
    "swing.sample_position",
    "swing.retarget",
    "swing._quintic",
    "lipm.step_lipm",
    "impedance.impedance_torque",
    "impedance.command_torques",
    "impedance.joint_plant_step",
    "kinematics.forward_kinematics",
    "kinematics.inverse_kinematics",
)

#: The enum classes whose members the per-tick functions read as module names.
ENUMS = ("Side", "RecoveryPhase")


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    """Top-level functions and methods of ``module``, by (qualified) name."""
    found = {}
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return found


def _min_max_calls(function: ast.FunctionDef) -> list[int]:
    """Lines of the ``min(...)`` and ``max(...)`` calls in ``function``."""
    return [node.lineno for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max")]


def _enum_reads(function: ast.FunctionDef) -> list[int]:
    """Lines of the ``Side.X`` and ``RecoveryPhase.X`` reads in ``function``."""
    return [node.lineno for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ENUMS]


def test_no_per_tick_function_calls_min_or_max():
    calls = {}
    for name in PER_TICK:
        module, qualname = name.split(".", 1)
        functions = _functions(module)
        assert qualname in functions, f"{name} is gone: update PER_TICK"
        lines = _min_max_calls(functions[qualname])
        if lines:
            calls[name] = lines
    assert calls == {}


def test_no_per_tick_function_reads_an_enum_member_off_its_class():
    reads = {}
    for name in PER_TICK:
        module, qualname = name.split(".", 1)
        lines = _enum_reads(_functions(module)[qualname])
        if lines:
            reads[name] = lines
    assert reads == {}


def test_the_enum_check_sees_a_member_read():
    """The check finds a read anywhere in a function body, not only at its top."""
    tree = ast.parse("def f(geom):\n    if geom:\n        return [Side.RIGHT for _ in ()]\n")
    assert _enum_reads(tree.body[0]) == [3]
