"""Nothing in ``src/exorecover`` that only tests read.

Every top-level function, class, method and upper-case constant defined
in the package must be referenced from code in the package, ``bench``,
``tools`` or ``demos`` somewhere outside its own definition.  Only names
the parsed code loads count: docstrings, comments, ``__all__`` lists and
the package ``__init__``'s re-exports (import statements) do not, and
neither do the tests.  Dunders and overrides of a base-class method (an
``argparse`` hook, say) are exempt, since Python or the base class calls
them.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exorecover"

#: Modules exempt by name, with the reason.
EXEMPT_MODULES = {
    "qp": "bench/spans.py traces ActiveSetQp.solve by name until the benchmark "
          "refresh of ROADMAP item 7 moves the solver into the test oracle",
}


def _sources():
    for folder in (PACKAGE, ROOT / "bench", ROOT / "tools", ROOT / "demos"):
        yield from sorted(folder.glob("*.py"))


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Loaded name -> ``(file, line)`` of each load, from every parsed file."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in _sources():
        if path == PACKAGE / "__init__.py":
            continue  # its imports are the re-exports
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _definitions():
    """``(module, qualified name, file, first line, last line)`` per definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module in EXEMPT_MODULES or module.startswith("__"):
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield (module, f"{node.name}.{item.name}", path, item.lineno,
                               item.end_lineno)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name) and leaf.id.isupper():
                            yield module, leaf.id, path, node.lineno, node.end_lineno


def _exempt(module: str, qualname: str) -> bool:
    name = qualname.rpartition(".")[2]
    if name.startswith("__") and name.endswith("__"):
        return True
    if "." in qualname:  # a method: exempt if it overrides a base class's
        cls = getattr(importlib.import_module(f"exorecover.{module}"), qualname.partition(".")[0])
        return any(hasattr(base, name) for base in cls.__mro__[1:])
    return False


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    refs = _references()
    unused = []
    for module, qualname, path, first, last in _definitions():
        if _exempt(module, qualname):
            continue
        name = qualname.rpartition(".")[2]
        outside = [(p, line) for p, line in refs.get(name, [])
                   if not (p == path and first <= line <= last)]
        if not outside:
            unused.append(f"{module}.{qualname}")
    assert unused == []


def test_only_the_qp_module_is_exempt_by_name():
    assert set(EXEMPT_MODULES) == {"qp"}
    assert (PACKAGE / "qp.py").is_file()
