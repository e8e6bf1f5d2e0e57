"""Every name the benchmark tracer wraps exists, every imported name is used,
every name of the package is bound only in its own module,
``import mesolabe.cli`` loads what the tracer needs and no more, only the
CLI loads ``mesolabe.euclid``,
``DecimalScalar`` stays a record to print, not a second number type,
records compare and hash by the one rule of ``ValueRecord``, and no function
or class of the package exists only for the tests.

``perfbench/spans.py`` wraps functions and methods of the package by name
for ``perfbench/run.py --trace 1``.  Its smoke test runs outside the default
test paths, so a deleted or renamed traced name would otherwise go unnoticed
here.  ``spans.py`` is loaded from its file; it imports nothing of the
package.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
#: Binary operators, each with its reflected and in-place method.
BINARY_OPERATORS = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod",
                    "pow", "lshift", "rshift", "and", "or", "xor")
#: The methods of a number type: arithmetic, ordering and truth value.
NUMBER_METHODS = {f"__{kind}{op}__" for op in BINARY_OPERATORS for kind in ("", "r", "i")} | {
    "__neg__", "__pos__", "__abs__", "__invert__", "__lt__", "__le__", "__gt__", "__ge__",
    "__bool__"}
#: Every module of the package and of the tests.
MODULES = sorted([*(ROOT / "src" / "mesolabe").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _traced() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module_name, path, span", _traced())
def test_traced_name_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    if "." in path:
        # the tracer replaces methods in the class's own namespace
        class_name, attr = path.split(".")
        owner = getattr(owner, class_name)
        assert attr in vars(owner), f"{module_name}.{path} ({span})"
        return
    assert callable(getattr(owner, path, None)), f"{module_name}.{path} ({span})"


def test_cli_import_set():
    # The tracer looks each module of TRACED up in sys.modules after a pass
    # that may not have run it, so every one must load with the CLI; the
    # records are plain classes, so neither dataclasses nor the inspect module
    # it imports is loaded at start-up, and only a call that a plain argv
    # does not make loads argparse.  -I -S keep site imports out.
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import mesolabe.cli; "
            "print(*sorted(sys.modules))")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "mesolabe.cli" in loaded
    assert not {"argparse", "dataclasses", "inspect"} & loaded
    assert {module for module, _, _ in _traced()} <= loaded


def test_only_the_cli_loads_euclid():
    # euclid is the Elements oracle behind check-props; the solvers, the
    # pyramid and the figures take nothing from it
    modules = ("delian", "proportio", "pyramid", "figures")
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            + "".join(f"import mesolabe.{m}; " for m in modules) + "print(*sorted(sys.modules))")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert {f"mesolabe.{m}" for m in modules} <= loaded
    assert "mesolabe.euclid" not in loaded


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name each import binds -> its line, ``from __future__`` left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, including those in quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used(ast.parse(note.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = set(_imported(tree)) - _used(tree)
    assert not unused, sorted(f"line {_imported(tree)[name]}: {name}" for name in unused)


def _bound(tree: ast.Module) -> set[str]:
    """Every name the module binds: imports, assignments, defs and classes."""
    bound = set(_imported(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    return bound


def test_no_name_is_re_exported():
    # Callers import each name from the module that defines it, so deleting a
    # name is one edit: the package init re-exports nothing and no module
    # keeps an export list.
    package = ROOT / "src" / "mesolabe"
    assert _bound(ast.parse((package / "__init__.py").read_text(encoding="utf-8"))) == {"__version__"}
    for path in sorted(package.glob("*.py")):
        assert "__all__" not in _bound(ast.parse(path.read_text(encoding="utf-8"))), path.name


def test_decimal_scalar_is_a_print_record():
    # ints at a known scale and Fractions do the arithmetic; a DecimalScalar
    # is built to be printed and compares by its fields alone
    scalar = importlib.import_module("mesolabe.scalar")
    defined = {name for cls in scalar.DecimalScalar.__mro__[:-1] for name in vars(cls)}
    assert not defined & NUMBER_METHODS, sorted(defined & NUMBER_METHODS)
    assert not hasattr(scalar, "ulp")


def test_only_value_record_compares_and_hashes():
    # every record compares and hashes its __slots__ by ValueRecord's rule,
    # so no class of the package keeps a second one
    defined = []
    for path in sorted((ROOT / "src" / "mesolabe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name != "ValueRecord":
                names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                names |= {target.id for item in node.body if isinstance(item, ast.Assign)
                          for target in item.targets if isinstance(target, ast.Name)}
                defined += [f"{path.name}: {node.name}.{name}"
                            for name in sorted(names & {"__eq__", "__hash__"})]
    assert not defined, defined


def _read(node: ast.AST) -> set[str]:
    """Names ``node`` reads: loaded names and attributes."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_no_name_exists_only_for_the_tests():
    # A module-level function or class of the package is read in src/ outside
    # its own definition, starts a traced path, is imported by the acceptance
    # suite, or is the CLI's entry point; anything else serves only the tests.
    package = ROOT / "src" / "mesolabe"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    defined, read = [], set()
    for stem, tree in trees.items():
        for node in tree.body:
            own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            defined += [(stem, name) for name in own]
            read |= {(other, name) for other in trees for name in _read(node)} - {(stem, n) for n in own}
    traced = {(module.rsplit(".", 1)[1], path.split(".")[0]) for module, path, _ in _traced()}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {(node.module.rsplit(".", 1)[1], alias.name) for node in ast.walk(acceptance)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mesolabe.")
                for alias in node.names}
    test_only = set(defined) - read - traced - imported - {("cli", "main")}
    assert not test_only, sorted(f"{stem}.{name}" for stem, name in test_only)
