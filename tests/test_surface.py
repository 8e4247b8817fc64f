"""The package holds only what its commands, its acceptance criteria and its
benchmark run.

A public function, method or property of a `cahnallen` module counts as
reached when one of the commands below calls it, or when the benchmark
(`perfbench/*.py` apart from its self-tests) or the acceptance gate
(`tests/test_acceptance.py`) names it: a function by its identifier, a
method or property only as `.name`.  Anything else is dead weight: move it
next to the test that needs it, or delete it.  A private function or method
is dead weight when no code in the package names it outside its own def.
"""

import ast
import contextlib
import importlib
import inspect
import io
import pathlib
import pkgutil
import re
import sys

import cahnallen
from cahnallen import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

COMMANDS = (
    ["derive"],
    ["derive", "--k", "1.37"],
    ["catalog"],
    ["verify"],
    ["eval", "--entry", "eq20+", "--t", "0,1"],
    ["eval", "--entry", "eq21+", "--t", "0,1"],
    ["simulate", "--entry", "eq20+", "--scheme", "rk4",
     "--grid=-20,20,201", "--T", "0.1"],
    ["simulate", "--entry", "eq20+", "--scheme", "imex",
     "--grid=-20,20,201", "--T", "0.1"],
    ["convergence", "--entry", "eq20+"],
)


def _code(obj):
    """The code object a call of obj runs, or None for a non-function."""
    if isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    return getattr(inspect.unwrap(obj), "__code__", None) if obj else None


def _modules():
    return [importlib.import_module(f"cahnallen.{info.name}")
            for info in pkgutil.iter_modules(cahnallen.__path__)]


def surface():
    """(name, is_method, code) for every public function, method and
    property defined in a cahnallen module."""
    out = []
    for module in _modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    code = _code(member)
                    if not attr.startswith("_") and code is not None:
                        out.append((f"{name}.{attr}", True, code))
            elif (code := _code(obj)) is not None:
                out.append((name, False, code))
    return out


def _called_by_commands() -> set:
    # empty the caches first: an earlier test's warm cache would hide the
    # calls that fill it
    for module in _modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            codes = [cli.main(argv) for argv in COMMANDS]
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(COMMANDS), sink.getvalue()
    return seen


def _named_text() -> str:
    files = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if p.name != "test_perfbench.py"]
    files.append(ROOT / "tests" / "test_acceptance.py")
    return "\n".join(p.read_text() for p in files)


def test_every_public_name_is_reached(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the commands write to the working directory
    called = _called_by_commands()
    text = _named_text()
    unreached = []
    for name, is_method, code in surface():
        short = name.rsplit(".", 1)[-1]
        pattern = rf"\.{short}\b" if is_method else rf"\b{short}\b"
        if code not in called and not re.search(pattern, text):
            unreached.append(name)
    assert not unreached, (
        "reached by no command, acceptance criterion or benchmark: "
        + ", ".join(sorted(unreached)))


def _private_defs_and_uses():
    """(name, file, first, last line) of every non-dunder private function
    or method in src, and (name, file, line) of every name and attribute
    that code in src refers to."""
    defs, uses = [], []
    for path in sorted((ROOT / "src" / "cahnallen").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (
                        name.startswith("__") and name.endswith("__")):
                    defs.append((name, path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
    return defs, uses


def test_every_private_function_is_used_in_the_package():
    defs, uses = _private_defs_and_uses()
    unused = [f"{path.name}:{name}" for name, path, first, last in defs
              if not any(used == name
                         and not (where == path and first <= line <= last)
                         for used, where, line in uses)]
    assert not unused, (
        "private functions named nowhere in src outside their own def: "
        + ", ".join(unused))


def test_no_command_line_option_is_declared_twice():
    # an option that several commands share is declared once, on a parent
    # parser; two add_argument calls with the same arguments, whatever
    # parser they add to, are one option typed twice
    tree = ast.parse((ROOT / "src" / "cahnallen" / "cli.py").read_text())
    declared = [ast.unparse(ast.Call(ast.Name("add_argument"), node.args,
                                     node.keywords))
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"]
    assert declared
    repeated = sorted({d for d in declared if declared.count(d) > 1})
    assert not repeated, "declared more than once: " + "; ".join(repeated)
