"""The package source holds what a run calls; test-only code lives under tests/,
and a parameter default no call in the package overrides is a constant instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eigenwork"


def unreferenced_definitions(src: Path) -> list[str]:
    """``file:line name`` of each function or class under ``src`` whose name no
    Name, Attribute or import alias there refers to. Docstrings are not
    references, and dunders are exempt."""
    defined, referred = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, ast.alias):
                referred.add(node.name)
    return sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referred and not (name.startswith("__") and name.endswith("__")))


def unset_defaults(src: Path, exempt=("cli.py main",)) -> list[str]:
    """``file:line function(parameter)`` of each defaulted parameter under
    ``src`` that no call there, matched by the called name, passes by keyword
    or by position; a call with ``*args`` passes every positional one, and one
    with ``**kwargs`` every one.
    ``exempt`` lists ``file function`` entry points that callers outside
    ``src`` call."""
    defs, calls = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if f"{path.name} {node.name}" not in exempt:
                    defs.append((path.name, node))
            elif isinstance(node, ast.Call):
                func = node.func
                calls.append((func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", None), node))

    def passes(call: ast.Call, name: str, index, bound: int) -> bool:
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        if index is None:
            return False
        bound = bound if isinstance(call.func, ast.Attribute) else 0
        return (any(isinstance(arg, ast.Starred) for arg in call.args)
                or len(call.args) + bound > index)

    unset = []
    for file, fn in defs:
        a = fn.args
        positional = [arg.arg for arg in a.posonlyargs + a.args]
        defaulted = positional[len(positional) - len(a.defaults):] + [
            arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        bound = int(positional[:1] in (["self"], ["cls"]))  # a method called on its object
        for name in defaulted:
            index = positional.index(name) if name in positional else None
            if not any(called == fn.name and passes(call, name, index, bound)
                       for called, call in calls):
                unset.append(f"{file}:{fn.lineno} {fn.name}({name})")
    return sorted(unset)


def test_src_holds_what_a_run_calls():
    """A function only tests call, such as a full-space oracle, belongs in tests/oracles.py."""
    assert unreferenced_definitions(SRC) == []


def test_guard_sees_a_definition_only_a_docstring_names(tmp_path):
    (tmp_path / "a.py").write_text(
        'def used():\n    """Not :func:`unused`."""\n\n\n'
        "def unused():\n    return used()\n\n\n"
        "class Box:\n    def __init__(self):\n        self.size = Box\n\n"
        "    def open(self):\n        pass\n")
    (tmp_path / "b.py").write_text("from .a import Box\nBox().size\n")
    assert unreferenced_definitions(tmp_path) == ["a.py:13 open", "a.py:5 unused"]


def test_every_default_is_overridden_somewhere():
    """A tolerance no caller sets is a module constant, not a parameter."""
    assert unset_defaults(SRC) == []


def test_default_guard_matches_keywords_positions_and_methods(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, tol=1e-12, *, k=1, j=2):\n    return x\n\n\n"
        "class C:\n    def m(self, a=0, b=1):\n        return f(a, 1e-9, j=b)\n\n\n"
        "def g(*args, n=3):\n    return C().m(1)\n")
    (tmp_path / "cli.py").write_text("def main(argv=None):\n    return g(*[1])\n")
    assert unset_defaults(tmp_path) == ["a.py:1 f(k)", "a.py:10 g(n)", "a.py:6 m(b)"]


def test_package_exports_resolve():
    """Every name in ``eigenwork.__all__`` is an attribute of the package, so
    ``from eigenwork import *`` imports them all."""
    import eigenwork
    assert [name for name in eigenwork.__all__ if not hasattr(eigenwork, name)] == []
