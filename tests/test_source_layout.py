"""The package source holds what a run calls; test-only code lives under tests/."""

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
