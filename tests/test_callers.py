"""Every function and class of the program has a caller.

A helper nothing calls is dead code that still has to be read and kept
working. This parses the package and the scripts and fails on any function
or class (methods included) whose name is referenced nowhere outside its own
body and that is not part of the public API (`ginigraph.__all__`).
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import ginigraph

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ginigraph").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
# entry points called from outside the parsed files
EXEMPT = {"cli.main"}


def _referenced_names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def uncalled_definitions(paths) -> list[str]:
    """module.name of each function or class referenced only inside itself, if at all."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    references = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if f"{module}.{name}" in EXEMPT or name in ginigraph.__all__:
                continue
            if references[name] == _referenced_names(node)[name]:
                uncalled.append(f"{module}.{name}")
    return sorted(uncalled)


def test_every_function_and_class_has_a_caller():
    assert uncalled_definitions(SOURCES) == []
