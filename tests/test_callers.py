"""Every function and class of the program has a caller, and every parameter a reader.

A helper nothing calls is dead code that still has to be read and kept
working. This parses the package and the scripts and fails on any function
or class (methods included) whose name is referenced nowhere outside its own
body, unless a file's `if __name__ == "__main__":` block calls it (the block
runs the file as a program, so it is no caller) or EXEMPT names it. In the
same way a parameter that its function's body never reads is an argument
every caller must pass for nothing; UNREAD_EXEMPT would name any that must
stay.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ginigraph").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
# called from outside the parsed files: the `ginigraph` console script, and
# the documented reader of the checkpoint `ginigraph train` writes and the
# forward pass of the model it loads
EXEMPT = {"cli.main", "models.load_checkpoint", "trainer.embed"}
UNREAD_EXEMPT: set[str] = set()


def _referenced_names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _is_main_block(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def callers(paths) -> tuple[dict[str, int], set[str]]:
    """(module.name -> references outside its own body, module.name of what main blocks name).

    Each function or class (dunders aside) is a key; references from a main
    block are not counted.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    references: Counter = Counter()
    entry_points: set[str] = set()
    for module, tree in trees.items():
        references += _referenced_names(tree)
        for block in filter(_is_main_block, tree.body):
            called = _referenced_names(block)
            references -= called
            entry_points |= {f"{module}.{name}" for name in called}
    counts = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                counts[f"{module}.{name}"] = references[name] - _referenced_names(node)[name]
    return counts, entry_points


def uncalled_definitions(paths) -> list[str]:
    """module.name of each function or class referenced only inside itself, if at all."""
    counts, entry_points = callers(paths)
    return sorted(
        name for name, count in counts.items() if count == 0 and name not in entry_points | EXEMPT
    )


def test_every_function_and_class_has_a_caller():
    assert uncalled_definitions(SOURCES) == []


def test_every_exemption_names_a_definition_without_a_caller():
    counts, _ = callers(SOURCES)
    assert {name: counts.get(name) for name in EXEMPT} == dict.fromkeys(EXEMPT, 0)


def unread_parameters(paths) -> list[str]:
    """module.function.parameter of each parameter (self and cls aside) its body never reads.

    A read is a load of the name anywhere in the body, nested functions
    included; defaults and decorators are not the body.
    """
    unread = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id
                for statement in body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            label = getattr(node, "name", "<lambda>")
            unread += [
                f"{path.stem}.{label}.{arg.arg}"
                for arg in named
                if arg is not None and arg.arg not in read | {"self", "cls"}
            ]
    return sorted(set(unread) - UNREAD_EXEMPT)


def test_every_parameter_is_read():
    assert unread_parameters(SOURCES) == []
