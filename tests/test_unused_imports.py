"""No module under ``src/repro`` imports a name it never uses.

``ruff.toml`` does not select F401, so this AST scan is the check: every
name an ``import`` binds must be read somewhere in its module, or be
listed in the module's ``__all__`` (a re-export).  Names inside string
annotations count as reads.
"""

from __future__ import annotations

import ast
import pathlib

SOURCE_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_imports(tree: ast.AST):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _string_annotation_names(node: ast.AST):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        for inner in ast.walk(parsed):
            if isinstance(inner, ast.Name):
                yield inner.id


def _used_names(tree: ast.AST):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                for inner in ast.walk(annotation):
                    used.update(_string_annotation_names(inner))
    return used


def _exported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str):
    """(name, line) for every import in ``source`` that nothing reads."""
    tree = ast.parse(source)
    used = _used_names(tree) | _exported_names(tree)
    return [
        (name, line) for name, line in _bound_imports(tree) if name not in used
    ]


def test_scan_flags_only_unused_imports():
    source = (
        "from typing import List, Optional\n"
        "import os.path\n"
        "import json\n"
        "__all__ = ['List']\n"
        "def f(x: 'Optional[int]'):\n"
        "    return x\n"
    )
    assert unused_imports(source) == [("os", 2), ("json", 3)]


def test_src_has_no_unused_imports():
    problems = [
        f"{path.relative_to(SOURCE_ROOT.parent)}:{line}: {name}"
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        for name, line in unused_imports(path.read_text("utf-8"))
    ]
    assert not problems, "unused imports:\n" + "\n".join(problems)
