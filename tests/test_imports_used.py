"""Every name a bindlm module imports is used in that module.

A name counts as used where the module reads it, including inside a quoted
annotation such as "JointEmbedding | Tensor | None". The package's
__init__.py re-exports its imports, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

import bindlm

MODULES = sorted(p for p in Path(bindlm.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.AST) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _names_read(tree)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import asdict, dataclass\n"
        "from .tensor import Tensor\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = 0\n"
        "def f(t: \"Tensor | None\") -> str:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["asdict"]
