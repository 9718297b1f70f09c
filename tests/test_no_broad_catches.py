"""Outside binfmt.py, no bindlm module catches Python's own lookup, type or
arithmetic errors.

binfmt.keys checks a JSON object's shape before any reader indexes it, so no
reader needs to catch what indexing unchecked JSON raises; a catch that did
would also turn a bug in the code it wraps into a data error. No except
clause, and no binfmt.naming(...) caught argument, may name TypeError,
AttributeError, KeyError, ArithmeticError, OverflowError, Exception or
BaseException, whether written directly or through a module constant. The one
exception is encoders.raw_vector: numpy's float conversion reports a value of
the wrong kind only as TypeError, ValueError or OverflowError.
"""

import ast
from pathlib import Path

import pytest

import bindlm

PACKAGE = Path(bindlm.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "binfmt.py")

BROAD = {"TypeError", "AttributeError", "KeyError", "ArithmeticError", "OverflowError",
         "Exception", "BaseException"}

# (module, the function around the catch)
ALLOWED = {("encoders.py", "raw_vector")}


def _names(node, constants: dict) -> set:
    """The exception names an except type or a caught argument gives."""
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e, constants) for e in node.elts))
    if isinstance(node, ast.Name):
        return constants.get(node.id, {node.id})
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _is_naming(func) -> bool:
    return getattr(func, "attr", getattr(func, "id", None)) == "naming"


def broad_catches(source: str) -> list[tuple[str, int, str]]:
    """(qualified function, line, name) for each broad error that an except
    clause or a naming call in source catches; a bare except counts as
    BaseException."""
    tree = ast.parse(source)
    constants: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = _names(node.value, constants)
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        caught = None
        if isinstance(node, ast.ExceptHandler):
            caught = node.type if node.type else ast.Name("BaseException")
        elif isinstance(node, ast.Call) and _is_naming(node.func):
            given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "caught"]
            caught = given[0] if given else None
        if caught is not None:
            found.extend((".".join(scope), node.lineno, name)
                         for name in sorted(_names(caught, constants) & BROAD))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_catches_a_broad_error(path):
    found = [c for c in broad_catches(path.read_text()) if (path.name, c[0]) not in ALLOWED]
    assert found == []


def test_the_allowed_catch_is_still_there():
    catches = broad_catches((PACKAGE / "encoders.py").read_text())
    assert {(f, name) for f, _, name in catches} == {("raw_vector", "OverflowError"),
                                                     ("raw_vector", "TypeError")}


def test_a_planted_broad_catch_is_found():
    source = (
        "_ERRORS = (KeyError, ValueError)\n"
        "_MORE = _ERRORS\n"
        "class Reader:\n"
        "    def load(self, p):\n"
        "        try:\n"
        "            return read(p)\n"
        "        except (KeyError, TypeError):\n"
        "            raise IngestError(p) from None\n"
        "        except ValueError:\n"
        "            pass\n"
        "        with binfmt.naming(p, _MORE, IngestError):\n"
        "            pass\n"
        "        with naming(p, caught=builtins.AttributeError, error=IngestError):\n"
        "            pass\n"
        "def parse(text):\n"
        "    try:\n"
        "        return int(text)\n"
        "    except:\n"
        "        return 0\n"
    )
    assert broad_catches(source) == [
        ("Reader.load", 7, "KeyError"),
        ("Reader.load", 7, "TypeError"),
        ("Reader.load", 11, "KeyError"),
        ("Reader.load", 13, "AttributeError"),
        ("parse", 18, "BaseException"),
    ]
