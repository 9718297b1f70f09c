"""Outside binfmt.py, no bindlm module rewraps a caught error by hand.

binfmt.naming is the one way to re-raise a caught error with a prefix: it
names the file or the phrase and gives the reason without the exception's
class, so an `error:` line never prints a Python repr. A raise inside an
`except ... as e` handler may read e only where it changes the error's kind
rather than naming its source: the four handlers in KIND_CHANGES.
"""

import ast
from pathlib import Path

import bindlm

MODULES = sorted(p for p in Path(bindlm.__file__).parent.glob("*.py") if p.name != "binfmt.py")

# (module, outermost function around the handler, the error it raises)
KIND_CHANGES = {
    ("encoders.py", "raw_vector", "ValueError"),
    ("cli.py", "_cmd_generate", "UsageError"),
    ("train.py", "run_stage", "DivergenceError"),
    ("tensor.py", "grad_check", "GradCheckError"),
}


def caught_error_reads(source: str) -> list[tuple[str, str, int]]:
    """(function, raised name, line) for each raise inside an `except ... as e`
    handler of source that reads e; function is the outermost def around it."""
    found = []

    def visit(node, function):
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and node.name:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Raise) and any(
                        isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(sub)):
                    exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                    raised = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
                    found.append((function, raised, sub.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_the_kind_changes_read_a_caught_error():
    reads = [(p.name, *r) for p in MODULES for r in caught_error_reads(p.read_text())]
    assert [r for r in reads if r[:3] not in KIND_CHANGES] == []
    assert {r[:3] for r in reads} == KIND_CHANGES  # each listed kind change is still there


def test_a_planted_rewrap_is_found():
    source = (
        "def load(p):\n"
        "    try:\n"
        "        return read(p)\n"
        "    except KeyError as exc:\n"
        "        raise IngestError(f\"x: {exc!r}\") from None\n"
        "    except ValueError:\n"
        "        raise IngestError(\"y\") from None\n"
    )
    assert caught_error_reads(source) == [("load", "IngestError", 5)]
