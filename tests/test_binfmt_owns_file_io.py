"""No bindlm module but binfmt.py opens, reads or writes a file, or parses JSON.

binfmt names the file in every read error and writes JSON with sorted keys,
so a second reader or writer elsewhere would drop one of those rules.
json.dumps stays allowed: it renders stdout lines and the checkpoint's
embedded config, which never touch a file by themselves. Calls through
binfmt itself, such as binfmt.read_text, are the owner's and pass.
"""

import ast
from pathlib import Path

import pytest

import bindlm

MODULES = sorted(p for p in Path(bindlm.__file__).parent.glob("*.py") if p.name != "binfmt.py")

PATH_METHODS = {"read_text", "read_bytes", "write_text", "write_bytes"}
JSON_FUNCTIONS = {"load", "loads", "dump"}


def file_io_calls(source: str) -> list[str]:
    """'line N: call' for each call in source that only binfmt may make."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        owner = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) else None
        if isinstance(f, ast.Name) and f.id == "open":
            name = "open"
        elif isinstance(f, ast.Attribute) and f.attr in PATH_METHODS and owner != "binfmt":
            name = f".{f.attr}"
        elif owner == "json" and f.attr in JSON_FUNCTIONS:
            name = f"json.{f.attr}"
        else:
            continue
        found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_binfmt_does_file_io(path):
    assert file_io_calls(path.read_text()) == []


def test_a_planted_write_is_found():
    source = (
        "import json\n"
        "from pathlib import Path\n"
        "def save(p, obj):\n"
        "    print(json.dumps(obj))\n"
        "    Path(p).write_text(json.dumps(obj))\n"
        "    return binfmt.read_text(p, ValueError)\n"
    )
    assert file_io_calls(source) == ["line 5: .write_text"]
