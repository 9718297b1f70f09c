"""Every config dataclass checks its fields through tensor.check_fields.

A dataclass in a bindlm module whose name ends in Config, Plan, Params or
Manifest calls check_fields(self, ...) in its __post_init__, and no code but
check_fields tests isinstance(..., bool): that test is how an int field
turns away True, and one rule should decide it for every config.
"""

import ast
from pathlib import Path

import pytest

import bindlm

MODULES = sorted(Path(bindlm.__file__).parent.glob("*.py"))

CONFIG_SUFFIXES = ("Config", "Plan", "Params", "Manifest")


def _is_dataclass(node: ast.ClassDef) -> bool:
    """@dataclass, @dataclass(...) or @dataclasses.dataclass(...)."""
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets)


def _calls_check_fields(node: ast.ClassDef) -> bool:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
            return any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                       and c.func.id == "check_fields" and c.args
                       and isinstance(c.args[0], ast.Name) and c.args[0].id == "self"
                       for c in ast.walk(item))
    return False


def _tests_bool(call: ast.Call) -> bool:
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and len(call.args) == 2):
        return False
    kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else [call.args[1]]
    return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)


def field_rule_breaches(source: str) -> list[str]:
    """'line N: what' for each config dataclass that does not call
    check_fields in __post_init__, and each isinstance(..., bool) outside
    check_fields."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ClassDef) and node.name.endswith(CONFIG_SUFFIXES)
                and _is_dataclass(node) and not _calls_check_fields(node)):
            found.append(f"line {node.lineno}: {node.name} does not call check_fields")
    exempt = {id(c) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "check_fields" for c in ast.walk(f)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt and _tests_bool(node):
            found.append(f"line {node.lineno}: isinstance(..., bool)")
    return sorted(found, key=lambda s: int(s.split(":")[0].split()[1]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_config_checks_its_fields_through_check_fields(path):
    assert field_rule_breaches(path.read_text()) == []


def test_the_lint_sees_the_configs():
    seen = [n.name for p in MODULES for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, ast.ClassDef) and n.name.endswith(CONFIG_SUFFIXES)
            and _is_dataclass(n)]
    assert {"BindConfig", "DatasetManifest", "EncoderConfig", "GenerationParams", "LMConfig",
            "TrainPlan"} <= set(seen)


def test_a_planted_config_and_bool_test_are_found():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class CacheConfig:\n"
        "    nlist: int = 4\n"
        "    def __post_init__(self):\n"
        "        if isinstance(self.nlist, (bool, float)):\n"
        "            raise ValueError(self.nlist)\n"
        "@dataclass\n"
        "class ProbeParams:\n"
        "    nprobe: int = 1\n"
        "    def __post_init__(self):\n"
        "        check_fields(self, ValueError, nprobe=1)\n"
        "def check_fields(config, error, **low):\n"
        "    return isinstance(config, bool)\n"
    )
    assert field_rule_breaches(source) == [
        "line 3: CacheConfig does not call check_fields",
        "line 6: isinstance(..., bool)",
    ]
