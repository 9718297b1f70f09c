"""Every public name bindlm defines is used by the program.

A public module-level function or class in bindlm, and each public method of
such a class, must be referenced outside its own definition: in a bindlm
module other than __init__.py, which only re-exports, or under benchmarks/.
A reference is a read of the name, or of an attribute by that name. The
names that only tests use are listed in TEST_ONLY with the reason each stays.
"""

import ast
from collections import Counter
from pathlib import Path

import bindlm

MODULES = sorted(p for p in Path(bindlm.__file__).parent.glob("*.py") if p.name != "__init__.py")
BENCHMARKS = sorted((Path(__file__).resolve().parents[1] / "benchmarks").rglob("*.py"))

TEST_ONLY = {
    "grad_check": "the finite-difference check every primitive's backward is tested with",
    "tensor_sum": "the scalar loss that grad_check and the gradient tests reduce to",
    "split_adapters": "ships a tuned checkpoint's adapters without its dense weights",
    "apply_adapters": "puts split_adapters' output back on a base checkpoint",
}


def references(node: ast.AST) -> Counter:
    """How often each name or attribute is read under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def public_definitions(tree: ast.Module):
    """(qualified name, node) for each public module-level function or class,
    and each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_public_names(sources: dict[str, str], defining: list[str]) -> list[str]:
    """module:name for each public definition in the defining modules that no
    source reads outside that definition. sources maps a label to its text."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    used = sum((references(tree) for tree in trees.values()), Counter())
    unused = []
    for label in defining:
        for qualified, node in public_definitions(trees[label]):
            if used[node.name] - references(node)[node.name] <= 0:
                unused.append(f"{label}:{qualified}")
    return unused


def _unused_in_the_repo() -> list[str]:
    sources = {p.name: p.read_text() for p in MODULES}
    sources.update({str(p): p.read_text() for p in BENCHMARKS})
    return unused_public_names(sources, [p.name for p in MODULES])


def test_every_public_name_is_used_outside_tests():
    unused = _unused_in_the_repo()
    assert [u for u in unused if u.rsplit(":", 1)[1] not in TEST_ONLY] == []
    # each name kept for the tests is still defined and still unused by the program
    assert sorted(u.rsplit(":", 1)[1] for u in unused) == sorted(TEST_ONLY)


def test_an_unused_function_class_and_method_are_found():
    sources = {
        "lib.py": (
            "def used(x):\n"
            "    return used(x - 1) if x else 0\n"  # recursion is not a use
            "def _private():\n"
            "    pass\n"
            "class Store:\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def elided(self):\n"
            "        return self.elided()\n"
            "    def _hidden(self):\n"
            "        pass\n"
            "class Orphan:\n"
            "    pass\n"
        ),
        "app.py": "def main():\n    return used(Store().size())\nmain()\n",
    }
    assert unused_public_names(sources, ["lib.py", "app.py"]) == [
        "lib.py:Store.elided", "lib.py:Orphan"]
    assert unused_public_names({"lib.py": sources["lib.py"]}, ["lib.py"]) == [
        "lib.py:used", "lib.py:Store", "lib.py:Store.size", "lib.py:Store.elided",
        "lib.py:Orphan"]
