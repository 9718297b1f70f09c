"""tensor._op is the one place that records a primitive on the Tape.

A primitive computes its forward and returns ``_op(value, inputs,
_<name>_backward, *saved)``, and its backward is a module-level function.
This holds in every bindlm module that calls ``_op``: tensor.py's
primitives and peft.py's fused adapted linear. So no function in such a
module but ``_op``, the ``_tape`` probe and Tape's own methods may call
``_tape()`` or ``_record``, or touch ``_nodes``, ``_Node`` or
``_ACTIVE_TAPE``. And no function that calls ``_op`` may define a nested
function or lambda: a primitive called without a Tape builds no backward
object.
"""

import ast
from pathlib import Path

import pytest

import bindlm

OWNERS = {"_op", "_tape"}  # and every method of Tape
RECORDING = {"_tape", "_Node", "_ACTIVE_TAPE", "_record", "_nodes"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_op_call(node: ast.AST) -> bool:
    """A call of _op, bare or as tensor._op."""
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "_op")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "_op"))


def calls_op(source: str) -> bool:
    return any(_is_op_call(node) for node in ast.walk(ast.parse(source)))


RECORDING_MODULES = sorted(p for p in Path(bindlm.__file__).parent.glob("*.py")
                           if calls_op(p.read_text()))


def _functions(tree: ast.Module):
    """(qualified name, node) for each module-level function and method."""
    for top in tree.body:
        if isinstance(top, FUNCTIONS):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, FUNCTIONS):
                    yield f"{top.name}.{item.name}", item


def recording_faults(source: str) -> list[str]:
    """'line N: function: fault' for each place in source that records on its own."""
    found = []
    for name, fn in _functions(ast.parse(source)):
        if name in OWNERS or name.startswith("Tape."):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in RECORDING:
                found.append(f"line {node.lineno}: {name}: uses {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in RECORDING:
                found.append(f"line {node.lineno}: {name}: uses .{node.attr}")
        if any(_is_op_call(node) for node in ast.walk(fn)):
            found += [f"line {node.lineno}: {name}: defines a nested function"
                      for node in ast.walk(fn)
                      if node is not fn and isinstance(node, (*FUNCTIONS, ast.Lambda))]
    return found


def test_tensor_and_peft_are_the_modules_that_record():
    assert [p.name for p in RECORDING_MODULES] == ["peft.py", "tensor.py"]


@pytest.mark.parametrize("path", RECORDING_MODULES, ids=lambda p: p.name)
def test_only_op_records(path):
    assert recording_faults(path.read_text()) == []


def test_a_planted_closure_and_a_second_recorder_are_found():
    source = (
        "def neg(a):\n"
        "    def backward(g, need):\n"
        "        return [-g]\n"
        "    return _op(-a.array, (a,), backward)\n"
        "def double(a):\n"
        "    out = Tensor(a.array * 2, _checked=True)\n"
        "    tape = _tape()\n"
        "    if tape is not None:\n"
        "        tape._record(out, (a,), lambda g, need: [g * 2])\n"
        "    return out\n"
        "def square(a):\n"
        "    return _op(a.array * a.array, (a,), _square_backward, a)\n"
        "class Tape:\n"
        "    def _record(self, out, inputs, backward):\n"
        "        self._nodes.append(_Node(out, inputs, backward))\n"
    )
    assert recording_faults(source) == [
        "line 2: neg: defines a nested function",
        "line 7: double: uses _tape",
        "line 9: double: uses ._record",
    ]


def test_a_planted_closure_in_a_second_module_is_found():
    source = (
        "from . import tensor\n"
        "from .tensor import _op\n"
        "def lora_forward(w, adapter, x):\n"
        "    y = x.array @ w.array\n"
        "    return _op(y, (x, w), lambda g, need: [g @ w.array.T, x.array.T @ g])\n"
        "def scaled(x, c):\n"
        "    return tensor._op(x.array * c, (x,), _scaled_backward, c)\n"
        "def probe():\n"
        "    return tensor._ACTIVE_TAPE.get()\n"
    )
    assert calls_op(source)
    assert recording_faults(source) == [
        "line 5: lora_forward: defines a nested function",
        "line 9: probe: uses ._ACTIVE_TAPE",
    ]
