"""tensor._op is the one place that records a primitive on the Tape.

A primitive computes its forward and returns ``_op(value, inputs,
_<name>_backward, *saved)``, and its backward is a module-level function.
So no function in tensor.py but ``_op``, the ``_tape`` probe and Tape's own
methods may call ``_tape()`` or ``_record``, or touch ``_nodes``, ``_Node``
or ``_ACTIVE_TAPE``. And no function that calls ``_op`` may define a nested
function or lambda: a primitive called without a Tape builds no backward
object.
"""

import ast
from pathlib import Path

import bindlm.tensor

TENSOR = Path(bindlm.tensor.__file__)

OWNERS = {"_op", "_tape"}  # and every method of Tape
RECORDING_NAMES = {"_tape", "_Node", "_ACTIVE_TAPE"}
RECORDING_ATTRS = {"_record", "_nodes"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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
        calls_op = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in RECORDING_NAMES:
                found.append(f"line {node.lineno}: {name}: uses {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in RECORDING_ATTRS:
                found.append(f"line {node.lineno}: {name}: uses .{node.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls_op = calls_op or node.func.id == "_op"
        if calls_op:
            found += [f"line {node.lineno}: {name}: defines a nested function"
                      for node in ast.walk(fn)
                      if node is not fn and isinstance(node, (*FUNCTIONS, ast.Lambda))]
    return found


def test_only_op_records_in_tensor():
    assert recording_faults(TENSOR.read_text()) == []


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
