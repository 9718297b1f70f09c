"""Span tracer that wraps bindlm's public functions from outside the library.

``Tracer.install()`` replaces every public function and public method of the
layer modules with a wrapper that records one span (name, start, end, parent
span, operation id) per call, and rebinds the names other bindlm modules
imported, so ``from .lm import caption_loss`` inside ``train`` is traced too.
``uninstall()`` puts the originals back. Nothing under ``src/`` is edited.

Spans live in flat arrays while the run lasts and are written out once at
the end. Self time is a span's duration minus the durations of its direct
children. A few counters are kept at the same boundaries: matmul FLOPs and
bytes from operand shapes, tape sizes, the useful share of weight-gradient
products, and the positions ``lm_forward`` sees while generating.
"""

from __future__ import annotations

import array
import enum
import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = (
    "tensor", "encoders", "bind", "lm", "peft", "cache",
    "train", "data", "checkpoint", "tokenizer", "evaluate",
)

# Root spans the benchmark itself opens; every layer span hangs below one.
OP_ROOT = "op"
SETUP_ROOT = "setup"


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self._stack: list[int] = []
        self.op_id = -1  # set by the benchmark; -1 marks work outside any operation
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()
        # counters; they count only inside operations, and one tracer serves one phase
        self.matmul_flops = 0
        self.matmul_bytes = 0
        self.grad_calls = 0
        self.tape_nodes = 0
        self.wgrad_flops = 0
        self.wgrad_useful_flops = 0
        self.gen_positions = 0
        self.gen_tokens = 0
        self.stage_prep_s = 0.0
        self._tape_active = False
        self._tape_wgrads: list[tuple[int, int]] = []  # (id of B operand, FLOPs of dB)
        self._transposed: dict[int, int] = {}  # id(transpose output) -> id(input)
        self._generating = 0
        self._stage_start: float | None = None

    # -- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn, pre=None, post=None):
        nid = self._nid(name)
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    # -- counters at layer boundaries ---------------------------------------

    def _after_matmul(self, args, kwargs, result):
        if self.op_id < 0:
            return
        a, b = args[0], args[1]
        m, k = a.shape
        n = b.shape[1]
        self.matmul_flops += 2 * m * k * n
        self.matmul_bytes += 8 * (m * k + k * n + m * n)
        if self._tape_active:
            # the backward pass computes dB = A^T . dC for this node: 2*k*m*n FLOPs
            self._tape_wgrads.append((id(b), 2 * k * m * n))

    def _after_transpose(self, args, kwargs, result):
        if self._tape_active:
            self._transposed[id(result)] = id(args[0])

    def _before_tape_enter(self, args, kwargs):
        self._tape_active = True
        self._tape_wgrads.clear()
        self._transposed.clear()

    def _after_tape_exit(self, args, kwargs, result):
        self._tape_active = False

    def _before_tape_grad(self, args, kwargs):
        if self.op_id < 0:
            return
        tape = args[0]
        params = kwargs.get("params", args[2] if len(args) > 2 else ())
        wanted = {id(p) for p in params}
        self.grad_calls += 1
        self.tape_nodes += len(tape)
        for b_id, flops in self._tape_wgrads:
            self.wgrad_flops += flops
            if b_id in wanted or self._transposed.get(b_id) in wanted:
                self.wgrad_useful_flops += flops

    def _after_lm_forward(self, args, kwargs, result):
        if self._generating and self.op_id >= 0:
            self.gen_positions += result.shape[0]

    def _before_generate(self, args, kwargs):
        self._generating += 1

    def _after_generate(self, args, kwargs, result):
        self._generating -= 1
        if self.op_id >= 0:
            self.gen_tokens += len(result)

    def _before_run_stage(self, args, kwargs):
        if self.op_id >= 0:
            self._stage_start = time.perf_counter()

    def _before_caption_loss(self, args, kwargs):
        if self._stage_start is not None:
            self.stage_prep_s += time.perf_counter() - self._stage_start
            self._stage_start = None

    def _hooks(self) -> dict:
        return {
            "tensor.matmul": (None, self._after_matmul),
            "tensor.transpose": (None, self._after_transpose),
            "tensor.Tape.grad": (self._before_tape_grad, None),
            "lm.lm_forward": (None, self._after_lm_forward),
            "lm.generate": (self._before_generate, self._after_generate),
            "lm.caption_loss": (self._before_caption_loss, None),
            "train.run_stage": (self._before_run_stage, None),
        }

    # -- installing wrappers ------------------------------------------------

    def install(self, extra=()) -> None:
        """Wrap the layers; ``extra`` adds (owner, attribute, span name) triples."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install(extra)
        except BaseException:
            self.uninstall()
            raise

    def _install(self, extra) -> None:
        for owner, attr, name in extra:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        hooks = self._hooks()
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bindlm.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or id(obj) in replaced:  # aliases: GradTape = Tape
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(name, obj, *hooks.get(name, (None, None)))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, (BaseException, enum.Enum))):
                    replaced[id(obj)] = obj
                    self._install_methods(layer, obj, hooks)
        # rebind imported names in bindlm and in the benchmark's own modules
        importers = [m for n, m in sys.modules.items()
                     if n.split(".")[0] in ("bindlm", "bindbench")]
        for mod in importers:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _install_methods(self, layer: str, cls, hooks: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_"):
                if cls.__name__ == "Tape" and attr in ("__enter__", "__exit__"):
                    pre, post = ((self._before_tape_enter, None) if attr == "__enter__"
                                 else (None, self._after_tape_exit))
                    self._patches.append((cls, attr, obj))
                    setattr(cls, attr, _hook_only(obj, pre, post))
                continue
            if isinstance(obj, staticmethod):
                wrapped = staticmethod(self._wrap(name, obj.__func__, *hooks.get(name, (None, None))))
            elif inspect.isfunction(obj):
                wrapped = self._wrap(name, obj, *hooks.get(name, (None, None)))
            else:
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def write_csv(self, path: Path, phase: str) -> None:
        """One line per span; times in microseconds from tracer creation."""
        s = self.spans()
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(len(s["dur"])):
                fh.write(
                    f"{phase},{i},{self._names[s['name'][i]]},"
                    f"{(s['start'][i] - self.t0) * 1e6:.3f},{(s['end'][i] - self.t0) * 1e6:.3f},"
                    f"{s['parent'][i]},{s['op'][i]}\n"
                )


def _hook_only(fn, pre, post):
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        if pre is not None:
            pre(args, kwargs)
        result = fn(*args, **kwargs)
        if post is not None:
            post(args, kwargs, result)
        return result

    return hooked


class SpanSummary:
    """Per-name call counts, self and inclusive seconds under one kind of root.

    Only spans recorded inside an operation (op id >= 0) count; work the
    benchmark does between operations, such as output checks, is left out.
    """

    def __init__(self, tracer: Tracer, root: str):
        s = tracer.spans()
        names = tracer._names
        inside = s["op"] >= 0
        root_id = names.index(root) if root in names else -1
        is_root = inside & (s["name"] == root_id)
        self.wall = float(s["dur"][is_root].sum())
        top = inside & (s["parent"] >= 0)
        top &= np.isin(s["parent"], np.nonzero(is_root)[0])
        self.top_level = float(s["dur"][top].sum())
        layer = inside & ~is_root
        self.spans = int(layer.sum())
        n = len(names)
        ids = s["name"][layer]
        self._calls = np.bincount(ids, minlength=n)
        self._self = np.bincount(ids, weights=s["self"][layer], minlength=n)
        self._incl = np.bincount(ids, weights=s["dur"][layer], minlength=n)
        self._index = {name: i for i, name in enumerate(names)}

    def calls(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else int(self._calls[i])

    def self_s(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self._self[i])

    def incl_s(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self._incl[i])

    def pct(self, seconds: float) -> float:
        return 100.0 * seconds / self.wall if self.wall > 0 else 0.0
