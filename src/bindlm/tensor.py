"""Dense float64 tensor math with explicit forward/backward for a closed op set.

Every primitive computes its forward and ends in ``return _op(value, inputs,
_<name>_backward, *saved)``, its hand-written backward placed right after
it. ``_op`` is the one place that records: under an active Tape (``with
Tape() as tape:``) it appends a node whose backward is ``_<name>_backward``
bound to the saved values; with none it only wraps the result.
``tape.grad(loss, params)`` replays the records in reverse to produce exact
reverse-mode gradients. The replay visits only the records on a path from a
requested parameter, and each backward computes only the input gradients on
such a path, so frozen weights and subgraphs that no parameter feeds cost
nothing. ``grad_check`` compares those gradients against central
differences.

A primitive computes its value with a kernel: a module-level function on
plain arrays that checks nothing (``_rmsnorm``, ``_attention``, ``_silu``,
``_rope`` and the one-line ``_matmul``, ``_add``, ``_mul``, ``_gather``,
``_concat``). A forward that no Tape records, the tape-free path of
lm_forward and of bind_forward, calls the kernels directly, so it gives the
primitives' bits without a Tensor, a shape check or a tape probe per step.
The sigmoid inside ``_silu`` divides once, and ``_attention`` slices its
causal mask from one cached read-only triangle (``_causal_mask``).

Every contraction (matmul and its gradients, the six products inside
causal_attention) is a numpy ``@`` and so runs on BLAS. Results are
therefore bitwise reproducible for a fixed machine, BLAS build and BLAS
thread count, and agree with any other summation order to rounding; the
tests hold them to an einsum reference at 1e-10. Nothing here sets the
thread count.

Finiteness is checked where values enter and leave a computation, not on
every primitive output. A Tensor built by a caller (parameters, loaded
weights, embeddings) is checked when it is made; primitives wrap their
results unchecked and kernels return them unchecked, so a NaN or Inf born
inside a forward travels on to the boundary that catches it: lm_forward's
logits, the loss of softmax_cross_entropy, AdamW's new parameters and
grad_check's values.
softmax_cross_entropy also checks its logits, because it drops ignored
rows, and with them any non-finite value in those rows. The elementwise
kernels (the sigmoid inside silu, the mean square inside rmsnorm) are
written for speed but give the same bits as their textbook forms, which
the tests keep as oracles.

check_fields is the one rule for the kind, finiteness and bounds of config fields.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import hashlib
import sys
from typing import Callable, Sequence

import numpy as np


class DataError(ValueError):
    """A value from outside the program (a file, a flag, a corpus or a config
    in it) is invalid. The CLI exits 2 on any DataError; the module that
    raises an error decides whether it is one."""


_FIELD_KINDS = {"int": (int, "an int"), "float": ((int, float), "a number"), "bool": (bool, "a bool")}


def check_fields(config, error: type[Exception], **low) -> None:
    """Raise error naming the first int, float or bool field of dataclass config
    that holds another kind (a bool is no number), a number not finite as a
    float, or a value below its bound in low; the error's field is its name."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        types, kind = _FIELD_KINDS.get(getattr(f.type, "__name__", f.type), (object, None))
        if kind and (not isinstance(value, types) or isinstance(value, bool) != (types is bool)):
            problem = f"not {kind}"
        elif kind and not abs(value) <= sys.float_info.max:  # an int past float range too
            problem = "not finite as a float"
        elif f.name in low and value < low[f.name]:
            problem = f"below {low[f.name]}"
        else:
            continue
        exc = error(f"{f.name} {value!r}, which is {problem}")
        exc.field = f.name
        raise exc


class ShapeError(DataError):
    """Operand shapes do not satisfy an operation's contract."""


class NonFiniteError(DataError, ArithmeticError):
    """A tensor acquired a NaN or Inf value."""


class EmptyBatchError(DataError):
    """A reduction was asked for over zero contributing positions."""


class GradCheckError(ArithmeticError):
    """Finite differencing hit a non-finite intermediate."""


def check_finite(arr: np.ndarray, what: str = "tensor") -> None:
    """Raise NonFiniteError naming the first NaN or Inf in arr, if any."""
    if not np.isfinite(arr).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise NonFiniteError(f"non-finite value at index {bad} in {what} of shape {arr.shape}")


class Tensor:
    """Immutable row-major float64 array.

    A caller-built Tensor is checked for NaN and Inf on construction.
    ``_checked=True`` skips that check; primitives pass it for their
    outputs, and the boundaries listed in the module docstring check
    instead.
    """

    __slots__ = ("array",)

    def __init__(self, values, _checked: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        arr = np.ascontiguousarray(arr)
        if not _checked:
            check_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.array.reshape(-1)[0])

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


_ACTIVE_TAPE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "bindlm_active_tape", default=None
)


class _Node:
    """One primitive application.

    backward(g, need) maps the output gradient to one input gradient per
    input; an input whose ``need`` flag is False may get None. ``_op`` binds
    it from a module-level function and the forward's saved values, so it
    never sees the Tape and no node forms a cycle through the tape that
    holds it: recorded activations die with the tape, not at a later GC.
    """

    __slots__ = ("out_id", "inputs", "backward")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward):
        self.out_id = id(out)
        self.inputs = inputs  # strong refs keep ids stable until the tape dies
        self.backward = backward


class Tape:
    """Ordered record of primitive applications for reverse-mode gradients."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._token = None

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def grad(self, loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradients of a scalar loss for each param; zeros if unused.

        A forward sweep marks every recorded output that depends on a
        requested param. The reverse sweep then visits only marked
        primitives, at most once each in reverse application order, and asks
        each for the gradients of its marked inputs alone. Every gradient it
        computes is accumulated in the order a full replay would use, so the
        results are the same bit for bit.
        """
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        reach = {id(p) for p in params}
        needs: list[tuple[bool, ...] | None] = []
        for node in self._nodes:
            need = tuple([id(t) in reach for t in node.inputs])
            if any(need):
                reach.add(node.out_id)
                needs.append(need)
            else:
                # an id freed earlier may name this output now: unmark it
                reach.discard(node.out_id)
                needs.append(None)
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.array)}
        for node, need in zip(reversed(self._nodes), reversed(needs)):
            if need is None:
                continue
            g_out = grads.pop(node.out_id, None)
            if g_out is None:
                continue
            for t_in, g_in in zip(node.inputs, node.backward(g_out, need)):
                if g_in is None:
                    continue
                key = id(t_in)
                if key in grads:
                    grads[key] = grads[key] + g_in
                else:
                    grads[key] = g_in
        return [grads[id(p)] if id(p) in grads else np.zeros_like(p.array) for p in params]


def _tape() -> Tape | None:
    return _ACTIVE_TAPE.get()


def _op(value: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable, *saved) -> Tensor:
    """Wrap a primitive's result unchecked; under a Tape, record backward(*saved, g, need)."""
    out = Tensor(value, _checked=True)
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        tape._nodes.append(_Node(out, inputs, functools.partial(backward, *saved)))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the input shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Kernels: the forward arithmetic on plain arrays
# ---------------------------------------------------------------------------
#
# See the module docstring. Some also return what the primitive's backward
# saves. The one-line kernels give every step of a tape-free forward a name
# that tests can replace, to put a NaN in front of it.


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


def _gather(table: np.ndarray, idx) -> np.ndarray:
    return table[idx]


def _concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([a, b])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x)
    # elsewhere, so both branches round exactly as a sign-split form would.
    # Selecting the numerator first and dividing once gives the same bits.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0, e) / d


def _silu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * sigmoid(x), and the sigmoid."""
    s = _sigmoid(x)
    return x * s, s


RMS_EPS = 1e-6


def _rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float = RMS_EPS):
    """Row-wise x / sqrt(mean(x^2) + eps) * gain, then 1 / sqrt(...) and x times it."""
    # sum / n is what .mean computes, without its Python-level wrapper
    inv = 1.0 / np.sqrt((x * x).sum(axis=1, keepdims=True) / x.shape[1] + eps)
    normed = x * inv
    return normed * gain, inv, normed


_MASK_FILL = -1e30  # finite stand-in for -inf; exp underflows to exactly 0.0
_CAUSAL = np.zeros((0, 0))  # read-only triu(_MASK_FILL, k=1), as long as the longest n yet


def _causal_mask(m: int, n: int) -> np.ndarray:
    """np.triu(np.full((m, n), _MASK_FILL), k=1 + n - m), sliced from _CAUSAL."""
    global _CAUSAL
    tri = _CAUSAL
    if tri.shape[0] < n:
        tri = np.triu(np.full((n, n), _MASK_FILL), k=1)
        tri.setflags(write=False)
        _CAUSAL = tri
    return tri[n - m:n, :n]


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int):
    """Causal attention of [M, C] queries over [N, C] keys/values (see
    causal_attention), then the head-major q, k, v views and the probabilities."""
    m, c = q.shape
    n = k.shape[0]
    hd = c // n_heads
    # head-major (h, rows, hd) views: every contraction is one batched BLAS call
    qh = q.reshape(m, n_heads, hd).transpose(1, 0, 2)
    kh = k.reshape(n, n_heads, hd).transpose(1, 0, 2)
    vh = v.reshape(n, n_heads, hd).transpose(1, 0, 2)
    scores = (qh @ kh.transpose(0, 2, 1)) * (1.0 / np.sqrt(hd))
    if m > 1:
        scores += _causal_mask(m, n)
    scores = scores - scores.max(axis=2, keepdims=True)
    expd = np.exp(scores)
    probs = expd / expd.sum(axis=2, keepdims=True)
    return (probs @ vh).transpose(1, 0, 2).reshape(m, c), qh, kh, vh, probs


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, n_heads: int) -> np.ndarray:
    """Per head, rotate the (even, odd) column pairs of [N, C] rows by [N, hd/2] angles."""
    n, c = x.shape
    xh = x.reshape(n, n_heads, c // n_heads)
    xe, xo = xh[:, :, 0::2], xh[:, :, 1::2]
    cc = cos[:, None, :]
    ss = sin[:, None, :]
    yh = np.empty_like(xh)
    yh[:, :, 0::2] = xe * cc - xo * ss
    yh[:, :, 1::2] = xe * ss + xo * cc
    return yh.reshape(n, c)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C = A @ B for 2-D tensors, on BLAS."""
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return _op(_matmul(a.array, b.array), (a, b), _matmul_backward, a, b)


def _matmul_backward(a, b, g, need):
    # dA = dC . B^T, dB = A^T . dC
    return [g @ b.array.T if need[0] else None,
            _weight_grad(a.array, g) if need[1] else None]


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A^T . dC, the gradient of B in C = A @ B."""
    # a one-row A makes it an outer product: one rounding per entry, so
    # exact either way, and einsum is 2-3x faster than a K=1 BLAS call at
    # the bind network's 128-256 widths
    return np.einsum("k,n->kn", a[0], g[0]) if a.shape[0] == 1 else a.T @ g


def transpose(a: Tensor) -> Tensor:
    if a.array.ndim != 2:
        raise ShapeError(f"transpose expects 2-D, got {a.shape}")
    return _op(a.array.T, (a,), _transpose_backward)


def _transpose_backward(g, need):
    return [g.T]


def add(a: Tensor, b: Tensor) -> Tensor:
    return _op(_add(a.array, b.array), (a, b), _add_backward, a, b)


def _add_backward(a, b, g, need):
    return [_unbroadcast(g, a.shape) if need[0] else None,
            _unbroadcast(g, b.shape) if need[1] else None]


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _op(_mul(a.array, b.array), (a, b), _mul_backward, a, b)


def _mul_backward(a, b, g, need):
    return [_unbroadcast(g * b.array, a.shape) if need[0] else None,
            _unbroadcast(g * a.array, b.shape) if need[1] else None]


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient for the constant)."""
    return _op(a.array * c, (a,), _scale_backward, c)


def _scale_backward(c, g, need):
    return [g * c]


def silu(x: Tensor) -> Tensor:
    """y_i = x_i * sigmoid(x_i)."""
    y, s = _silu(x.array)
    return _op(y, (x,), _silu_backward, x, s)


def _silu_backward(x, s, g, need):
    # d/dx = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
    return [g * (s * (1.0 + x.array * (1.0 - s)))]


def rmsnorm(x: Tensor, gain: Tensor, eps: float = RMS_EPS) -> Tensor:
    """Row-wise y = x / sqrt(mean(x^2) + eps) * gain; gain broadcasts as [1, C]."""
    if eps <= 0:
        raise ShapeError(f"rmsnorm eps must be > 0, got {eps}")
    if x.array.ndim != 2 or gain.array.ndim != 2 or gain.shape != (1, x.shape[1]):
        raise ShapeError(f"rmsnorm shapes: x {x.shape}, gain {gain.shape}")
    y, inv, normed = _rmsnorm(x.array, gain.array, eps)
    return _op(y, (x, gain), _rmsnorm_backward, x, gain, x.shape[1], inv, normed)


def _rmsnorm_backward(x, gain, n, inv, normed, g, need):
    dx = dgain = None
    if need[0]:
        gg = g * gain.array
        # dx_k = s*u_k - s^3/n * x_k * sum_j(u_j * x_j), u = g * gain, per row
        dot = (gg * x.array).sum(axis=1, keepdims=True)
        dx = inv * gg - (inv ** 3 / n) * x.array * dot
    if need[1]:
        dgain = (g * normed).sum(axis=0, keepdims=True)
    return [dx, dgain]


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of a [V, C] table; backward scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding id out of range [0, {table.shape[0]}): {int(idx.min())}..{int(idx.max())}"
        )
    return _op(_gather(table.array, idx), (table,), _embedding_backward, table, idx)


def _embedding_backward(table, idx, g, need):
    dt = np.zeros_like(table.array)
    np.add.at(dt, idx, g)
    return [dt]


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal self-attention over [M, C] queries and [N, C] keys/values.

    The M <= N queries are the last M positions of the N-position sequence,
    so query row i sees key rows 0..N-M+i. Splits C into n_heads, computes
    softmax(QK^T / sqrt(hd) + causal mask) V per head, and concatenates heads
    back to [M, C]. A single query row sees every key and needs no mask.
    """
    if (q.array.ndim != 2 or k.shape != v.shape or q.shape[1:] != k.shape[1:]
            or q.shape[0] > k.shape[0]):
        raise ShapeError(f"attention shapes: q {q.shape}, k {k.shape}, v {v.shape}")
    if q.shape[1] % n_heads != 0:
        raise ShapeError(f"dim {q.shape[1]} not divisible by {n_heads} heads")
    out, qh, kh, vh, probs = _attention(q.array, k.array, v.array, n_heads)
    return _op(out, (q, k, v), _causal_attention_backward, qh, kh, vh, probs)


def _causal_attention_backward(qh, kh, vh, probs, g, need):
    n_heads, m, hd = qh.shape
    n, c = kh.shape[1], n_heads * hd
    sc = 1.0 / np.sqrt(hd)
    gh = g.reshape(m, n_heads, hd).transpose(1, 0, 2)
    dq = dk = dv = None
    if need[2]:
        dv = (probs.transpose(0, 2, 1) @ gh).transpose(1, 0, 2).reshape(n, c)
    if need[0] or need[1]:
        dprobs = gh @ vh.transpose(0, 2, 1)
        # softmax backward per row: p * (dp - sum_j dp*p)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=2, keepdims=True))
        if need[0]:
            dq = ((dscores @ kh) * sc).transpose(1, 0, 2).reshape(m, c)
        if need[1]:
            dk = ((dscores.transpose(0, 2, 1) @ qh) * sc).transpose(1, 0, 2).reshape(n, c)
    return [dq, dk, dv]


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack [M, C] above [N, C] into [M + N, C]."""
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"concat_rows shape mismatch: {a.shape} over {b.shape}")
    return _op(_concat(a.array, b.array), (a, b), _concat_rows_backward, a.shape[0])


def _concat_rows_backward(m, g, need):
    return [g[:m] if need[0] else None, g[m:] if need[1] else None]


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray, n_heads: int) -> Tensor:
    """Rotary position transform on [N, C]: per head, rotate (even, odd) pairs.

    cos/sin are constant [N, hd/2] tables; the backward rotates the gradient
    by the opposite angle.
    """
    return _op(_rope(x.array, cos, sin, n_heads), (x,), _rope_backward, n_heads, cos, sin)


def _rope_backward(n_heads, cos, sin, g, need):
    n, c = g.shape
    gh = g.reshape(n, n_heads, c // n_heads)
    ge, go = gh[:, :, 0::2], gh[:, :, 1::2]
    cc, ss = cos[:, None, :], sin[:, None, :]
    dx = np.empty_like(gh)
    dx[:, :, 0::2] = ge * cc + go * ss
    dx[:, :, 1::2] = -ge * ss + go * cc
    return [dx.reshape(n, c)]


def tensor_sum(x: Tensor) -> Tensor:
    return _op(np.array([[x.array.sum()]]), (x,), _tensor_sum_backward, x)


def _tensor_sum_backward(x, g, need):
    return [np.full(x.shape, float(g.reshape(-1)[0]))]


def softmax_cross_entropy(
    logits: Tensor, targets: Sequence[int], ignore_index: int = -1
) -> Tensor:
    """Mean NLL over positions whose target != ignore_index.

    Ignored positions contribute nothing to the loss or the gradient, so
    the logits are checked for NaN and Inf in every row first, and the loss
    is checked on its way out.
    """
    if logits.array.ndim != 2:
        raise ShapeError(f"logits must be [N, V], got {logits.shape}")
    check_finite(logits.array, "logits")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (logits.shape[0],):
        raise ShapeError(f"targets shape {t.shape} vs logits rows {logits.shape[0]}")
    keep = t != ignore_index
    n_valid = int(keep.sum())
    if n_valid == 0:
        raise EmptyBatchError("all positions ignored; empty loss")
    tk = t[keep]
    if tk.min() < 0 or tk.max() >= logits.shape[1]:
        raise ShapeError(
            f"target id out of range [0, {logits.shape[1]}): {int(tk.min())}..{int(tk.max())}"
        )
    z = logits.array - logits.array.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sumz = expz.sum(axis=1, keepdims=True)
    logp = z - np.log(sumz)
    rows = np.nonzero(keep)[0]
    loss = np.array([[-logp[rows, tk].mean()]])
    check_finite(loss)
    return _op(loss, (logits,), _softmax_cross_entropy_backward, n_valid, expz, sumz, rows, tk, keep)


def _softmax_cross_entropy_backward(n_valid, expz, sumz, rows, tk, keep, g, need):
    gscale = float(g.reshape(-1)[0]) / n_valid
    d = expz / sumz
    d[rows, tk] -= 1.0
    d[~keep] = 0.0
    return [d * gscale]


# ---------------------------------------------------------------------------
# Finite-difference checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    f maps the parameter list to a scalar Tensor. The relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|, |numeric|).
    A NaN or Inf value of f, at the given params or at a bumped one, raises
    GradCheckError.
    """
    if not (0.0 < h <= 1e-2):
        raise ShapeError(f"h must be in (0, 1e-2], got {h}")
    params = list(params)

    def value(ps, where: str) -> Tensor:
        try:
            out = f(ps)
            check_finite(out.array, "the value of f")
        except NonFiniteError as exc:
            raise GradCheckError(f"non-finite intermediate {where}: {exc}") from exc
        return out

    with Tape() as tape:
        loss = value(params, "at the given params")
    analytic = tape.grad(loss, params)

    worst = 0.0
    for i, p in enumerate(params):
        flat = p.array.reshape(-1)
        for j in range(flat.size):
            vals = {}
            for sign in (+1.0, -1.0):
                bumped = p.array.copy()
                bumped.reshape(-1)[j] += sign * h
                trial = list(params)
                trial[i] = Tensor(bumped, _checked=True)
                vals[sign] = value(trial, f"at param {i}, coordinate {j}").item()
            numeric = (vals[+1.0] - vals[-1.0]) / (2.0 * h)
            ana = float(analytic[i].reshape(-1)[j])
            err = abs(ana - numeric) / max(1.0, abs(ana), abs(numeric))
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


def derive_rng(seed: int, *labels: str) -> np.random.Generator:
    """Counter-based (Philox) generator derived from a seed plus string labels.

    The same (seed, labels) always yields the same stream, independent of
    process state, so every initialization in the system is reproducible from
    one master seed.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        entropy.append(int.from_bytes(digest, "little"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], bound: float) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape), _checked=True)
