"""Toy decoder-only transformer with attention-free gated condition injection.

The condition vector is added to every position's hidden state at the input
of every layer, scaled by a learnable per-layer gate that starts at exactly
zero. With all gates at zero the conditioned forward pass is bitwise
identical to the unconditioned one, so training starts from the plain LM and
the gates open the conditioning pathway only as gradients demand it.

Generation keeps a KVCache of each layer's keys and values. It forwards
[BOS] + prompt once, then one position per new token, attending over the
cached keys, so the cost per token no longer grows with the prefix. The
condition is the same vector at every position, so cached keys never go
stale.

lm_forward runs one of two paths, chosen by whether a Tape is recording.
Training's forward records every step as a tensor primitive, and keeps each
LoRA-adapted linear in the factored form x @ W + s (x @ A^T) @ B^T + bias,
because the gradients of A and B need it, as one tape node per adapted
linear (peft.lora_forward); its cache grows by concat_rows. Without a tape
(generate, the evals, the CLI) the forward runs on plain arrays through the
kernels the primitives compute with (tensor._rmsnorm, _attention, ...), so
it gives the primitives' bits without a Tensor per step; only the logits
are wrapped. What does not change from token to token is resolved once per
request into a plan (_plan): each linear's weight with its adapter folded
in, peft.merge(W, A, B, s), and its bias; the norm gains; and each layer's
gate * condition. A plain lm_forward call builds one; a KVCache keeps the
one its first chunk built, so generate builds one per request. The fold
itself is memoized on the InjectedLM for as long as W, A and B are the same
tensors. A tape-free cache holds per-layer float64 buffers sized to the
rows the request can reach (P + N for generate), which each chunk writes in
place, so decoding copies no key or value prefix. Both adapter forms read
the adapter's tensors from lm.params and its scaling from lm.adapters. The
two forms agree to rounding, and bitwise while B = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import peft
from .bind import BindNetwork, bind_forward
from .encoders import JointEmbedding
from .tensor import (
    DataError,
    EmptyBatchError,
    ShapeError,
    Tensor,
    add,
    causal_attention,
    check_fields,
    check_finite,
    concat_rows,
    derive_rng,
    embedding,
    matmul,
    mul,
    rmsnorm,
    rope,
    silu,
    softmax_cross_entropy,
    uniform_init,
    _add,
    _attention,
    _gather,
    _matmul,
    _mul,
    _rmsnorm,
    _rope,
    _silu,
    _tape,
)
from .tokenizer import BOS, EOS, VOCAB_SIZE, VocabularyError

PROMPT_TEMPLATE = "Instruction: {instruction}\nResponse:"
YESNO_SUFFIX = " Please answer yes or no."


def prompt_template(instruction: str) -> str:
    return PROMPT_TEMPLATE.format(instruction=instruction)


def yesno_prompt(question: str) -> str:
    return prompt_template(question + YESNO_SUFFIX)


class TruncationError(DataError):
    """A sequence would exceed the model's maximum length."""


@dataclass(frozen=True)
class LMConfig:
    vocab_size: int = VOCAB_SIZE
    dim: int = 128
    layers: int = 4
    heads: int = 4
    max_seq: int = 128
    positions: str = "learned"  # or "rope"
    shared_gate: bool = False
    ffn_hidden: int = 256

    def __post_init__(self):
        check_fields(self, ShapeError, vocab_size=1, dim=1, layers=1, heads=1, max_seq=1,
                     ffn_hidden=1)
        if self.dim % self.heads != 0:
            raise ShapeError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.positions not in ("learned", "rope"):
            raise ShapeError(f"positions must be learned|rope, got {self.positions!r}")
        if self.positions == "rope" and self.dim // self.heads % 2:
            raise ShapeError(f"rope needs an even head width, got dim {self.dim}"
                             f" / heads {self.heads} = {self.dim // self.heads}")


class GenerationParamsError(DataError):
    """A generation setting check_fields rejects; field names the setting."""


@dataclass(frozen=True)
class GenerationParams:
    max_new_tokens: int = 24
    temperature: float = 0.0  # 0 means greedy argmax
    top_k: int = 0  # 0 means no cutoff
    seed: int = 0

    def __post_init__(self):
        check_fields(self, GenerationParamsError, max_new_tokens=0, temperature=0, top_k=0)


class InjectedLM:
    """Parameter store plus adapter metadata; forward logic is lm_forward."""

    def __init__(self, config: LMConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.adapters: dict[str, peft.LoraSpec] = {}
        # linear name -> (W, A, B, folded weight); see _resolve_linear
        self._folded: dict[str, tuple] = {}
        if config.positions == "rope":
            hd = config.dim // config.heads
            pos = np.arange(config.max_seq)[:, None]
            freqs = 1.0 / (10000.0 ** (np.arange(hd // 2)[None, :] * 2.0 / hd))
            self._rope_cos = np.cos(pos * freqs)
            self._rope_sin = np.sin(pos * freqs)

    def gate_name(self, layer: int) -> str:
        return "gates.shared" if self.config.shared_gate else f"gates.{layer}"

    def gate_values(self) -> list[float]:
        if self.config.shared_gate:
            return [self.params["gates.shared"].item()]
        return [self.params[f"gates.{l}"].item() for l in range(self.config.layers)]


def lm_param_shapes(config: LMConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter lm_init creates for config."""
    c, f = config.dim, config.ffn_hidden
    shapes = {"tok_emb": (config.vocab_size, c)}
    if config.positions == "learned":
        shapes["pos_emb"] = (config.max_seq, c)
    for l in range(config.layers):
        shapes.update({f"layers.{l}.{name}": (c, c) for name in ("wq", "wk", "wv", "wo")})
        shapes[f"layers.{l}.attn_norm"] = shapes[f"layers.{l}.ffn_norm"] = (1, c)
        shapes[f"layers.{l}.w_gate"] = shapes[f"layers.{l}.w_up"] = (c, f)
        shapes[f"layers.{l}.w_down"] = (f, c)
    shapes["final_norm"] = (1, c)
    shapes["head"] = (c, config.vocab_size)
    gates = ["shared"] if config.shared_gate else range(config.layers)
    shapes.update({f"gates.{g}": (1, 1) for g in gates})
    return shapes


def lm_init(config: LMConfig, seed: int) -> InjectedLM:
    """Norm gains at one, gates at zero, and every weight uniform, drawn in
    lm_param_shapes order from its stream: embeddings, layer{l} or head."""
    params: dict[str, Tensor] = {}
    rngs: dict[str, np.random.Generator] = {}
    for name, shape in lm_param_shapes(config).items():
        if name.endswith("norm") or name.startswith("gates."):
            params[name] = Tensor(np.full(shape, 1.0 if name.endswith("norm") else 0.0))
            continue
        if name.startswith("layers."):
            stream, bound = f"layer{name.split('.')[1]}", 1.0 / np.sqrt(shape[0])
        elif name == "head":
            # near-uniform, so untrained loss is ~log(V), yet every column has a direction
            stream, bound = "head", 0.02
        else:
            stream, bound = "embeddings", 1.0 / np.sqrt(config.dim) if name == "tok_emb" else 0.01
        if stream not in rngs:
            rngs[stream] = derive_rng(seed, "lm", stream)
        params[name] = uniform_init(rngs[stream], shape, bound)
    return InjectedLM(config, params)


def _linear(lm: InjectedLM, name: str, x: Tensor) -> Tensor:
    """x @ W for the named linear under a Tape; an adapter stays factored
    (peft.lora_forward), so that A and B get gradients."""
    params = lm.params
    w = params[name]
    if name not in lm.adapters:
        return matmul(x, w)
    return peft.lora_forward(x, w, params[name + ".lora_a"], params[name + ".lora_b"],
                             params[name + ".bias"], lm.adapters[name].scaling)


_LINEARS = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")
_Linear = tuple[np.ndarray, "np.ndarray | None"]  # weight, bias


def _resolve_linear(lm: InjectedLM, name: str) -> _Linear:
    """The named linear's weight array, its adapter folded into W + s A^T B^T,
    and the adapter's bias array (None without an adapter).

    The fold is redone whenever W, A or B is no longer the tensor it was
    folded from: the memo holds those tensors, so a freed id cannot alias a
    new one.
    """
    params = lm.params
    w = params[name]
    if name not in lm.adapters:
        return w.array, None
    a, b = params[name + ".lora_a"], params[name + ".lora_b"]
    hit = lm._folded.get(name)
    if not (hit and hit[0] is w and hit[1] is a and hit[2] is b):
        hit = lm._folded[name] = (w, a, b, peft.merge(w, a, b, lm.adapters[name].scaling).array)
    return hit[3], params[name + ".bias"].array


def _plain_linear(x: np.ndarray, linear: _Linear) -> np.ndarray:
    """x @ W on arrays for a (weight, bias) pair from _resolve_linear, plus the bias."""
    w, bias = linear
    y = _matmul(x, w)
    return y if bias is None else _add(y, bias)


class _LayerPlan(NamedTuple):
    inject: np.ndarray | None  # gate * condition, None without a condition
    attn_norm: np.ndarray
    wq: _Linear
    wk: _Linear
    wv: _Linear
    wo: _Linear
    ffn_norm: np.ndarray
    w_gate: _Linear
    w_up: _Linear
    w_down: _Linear


class _Plan(NamedTuple):
    """The arrays a tape-free forward reads, resolved once per request."""

    lm: InjectedLM
    condition: Tensor | None
    tok_emb: np.ndarray
    pos_emb: np.ndarray | None  # None under rope
    layers: list[_LayerPlan]
    final_norm: np.ndarray
    head: np.ndarray


def _plan(lm: InjectedLM, condition: Tensor | None) -> _Plan:
    """Every linear's weight and bias (_resolve_linear), every norm gain and
    each layer's gate * condition, for the forwards of one request."""
    params = lm.params
    layers = []
    for l in range(lm.config.layers):
        p = f"layers.{l}."
        inject = None if condition is None else _mul(params[lm.gate_name(l)].array,
                                                     condition.array)
        layers.append(_LayerPlan(inject=inject, attn_norm=params[p + "attn_norm"].array,
                                 ffn_norm=params[p + "ffn_norm"].array,
                                 **{w: _resolve_linear(lm, p + w) for w in _LINEARS}))
    pos_emb = params["pos_emb"].array if lm.config.positions == "learned" else None
    return _Plan(lm, condition, params["tok_emb"].array, pos_emb, layers,
                 params["final_norm"].array, params["head"].array)


def _write_rows(rows: np.ndarray, buf: np.ndarray, at: int) -> np.ndarray:
    """Copy rows into buf from row at on; return buf's rows up to the last one written."""
    end = at + rows.shape[0]
    buf[at:end] = rows
    return buf[:end]


class KVCache:
    """Each layer's keys and values for the positions forwarded so far.

    Passing one cache to successive lm_forward calls feeds a sequence in
    chunks: each call forwards only its new tokens and attends over every
    cached key. A cache serves one request: every chunk must carry the same
    condition. The first tape-free chunk resolves the plan (_plan), and later
    chunks given the same model and condition Tensor reuse it, so they run
    on the weights that chunk saw.

    rows caps the positions the cache holds; None means the model's max_seq.
    Without a Tape each layer's keys and values sit in float64 buffers of
    rows rows, allocated by the first chunk; every chunk writes its rows in
    place and attention reads the filled prefix. Under a Tape they are
    Tensors that concat_rows extends, so that gradients reach earlier
    chunks. A cache keeps the mode of its first chunk: a chunk in the other
    mode raises ShapeError.
    """

    def __init__(self, rows: int | None = None):
        self.rows = rows
        self.length = 0
        self._taped: bool | None = None  # set by the first chunk
        self._keys: list[np.ndarray | Tensor] = []  # buffers without a Tape
        self._values: list[np.ndarray | Tensor] = []
        self._plan: _Plan | None = None

    @property
    def keys(self) -> list[np.ndarray | Tensor]:
        """Each layer's keys, [length, C]."""
        return self._keys if self._taped else [buf[:self.length] for buf in self._keys]

    @property
    def values(self) -> list[np.ndarray | Tensor]:
        """Each layer's values, [length, C]."""
        return self._values if self._taped else [buf[:self.length] for buf in self._values]

    def _plain_plan(self, lm: InjectedLM, condition: Tensor | None) -> _Plan:
        """The plan for this cache's chunks; the first chunk also allocates the buffers."""
        plan = self._plan
        if plan is None or plan.lm is not lm or plan.condition is not condition:
            plan = self._plan = _plan(lm, condition)
        if not self._keys:
            shape = (lm.config.max_seq if self.rows is None else self.rows, lm.config.dim)
            self._keys = [np.empty(shape) for _ in range(lm.config.layers)]
            self._values = [np.empty(shape) for _ in range(lm.config.layers)]
        return plan


_MODES = {True: "under a Tape", False: "without a Tape"}


def lm_forward(lm: InjectedLM, tokens, condition: Tensor | None = None,
               cache: KVCache | None = None) -> Tensor:
    """Logits [N, V] for a token sequence, optionally condition-injected.

    With a cache the tokens continue the cached positions, and the cache
    gains their keys and values. Under a recording Tape each step is a
    primitive; with none the forward runs on plain arrays (_plain_forward).
    A NaN or Inf anywhere in the forward reaches the logits, which raise
    NonFiniteError.
    """
    ids = list(tokens)
    if not ids:
        raise ShapeError("empty token sequence")
    start = 0 if cache is None else cache.length
    n = len(ids)
    if start + n > lm.config.max_seq:
        raise TruncationError(f"sequence length {start + n} > max_seq {lm.config.max_seq}")
    if cache is not None and cache.rows is not None and start + n > cache.rows:
        raise TruncationError(f"sequence length {start + n} > the cache's {cache.rows} rows")
    if max(ids) >= lm.config.vocab_size or min(ids) < 0:
        raise VocabularyError(
            f"token id outside [0, {lm.config.vocab_size}): {min(ids)}..{max(ids)}"
        )
    if condition is not None and condition.shape != (1, lm.config.dim):
        raise ShapeError(f"condition must be [1, {lm.config.dim}], got {condition.shape}")
    taped = _tape() is not None
    if cache is not None:
        if cache._taped is None:
            cache._taped = taped
        elif cache._taped != taped:
            raise ShapeError(f"a KVCache filled {_MODES[cache._taped]} cannot take a chunk "
                             f"{_MODES[taped]}")
    if taped:
        logits = _taped_forward(lm, ids, start, condition, cache)
    else:
        plan = _plan(lm, condition) if cache is None else cache._plain_plan(lm, condition)
        logits = Tensor(_plain_forward(plan, ids, start, cache), _checked=True)
    check_finite(logits.array, "logits")
    return logits


def _plain_forward(plan: _Plan, ids: list[int], start: int, cache: KVCache | None) -> np.ndarray:
    """_taped_forward's steps, each adapter folded, as tensor.py's kernels on the
    plan's arrays: the primitives' bits, without a Tensor per step. A cache's
    keys and values are written into its buffers (_write_rows), not concatenated."""
    lm = plan.lm
    cfg = lm.config
    end = start + len(ids)
    rope = cfg.positions == "rope"
    x = _gather(plan.tok_emb, np.asarray(ids, dtype=np.int64))
    if rope:
        cos, sin = lm._rope_cos[start:end], lm._rope_sin[start:end]
    else:
        x = _add(x, _gather(plan.pos_emb, slice(start, end)))
    for l, layer in enumerate(plan.layers):
        if layer.inject is not None:
            x = _add(x, layer.inject)
        h = _rmsnorm(x, layer.attn_norm)[0]
        q = _plain_linear(h, layer.wq)
        k = _plain_linear(h, layer.wk)
        v = _plain_linear(h, layer.wv)
        if rope:
            q = _rope(q, cos, sin, cfg.heads)
            k = _rope(k, cos, sin, cfg.heads)
        if cache is not None:
            k = _write_rows(k, cache._keys[l], start)
            v = _write_rows(v, cache._values[l], start)
        x = _add(x, _plain_linear(_attention(q, k, v, cfg.heads)[0], layer.wo))
        h2 = _rmsnorm(x, layer.ffn_norm)[0]
        gated = _mul(_silu(_plain_linear(h2, layer.w_gate))[0], _plain_linear(h2, layer.w_up))
        x = _add(x, _plain_linear(gated, layer.w_down))
    if cache is not None:
        cache.length = end
    return _matmul(_rmsnorm(x, plan.final_norm)[0], plan.head)


def _taped_forward(lm: InjectedLM, ids: list[int], start: int, condition: Tensor | None,
                   cache: KVCache | None) -> Tensor:
    """The forward as recorded primitives, adapters factored, for training."""
    cfg, params = lm.config, lm.params
    n = len(ids)
    x = embedding(params["tok_emb"], ids)
    if cfg.positions == "learned":
        x = add(x, embedding(params["pos_emb"], range(start, start + n)))
    keys, values = [], []
    for l in range(cfg.layers):
        if condition is not None:
            x = add(x, mul(params[lm.gate_name(l)], condition))
        h = rmsnorm(x, params[f"layers.{l}.attn_norm"])
        q = _linear(lm, f"layers.{l}.wq", h)
        k = _linear(lm, f"layers.{l}.wk", h)
        v = _linear(lm, f"layers.{l}.wv", h)
        if cfg.positions == "rope":
            cos, sin = lm._rope_cos[start:start + n], lm._rope_sin[start:start + n]
            q = rope(q, cos, sin, cfg.heads)
            k = rope(k, cos, sin, cfg.heads)
        if start:
            k = concat_rows(cache._keys[l], k)
            v = concat_rows(cache._values[l], v)
        keys.append(k)
        values.append(v)
        x = add(x, _linear(lm, f"layers.{l}.wo", causal_attention(q, k, v, cfg.heads)))
        h2 = rmsnorm(x, params[f"layers.{l}.ffn_norm"])
        gated = mul(silu(_linear(lm, f"layers.{l}.w_gate", h2)), _linear(lm, f"layers.{l}.w_up", h2))
        x = add(x, _linear(lm, f"layers.{l}.w_down", gated))
    if cache is not None:
        cache._keys, cache._values, cache.length = keys, values, start + n
    return matmul(rmsnorm(x, params["final_norm"]), params["head"])


def _condition_from(bind: BindNetwork | None, embedding_in) -> Tensor | None:
    if embedding_in is None:
        return None
    if bind is None:
        raise ShapeError("an embedding was given without a bind network")
    return bind_forward(bind, embedding_in)


def caption_loss(
    lm: InjectedLM,
    bind: BindNetwork | None,
    embedding_in: "JointEmbedding | Tensor | None",
    prompt_tokens,
    target_tokens,
) -> Tensor:
    """Mean NLL of the target continuation, prompt positions masked out."""
    prompt = list(prompt_tokens)
    target = list(target_tokens)
    if not target:
        raise EmptyBatchError("empty target")
    seq = [BOS] + prompt + target
    condition = _condition_from(bind, embedding_in)
    logits = lm_forward(lm, seq[:-1], condition)
    labels = [-1] * len(prompt) + target
    return softmax_cross_entropy(logits, labels, ignore_index=-1)


def generate(
    lm: InjectedLM,
    bind: BindNetwork | None,
    embedding_in: "JointEmbedding | Tensor | None",
    prompt_tokens,
    params: GenerationParams,
) -> list[int]:
    """Autoregressive continuation of the prompt; returns new tokens only.

    Greedy when temperature is 0; otherwise samples from the (optionally
    top-k truncated) softmax, deterministically in the params seed. Stops
    after emitting EOS.
    """
    prompt = list(prompt_tokens)
    if not prompt:
        raise ShapeError("prompt must be nonempty")
    # [BOS] + prompt, then every new token but the last: P + N positions
    rows = len(prompt) + params.max_new_tokens
    if rows > lm.config.max_seq:
        raise TruncationError(
            f"prompt {len(prompt)} + new {params.max_new_tokens} exceeds "
            f"max_seq {lm.config.max_seq}"
        )
    condition = _condition_from(bind, embedding_in)
    rng = None  # only sampling draws from it, so greedy decoding never builds it
    # one forward needs no cache; more share one plan and buffers of P + N rows
    cache = KVCache(rows) if params.max_new_tokens > 1 else None
    feed = [BOS] + prompt
    out: list[int] = []
    for _ in range(params.max_new_tokens):
        logits = lm_forward(lm, feed, condition, cache).array[-1]
        if params.temperature == 0.0:
            nxt = int(np.argmax(logits))
        else:
            # shift before scaling: a tiny temperature then sends every logit
            # below the maximum to -inf, never the maximum itself to inf
            with np.errstate(over="ignore"):
                z = (logits - logits.max()) / params.temperature
            if params.top_k > 0 and params.top_k < z.size:
                cut = np.sort(z)[-params.top_k]
                z = np.where(z >= cut, z, -np.inf)
            p = np.exp(z)
            p = p / p.sum()
            if rng is None:
                rng = derive_rng(params.seed, "generate")
            nxt = int(rng.choice(z.size, p=p))
        out.append(nxt)
        if nxt == EOS:
            break
        feed = [nxt]
    return out
