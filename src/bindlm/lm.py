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

Each LoRA-adapted linear runs in one of two forms, chosen by whether a Tape
is recording. Training records the factored form
x @ W + s (x @ A^T) @ B^T + bias, because the gradients of A and B need it,
as one tape node per adapted linear (peft.lora_forward).
Without a tape (generate, the evals, the CLI) the adapter is folded into one
dense weight, peft.merge(W, A, B, s), computed on first use and kept on the
InjectedLM for as long as W, A and B are the same tensors; each linear is
then one matmul plus the bias. Both forms read the adapter's tensors from
lm.params and its scaling from lm.adapters. The two forms agree to
rounding, and bitwise while B = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # linear name -> (W, A, B, folded weight); see _linear
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
    """x @ W for the named linear, through its adapter if it has one.

    Under a recording Tape the adapter stays factored so A and B get
    gradients. Otherwise x meets the folded weight W + s A^T B^T, which is
    refolded whenever W, A or B is no longer the tensor it was folded from:
    the memo holds those tensors, so a freed id cannot alias a new one.
    """
    params = lm.params
    w = params[name]
    if name not in lm.adapters:
        return matmul(x, w)
    a, b, bias = params[name + ".lora_a"], params[name + ".lora_b"], params[name + ".bias"]
    scaling = lm.adapters[name].scaling
    if _tape() is not None:
        return peft.lora_forward(x, w, a, b, bias, scaling)
    hit = lm._folded.get(name)
    if not (hit and hit[0] is w and hit[1] is a and hit[2] is b):
        hit = lm._folded[name] = (w, a, b, peft.merge(w, a, b, scaling))
    return add(matmul(x, hit[3]), bias)


class KVCache:
    """Each layer's keys and values for the positions forwarded so far.

    Passing one cache to successive lm_forward calls feeds a sequence in
    chunks: each call forwards only its new tokens and attends over every
    cached key. Every chunk must carry the same condition.
    """

    def __init__(self):
        self.keys: list[Tensor] = []
        self.values: list[Tensor] = []

    @property
    def length(self) -> int:
        return self.keys[0].shape[0] if self.keys else 0


def lm_forward(lm: InjectedLM, tokens, condition: Tensor | None = None,
               cache: KVCache | None = None) -> Tensor:
    """Logits [N, V] for a token sequence, optionally condition-injected.

    With a cache the tokens continue the cached positions, and the cache
    gains their keys and values. A NaN or Inf anywhere in the forward
    reaches the logits, which raise NonFiniteError.
    """
    ids = list(tokens)
    if not ids:
        raise ShapeError("empty token sequence")
    start = 0 if cache is None else cache.length
    n = len(ids)
    if start + n > lm.config.max_seq:
        raise TruncationError(f"sequence length {start + n} > max_seq {lm.config.max_seq}")
    if max(ids) >= lm.config.vocab_size or min(ids) < 0:
        raise VocabularyError(
            f"token id outside [0, {lm.config.vocab_size}): {min(ids)}..{max(ids)}"
        )
    if condition is not None and condition.shape != (1, lm.config.dim):
        raise ShapeError(f"condition must be [1, {lm.config.dim}], got {condition.shape}")
    x = embedding(lm.params["tok_emb"], ids)
    if lm.config.positions == "learned":
        x = add(x, embedding(lm.params["pos_emb"], range(start, start + n)))
    keys, values = [], []
    for l in range(lm.config.layers):
        if condition is not None:
            x = add(x, mul(lm.params[lm.gate_name(l)], condition))
        h = rmsnorm(x, lm.params[f"layers.{l}.attn_norm"])
        q = _linear(lm, f"layers.{l}.wq", h)
        k = _linear(lm, f"layers.{l}.wk", h)
        v = _linear(lm, f"layers.{l}.wv", h)
        if lm.config.positions == "rope":
            cos, sin = lm._rope_cos[start:start + n], lm._rope_sin[start:start + n]
            q = rope(q, cos, sin, lm.config.heads)
            k = rope(k, cos, sin, lm.config.heads)
        if start:
            k = concat_rows(cache.keys[l], k)
            v = concat_rows(cache.values[l], v)
        keys.append(k)
        values.append(v)
        x = add(x, _linear(lm, f"layers.{l}.wo", causal_attention(q, k, v, lm.config.heads)))
        h2 = rmsnorm(x, lm.params[f"layers.{l}.ffn_norm"])
        gated = mul(silu(_linear(lm, f"layers.{l}.w_gate", h2)), _linear(lm, f"layers.{l}.w_up", h2))
        x = add(x, _linear(lm, f"layers.{l}.w_down", gated))
    if cache is not None:
        cache.keys, cache.values = keys, values
    logits = matmul(rmsnorm(x, lm.params["final_norm"]), lm.params["head"])
    check_finite(logits.array, "logits")
    return logits


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
    if len(prompt) + 1 + params.max_new_tokens > lm.config.max_seq:
        raise TruncationError(
            f"prompt {len(prompt)} + new {params.max_new_tokens} exceeds "
            f"max_seq {lm.config.max_seq}"
        )
    condition = _condition_from(bind, embedding_in)
    rng = None  # only sampling draws from it, so greedy decoding never builds it
    cache = KVCache()
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
