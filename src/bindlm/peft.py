"""Parameter-efficient fine-tuning: LoRA adapters, bias-norm tuning, freezing.

Every adapted linear keeps its dense weight W [in, out] frozen and gains
three tensors in lm.params: <name>.lora_a, a down-projection A [r, in];
<name>.lora_b, an up-projection B [out, r] that starts at zero; and
<name>.bias [1, out], also zero at first. lm.adapters[<name>] records the
rank r and the scaling s = 1 / r. Those two records are the whole adapter.
B = 0 makes it an exact no-op at attach time, mirroring the zero-gate
philosophy of the conditioning pathway.

Training keeps each adapter factored (lora_forward), since A and B need their
own gradients, and records each adapted linear as one tape node. Inference,
lm_forward's tape-free path on plain arrays, folds the adapter into the
dense weight once (merge), so an adapted linear costs one matmul plus the
bias. The folded form agrees with the factored one to rounding, and bitwise
while B = 0.

Stage presets map parameter groups onto the training schedule. The joint
pretrain stage also trains the base LM, since this artifact has no pretrained
checkpoint to start from; the adapter-only preset used for the instruction
stages leaves all dense weights untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (DataError, ShapeError, Tensor, _op, _unbroadcast, _weight_grad,
                     check_fields, derive_rng, uniform_init)


class ConfigurationError(DataError):
    """A training plan selected an impossible parameter-group combination, or
    an adapter rank wider than a linear it adapts."""


@dataclass(frozen=True)
class LoraSpec:
    rank: int
    scaling: float

    def __post_init__(self):
        check_fields(self, ConfigurationError, rank=1)


DEFAULT_RANK = 8
DEFAULT_TARGETS = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")


def lora_forward(x: Tensor, w: Tensor, a: Tensor, b: Tensor, bias: Tensor,
                 scaling: float) -> Tensor:
    """y = x @ W + s * (x @ A^T) @ B^T + bias, with W stored as [in, out].

    One tape node with the bits of the matmul/transpose/scale/add chain it
    replaces: A^T and B^T are multiplied as contiguous copies, and the inputs
    are listed as (x, A, B, x, W, bias) so that x's two gradients accumulate
    in that chain's order, the adapter path's first. The chain's scale and
    its two sums run in place, in its order, on the two products' arrays.
    """
    if (x.array.ndim != 2 or x.shape[1] != w.shape[0] or a.shape[1] != w.shape[0]
            or b.shape[0] != w.shape[1]):
        raise ShapeError(f"lora shapes x {x.shape}, W {w.shape}, A {a.shape}, B {b.shape}"
                         f" do not fit")
    at = np.ascontiguousarray(a.array.T)
    bt = np.ascontiguousarray(b.array.T)
    xa = x.array @ at
    y = x.array @ w.array
    adapter = xa @ bt
    adapter *= scaling
    y += adapter
    y += bias.array
    return _op(y, (x, a, b, x, w, bias), _lora_forward_backward, x.array, w.array, at, bt, xa,
               scaling, bias.shape)


def _lora_forward_backward(x, w, at, bt, xa, s, bias_shape, g, need):
    dx_adapter = da = db = dx_base = dw = None
    if need[0] or need[1] or need[2]:
        gd = g * s
        if need[2]:
            db = _weight_grad(xa, gd).T
        if need[0] or need[1]:
            gxa = gd @ bt.T
            if need[0]:
                dx_adapter = gxa @ at.T
            if need[1]:
                da = _weight_grad(x, gxa).T
    if need[3]:
        dx_base = g @ w.T
    if need[4]:
        dw = _weight_grad(x, g)
    return [dx_adapter, da, db, dx_base, dw, _unbroadcast(g, bias_shape) if need[5] else None]


def merge(w: Tensor, a: Tensor, b: Tensor, scaling: float) -> Tensor:
    """Dense [in, out] weight W + s A^T B^T: the adapted linear, bias excluded.

    lm._resolve_linear folds every adapter through this for tape-free forwards.
    """
    return Tensor(w.array + scaling * (a.array.T @ b.array.T))


def apply_peft(lm, rank: int = DEFAULT_RANK, seed: int = 0,
               targets: tuple[str, ...] = DEFAULT_TARGETS) -> list[str]:
    """Attach zero-initialized adapters and biases to the LM's linears.

    Each A is uniform in +-1/sqrt(in), drawn from the stream (seed, "lora",
    name). Idempotent: linears that already carry an adapter are left alone.
    Returns the names of the newly adapted linears.
    """
    names = [f"layers.{l}.{short}" for l in range(lm.config.layers) for short in targets
             if f"layers.{l}.{short}" not in lm.adapters]
    widths = [min(lm.params[name].shape) for name in names]
    if widths and not 1 <= rank <= min(widths):
        raise ConfigurationError(f"lora_rank {rank}, which is not in [1, {min(widths)}]:"
                                 f" {min(widths)} is the narrowest adapted linear's width")
    for name in names:
        d_in, d_out = lm.params[name].shape
        rng = derive_rng(seed, "lora", name)
        lm.params[f"{name}.lora_a"] = uniform_init(rng, (rank, d_in), 1.0 / np.sqrt(d_in))
        lm.params[f"{name}.lora_b"] = Tensor(np.zeros((d_out, rank)))
        lm.params[f"{name}.bias"] = Tensor(np.zeros((1, d_out)))
        lm.adapters[name] = LoraSpec(rank, 1.0 / rank)
    return names


# ---------------------------------------------------------------------------
# Parameter groups and stage freezing
# ---------------------------------------------------------------------------

GROUP_NAMES = ("bind_network", "gates", "lora", "bias_norm", "base_lm", "encoders")

STAGE_TRAINABLE = {
    # joint pass: the toy LM has no pretrained weights, so it trains here too
    "pretrain": frozenset({"base_lm", "bind_network", "gates"}),
    # alignment-only preset matching the frozen-LM reading of stage 1
    "align_only": frozenset({"bind_network", "gates"}),
    "instruct": frozenset({"lora", "bias_norm", "gates"}),
    "hq_instruct": frozenset({"lora", "bias_norm", "gates"}),
}


def _classify(qualified: str) -> str:
    scope, name = qualified.split(".", 1)
    if scope == "bind":
        return "bind_network"
    if name.startswith("gates."):
        return "gates"
    if name.endswith(".lora_a") or name.endswith(".lora_b"):
        return "lora"
    if name.endswith(".bias") or name.endswith("_norm") or name == "final_norm":
        return "bias_norm"
    return "base_lm"


def param_groups(lm, bind) -> dict[str, list[str]]:
    """Qualified parameter names ('lm.*', 'bind.*') bucketed by group."""
    groups: dict[str, list[str]] = {g: [] for g in GROUP_NAMES}
    for name in sorted(lm.params):
        groups[_classify(f"lm.{name}")].append(f"lm.{name}")
    for name in sorted(bind.params):
        groups["bind_network"].append(f"bind.{name}")
    return groups


def resolve_param(lm, bind, qualified: str) -> Tensor:
    scope, name = qualified.split(".", 1)
    return lm.params[name] if scope == "lm" else bind.params[name]


def set_param(lm, bind, qualified: str, value: Tensor) -> None:
    scope, name = qualified.split(".", 1)
    (lm.params if scope == "lm" else bind.params)[name] = value


def check_groups(trainable_groups) -> None:
    """Raise ConfigurationError unless every group is known and trainable;
    encoders are always frozen."""
    selected = set(trainable_groups)
    unknown = selected - set(GROUP_NAMES)
    if unknown:
        raise ConfigurationError(f"unknown parameter groups: {sorted(unknown)}")
    if "encoders" in selected:
        raise ConfigurationError("encoders are always frozen")


def trainable_param_names(lm, bind, trainable_groups) -> list[str]:
    """Qualified names of the selected groups' parameters, group by group.

    Encoders are always frozen; selecting them is a configuration error, as
    is an unknown selection or one that names no parameter.
    """
    check_groups(trainable_groups)
    selected = sorted(set(trainable_groups))
    groups = param_groups(lm, bind)
    names = [n for g in selected for n in groups[g]]
    if not names:
        raise ConfigurationError(f"no trainable parameters in groups {selected}")
    return names

