"""Parameter-efficient fine-tuning: LoRA adapters, bias-norm tuning, freezing.

Every adapted linear keeps its dense weight frozen and gains three extra
tensors: a down-projection A [r, in], an up-projection B [out, r] that starts
at zero, and a learnable bias. B = 0 makes the adapter an exact no-op at
attach time, mirroring the zero-gate philosophy of the conditioning pathway.

Training keeps each adapter factored (lora_forward), since A and B need their
own gradients, and records each adapted linear as one tape node. Inference
folds the adapter into the dense weight once (merge), so an adapted linear
costs one matmul plus the bias; lm._linear picks the form by whether a Tape
is recording. The folded form agrees with the factored one to rounding, and
bitwise while B = 0.

Stage presets map parameter groups onto the training schedule. The joint
pretrain stage also trains the base LM, since this artifact has no pretrained
checkpoint to start from; the adapter-only preset used for the instruction
stages leaves all dense weights untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (DataError, ShapeError, Tensor, _op, _unbroadcast, _weight_grad,
                     derive_rng, uniform_init)


class ConfigurationError(DataError):
    """A training plan selected an impossible parameter-group combination."""


@dataclass(frozen=True)
class LoraSpec:
    rank: int
    scaling: float


@dataclass(frozen=True)
class LoraAdapter:
    """View of one adapted linear: A [r, in], B [out, r], optional bias [1, out]."""

    a: Tensor
    b: Tensor
    rank: int
    scaling: float
    bias: Tensor | None = None


DEFAULT_RANK = 8
DEFAULT_TARGETS = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")


def make_adapter(
    in_dim: int,
    out_dim: int,
    rank: int,
    seed: int,
    label: str = "adapter",
    with_bias: bool = True,
) -> LoraAdapter:
    if rank < 1 or rank > min(in_dim, out_dim):
        raise ShapeError(f"rank {rank} outside [1, min({in_dim}, {out_dim})]")
    rng = derive_rng(seed, "lora", label)
    a = uniform_init(rng, (rank, in_dim), 1.0 / np.sqrt(in_dim))
    b = Tensor(np.zeros((out_dim, rank)))
    bias = Tensor(np.zeros((1, out_dim))) if with_bias else None
    return LoraAdapter(a=a, b=b, rank=rank, scaling=1.0 / rank, bias=bias)


def _check_fits(adapter: LoraAdapter, base_weight: Tensor) -> None:
    if adapter.a.shape[1] != base_weight.shape[0] or adapter.b.shape[0] != base_weight.shape[1]:
        raise ShapeError(
            f"adapter {adapter.a.shape}/{adapter.b.shape} does not fit weight {base_weight.shape}"
        )


def lora_forward(base_weight: Tensor, adapter: LoraAdapter, x: Tensor) -> Tensor:
    """y = x @ W + s * (x @ A^T) @ B^T + bias, with W stored as [in, out].

    One tape node with the bits of the matmul/transpose/scale/add chain it
    replaces: A^T and B^T are multiplied as contiguous copies, and the inputs
    are listed as (x, A, B, x, W[, bias]) so that x's two gradients
    accumulate in that chain's order, the adapter path's first.
    """
    _check_fits(adapter, base_weight)
    if x.array.ndim != 2 or x.shape[1] != base_weight.shape[0]:
        raise ShapeError(f"input {x.shape} does not fit weight {base_weight.shape}")
    a, b, bias = adapter.a, adapter.b, adapter.bias
    at = np.ascontiguousarray(a.array.T)
    bt = np.ascontiguousarray(b.array.T)
    xa = x.array @ at
    y = x.array @ base_weight.array + (xa @ bt) * adapter.scaling
    inputs = (x, a, b, x, base_weight)
    if bias is not None:
        y = y + bias.array
        inputs += (bias,)
    return _op(y, inputs, _lora_forward_backward, x.array, base_weight.array, at, bt, xa,
               adapter.scaling, None if bias is None else bias.shape)


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
    grads = [dx_adapter, da, db, dx_base, dw]
    if bias_shape is not None:
        grads.append(_unbroadcast(g, bias_shape) if need[5] else None)
    return grads


def merge(adapter: LoraAdapter, base_weight: Tensor) -> Tensor:
    """Dense [in, out] weight W + s A^T B^T: the adapted linear, bias excluded.

    lm._linear folds every adapter through this for tape-free forwards.
    """
    _check_fits(adapter, base_weight)
    delta = adapter.a.array.T @ adapter.b.array.T
    return Tensor(base_weight.array + adapter.scaling * delta)


# ---------------------------------------------------------------------------
# Attaching adapters to the LM
# ---------------------------------------------------------------------------


def adapter_view(lm, linear_name: str) -> LoraAdapter:
    spec = lm.adapters[linear_name]
    return LoraAdapter(
        a=lm.params[f"{linear_name}.lora_a"],
        b=lm.params[f"{linear_name}.lora_b"],
        rank=spec.rank,
        scaling=spec.scaling,
        bias=lm.params[f"{linear_name}.bias"],
    )


def apply_peft(lm, rank: int = DEFAULT_RANK, seed: int = 0,
               targets: tuple[str, ...] = DEFAULT_TARGETS) -> list[str]:
    """Attach zero-initialized adapters and biases to the LM's linears.

    Idempotent: linears that already carry an adapter are left alone.
    Returns the names of the newly adapted linears.
    """
    attached = []
    for l in range(lm.config.layers):
        for short in targets:
            name = f"layers.{l}.{short}"
            if name in lm.adapters:
                continue
            w = lm.params[name]
            ad = make_adapter(w.shape[0], w.shape[1], rank, seed, label=name)
            lm.params[f"{name}.lora_a"] = ad.a
            lm.params[f"{name}.lora_b"] = ad.b
            lm.params[f"{name}.bias"] = ad.bias
            lm.adapters[name] = LoraSpec(rank=ad.rank, scaling=ad.scaling)
            attached.append(name)
    return attached


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


def apply_stage_freeze(lm, bind, trainable_groups) -> int:
    """The exact scalar count of trainable_param_names' selection."""
    names = trainable_param_names(lm, bind, trainable_groups)
    return sum(resolve_param(lm, bind, n).size for n in names)
