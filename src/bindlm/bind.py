"""Alignment network from the joint embedding space into the LM hidden space.

One linear projection followed by exactly three residual gated-FFN blocks:

    f0 = f @ w0
    f_{i+1} = f_i + (rmsnorm(f_i) @ w2  *  silu(rmsnorm(f_i) @ w1)) @ w3

The norm is applied to the block input before both branches (pre-norm), and
the residual is taken from the un-normed input. w3 starts at zero so every
block is the identity map at initialization.

Under a recording Tape bind_forward records each step as a tensor primitive,
for training. Without one (generation and the evals) it runs the same steps
on the parameters' plain arrays through the kernels those primitives compute
with, as lm_forward does, which gives the same bits without a Tensor per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import DIM_JOINT, JointEmbedding
from .tensor import (ShapeError, Tensor, add, check_fields, derive_rng, matmul, mul, rmsnorm, silu,
                     uniform_init, _add, _matmul, _mul, _rmsnorm, _silu, _tape)

N_BLOCKS = 3
_BLOCK_PARAMS = ("w1", "w2", "w3", "norm_gain")  # _block_update's order


@dataclass(frozen=True)
class BindConfig:
    dim_joint: int = DIM_JOINT
    dim_lm: int = 128
    dim_hidden: int = 256

    def __post_init__(self):
        check_fields(self, ShapeError, dim_joint=1, dim_lm=1, dim_hidden=1)


class BindNetwork:
    """Holds the named parameter tensors; forward logic lives in bind_forward."""

    def __init__(self, config: BindConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params


def bind_param_shapes(config: BindConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter bind_init creates for config."""
    shapes = {"w0": (config.dim_joint, config.dim_lm)}
    for i in range(N_BLOCKS):
        shapes[f"blocks.{i}.w1"] = shapes[f"blocks.{i}.w2"] = (config.dim_lm, config.dim_hidden)
        shapes[f"blocks.{i}.w3"] = (config.dim_hidden, config.dim_lm)
        shapes[f"blocks.{i}.norm_gain"] = (1, config.dim_lm)
    return shapes


def bind_init(config: BindConfig, seed: int) -> BindNetwork:
    """w3 at zero, norm gains at one, and w0, w1, w2 ~ uniform(+-1/sqrt(fan_in)),
    drawn in bind_param_shapes order from their stream: w0 or block{i}."""
    params: dict[str, Tensor] = {}
    rngs: dict[str, np.random.Generator] = {}
    for name, shape in bind_param_shapes(config).items():
        if name.endswith((".w3", ".norm_gain")):
            params[name] = Tensor(np.full(shape, 0.0 if name.endswith(".w3") else 1.0))
            continue
        stream = f"block{name.split('.')[1]}" if name.startswith("blocks.") else "w0"
        if stream not in rngs:
            rngs[stream] = derive_rng(seed, "bind", stream)
        params[name] = uniform_init(rngs[stream], shape, 1.0 / np.sqrt(shape[0]))
    return BindNetwork(config, params)


def _block_update(x: Tensor, w1: Tensor, w2: Tensor, w3: Tensor, gain: Tensor) -> Tensor:
    """The non-residual part of one block; input-scale invariant via pre-norm."""
    h = rmsnorm(x, gain)
    return matmul(mul(matmul(h, w2), silu(matmul(h, w1))), w3)


def bind_forward(net: BindNetwork, f: "JointEmbedding | Tensor") -> Tensor:
    """Map a joint-space embedding (or raw [1, C_I] vector) to the LM space."""
    vec = f.vector if isinstance(f, JointEmbedding) else f
    if vec.array.ndim != 2 or vec.shape[0] != 1 or vec.shape[1] != net.config.dim_joint:
        raise ShapeError(
            f"expected [1, {net.config.dim_joint}] embedding, got {vec.shape}"
        )
    params = net.params
    if _tape() is None:
        x = _matmul(vec.array, params["w0"].array)
        for i in range(N_BLOCKS):
            w1, w2, w3, gain = (params[f"blocks.{i}.{n}"].array for n in _BLOCK_PARAMS)
            h = _rmsnorm(x, gain)[0]
            x = _add(x, _matmul(_mul(_matmul(h, w2), _silu(_matmul(h, w1))[0]), w3))
        return Tensor(x, _checked=True)
    x = matmul(vec, params["w0"])
    for i in range(N_BLOCKS):
        x = add(x, _block_update(x, *(params[f"blocks.{i}.{n}"] for n in _BLOCK_PARAMS)))
    return x
