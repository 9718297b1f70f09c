"""Alignment network from the joint embedding space into the LM hidden space.

One linear projection followed by exactly three residual gated-FFN blocks:

    f0 = f @ w0
    f_{i+1} = f_i + (rmsnorm(f_i) @ w2  *  silu(rmsnorm(f_i) @ w1)) @ w3

The norm is applied to the block input before both branches (pre-norm), and
the residual is taken from the un-normed input. w3 starts at zero so every
block is the identity map at initialization.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .encoders import DIM_JOINT, JointEmbedding
from .tensor import ShapeError, Tensor, matmul, mul, rmsnorm, silu, add, uniform_init, derive_rng

N_BLOCKS = 3


@dataclass(frozen=True)
class BindConfig:
    dim_joint: int = DIM_JOINT
    dim_lm: int = 128
    dim_hidden: int = 256

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "BindConfig":
        return BindConfig(**d)


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
    """w0, w1, w2 ~ uniform(+-1/sqrt(fan_in)); w3 = 0; norm gains = 1."""
    params: dict[str, Tensor] = {}
    rng = derive_rng(seed, "bind", "w0")
    params["w0"] = uniform_init(rng, (config.dim_joint, config.dim_lm), 1.0 / np.sqrt(config.dim_joint))
    for i in range(N_BLOCKS):
        rng = derive_rng(seed, "bind", f"block{i}")
        bound = 1.0 / np.sqrt(config.dim_lm)
        params[f"blocks.{i}.w1"] = uniform_init(rng, (config.dim_lm, config.dim_hidden), bound)
        params[f"blocks.{i}.w2"] = uniform_init(rng, (config.dim_lm, config.dim_hidden), bound)
        params[f"blocks.{i}.w3"] = Tensor(np.zeros((config.dim_hidden, config.dim_lm)))
        params[f"blocks.{i}.norm_gain"] = Tensor(np.ones((1, config.dim_lm)))
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
    x = matmul(vec, net.params["w0"])
    for i in range(N_BLOCKS):
        x = add(
            x,
            _block_update(
                x,
                net.params[f"blocks.{i}.w1"],
                net.params[f"blocks.{i}.w2"],
                net.params[f"blocks.{i}.w3"],
                net.params[f"blocks.{i}.norm_gain"],
            ),
        )
    return x
