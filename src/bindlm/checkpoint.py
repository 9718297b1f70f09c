"""Binary checkpoint format and model reconstruction.

Layout (encoded and bounds-checked by binfmt.py):

    magic 'BNDK' (4 bytes)
    version         u32
    config JSON     u32 length + UTF-8 bytes
    param count     u32
    per parameter:  name (u32 length + UTF-8) | ndim u32 | dims u32 each
                    | float64 LE row-major data
    RNG state JSON  u32 length + UTF-8 bytes
    step counter    u64
    provenance      u32 count, then u32 length + UTF-8 bytes each

Parameters are stored under qualified names ('lm.tok_emb', 'bind.w0', ...)
in sorted order, and the config JSON uses sorted keys, so identical models
serialize to identical bytes. A load followed by a save reproduces the file,
and forward passes through a reloaded model are bitwise equal. load_checkpoint
rejects a non-finite parameter value; to_models rejects a config or a
parameter set that does not describe the models.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import binfmt
from .bind import BindConfig, BindNetwork, bind_param_shapes
from .encoders import EncoderConfig
from .lm import InjectedLM, LMConfig, lm_param_shapes
from .peft import DEFAULT_TARGETS, STAGE_TRAINABLE, LoraSpec, _classify
from .tensor import DataError, Tensor
from .tokenizer import Tokenizer

MAGIC = b"BNDK"
VERSION = 1


class CheckpointFormatError(DataError):
    """The file is not a valid checkpoint; message carries the byte offset."""


# The config's sections, as from_models writes them.
_CONFIG_KEYS = ("lm", "bind", "encoder", "tokenizer", "adapters")


@dataclass
class Checkpoint:
    config: dict
    params: dict[str, np.ndarray]
    rng_state: dict
    step: int
    provenance: list[str]

    @staticmethod
    def from_models(lm: InjectedLM, bind: BindNetwork, tok: Tokenizer,
                    encoder_config: EncoderConfig, rng_state: dict,
                    step: int, provenance: list[str]) -> "Checkpoint":
        config = {
            "lm": asdict(lm.config),
            "bind": asdict(bind.config),
            "encoder": asdict(encoder_config),
            "tokenizer": tok.to_dict(),
            "adapters": {name: asdict(spec) for name, spec in sorted(lm.adapters.items())},
        }
        params = {f"lm.{n}": t.array for n, t in lm.params.items()}
        params.update({f"bind.{n}": t.array for n, t in bind.params.items()})
        return Checkpoint(config, params, _jsonable_rng(rng_state), step, list(provenance))

    def _section(self, key: str, cls=None):
        """The config's section key, built as the dataclass cls when given."""
        section = binfmt.keys(self.config, "config", _CONFIG_KEYS, error=CheckpointFormatError)[key]
        return binfmt.build(cls, section, f"config.{key}", CheckpointFormatError) if cls else section

    def to_models(self) -> tuple[InjectedLM, BindNetwork, Tokenizer]:
        """Rebuild the models; the params must be exactly those the config implies."""
        lm_config, bind_config = self._section("lm", LMConfig), self._section("bind", BindConfig)
        tok = Tokenizer.from_dict(self._section("tokenizer"), "config.tokenizer",
                                  CheckpointFormatError)
        want = {f"lm.{n}": s for n, s in lm_param_shapes(lm_config).items()}
        linears = [n[3:] for n in want if n.rsplit(".", 1)[-1] in DEFAULT_TARGETS]
        specs = binfmt.keys(self._section("adapters"), "config.adapters", (), linears,
                            CheckpointFormatError)
        adapters = {name: binfmt.build(LoraSpec, d, f"adapter on {name!r}", CheckpointFormatError)
                    for name, d in specs.items()}
        want.update({f"bind.{n}": s for n, s in bind_param_shapes(bind_config).items()})
        if bind_config.dim_lm != lm_config.dim:
            raise CheckpointFormatError(f"bind.dim_lm = {bind_config.dim_lm} differs"
                                        f" from lm.dim = {lm_config.dim}")
        self._check_params(want, adapters)
        lm_params = {
            n[3:]: Tensor(a) for n, a in self.params.items() if n.startswith("lm.")
        }
        bind_params = {
            n[5:]: Tensor(a) for n, a in self.params.items() if n.startswith("bind.")
        }
        lm = InjectedLM(lm_config, lm_params)
        lm.adapters = adapters
        bind = BindNetwork(bind_config, bind_params)
        return lm, bind, tok

    def _check_params(self, want: dict[str, tuple[int, ...]],
                      adapters: dict[str, LoraSpec]) -> None:
        """Raise CheckpointFormatError on a missing, extra or misshapen param;
        want maps each dense parameter the config implies to its shape."""
        for name, spec in adapters.items():
            d_in, d_out = want[f"lm.{name}"]
            want[f"lm.{name}.lora_a"] = (spec.rank, d_in)
            want[f"lm.{name}.lora_b"] = (d_out, spec.rank)
            want[f"lm.{name}.bias"] = (1, d_out)
        missing = sorted(set(want) - set(self.params))
        if missing:
            raise CheckpointFormatError(
                f"missing parameter {missing[0]!r} of shape {want[missing[0]]}"
                f" ({len(missing)} missing in all)"
            )
        extra = sorted(set(self.params) - set(want))
        if extra:
            raise CheckpointFormatError(
                f"parameter {extra[0]!r} is not in the configured models"
                f" ({len(extra)} unexpected in all)"
            )
        for name in sorted(self.params):
            if self.params[name].shape != want[name]:
                raise CheckpointFormatError(
                    f"parameter {name!r} has shape {self.params[name].shape},"
                    f" the config implies {want[name]}"
                )

    def encoder_config(self) -> EncoderConfig:
        """The encoders' config; their output width must be the bind network's input width."""
        encoder, bind = self._section("encoder", EncoderConfig), self._section("bind", BindConfig)
        if encoder.dim_joint != bind.dim_joint:
            raise CheckpointFormatError(f"encoder.dim_joint = {encoder.dim_joint} differs"
                                        f" from bind.dim_joint = {bind.dim_joint}")
        return encoder


def split_adapters(ckpt: Checkpoint) -> tuple[Checkpoint, Checkpoint]:
    """Split a tuned checkpoint into base weights and the stage-2 delta.

    The delta checkpoint carries only the parameters the instruct stage
    trains (adapter matrices, biases, norm gains and gates, as
    peft.STAGE_TRAINABLE names them) plus the adapter metadata, so it can
    ship without the dense base weights and be re-applied with apply_adapters.
    """
    delta_groups = STAGE_TRAINABLE["instruct"]
    delta_params = {n: a for n, a in ckpt.params.items() if _classify(n) in delta_groups}
    base_params = {n: a for n, a in ckpt.params.items() if n not in delta_params}
    delta = Checkpoint(dict(ckpt.config), delta_params, ckpt.rng_state, ckpt.step,
                       list(ckpt.provenance))
    base_config = dict(ckpt.config)
    base_config["adapters"] = {}
    base = Checkpoint(base_config, base_params, ckpt.rng_state, ckpt.step,
                      list(ckpt.provenance))
    return base, delta


def apply_adapters(base: Checkpoint, delta: Checkpoint) -> Checkpoint:
    """Overlay a stage-2 delta checkpoint onto base weights."""
    params = dict(base.params)
    params.update(delta.params)
    config = dict(base.config)
    config["adapters"] = delta.config.get("adapters", {})
    return Checkpoint(config, params, delta.rng_state, delta.step, list(delta.provenance))


def _jsonable_rng(state: dict) -> dict:
    def conv(v):
        if isinstance(v, np.ndarray):
            return {"__ndarray__": v.tolist(), "dtype": str(v.dtype)}
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        return v

    return conv(state)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    w = binfmt.Writer(MAGIC, VERSION)
    w.string(json.dumps(ckpt.config, sort_keys=True))
    names = sorted(ckpt.params)
    w.u32(len(names))
    for name in names:
        arr = np.ascontiguousarray(ckpt.params[name], dtype="<f8")
        w.string(name)
        w.u32(arr.ndim)
        w.array(arr.shape, "<u4")
        w.array(arr, "<f8")
    w.string(json.dumps(ckpt.rng_state, sort_keys=True))
    w.u64(ckpt.step)
    w.u32(len(ckpt.provenance))
    for p in ckpt.provenance:
        w.string(p)
    w.save(path)


def load_checkpoint(path) -> Checkpoint:
    r = binfmt.read_binary(path, CheckpointFormatError)
    r.header(MAGIC, VERSION)
    config = r.json_value()
    params: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.string()
        dims = tuple(r.array("<u4", (r.u32(),)).tolist())
        # copied: most views into the file's bytes are unaligned, and BLAS is 1.5x slower on them
        params[name] = r.array("<f8", dims, f"parameter {name!r}").copy()
    rng_state = r.json_value()
    step = r.u64()
    provenance = [r.string() for _ in range(r.u32())]
    r.finish()
    return Checkpoint(config, params, rng_state, step, provenance)
