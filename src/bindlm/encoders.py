"""Deterministic synthetic encoders mapping raw inputs into one shared space.

Each modality gets a seeded orthonormal projection plus a small fixed offset
vector. Raw inputs built from the same latent land close together across
modalities (the offset is the controlled cross-modal gap), while unrelated
inputs stay far apart. This gives a joint embedding space whose alignment is
true by construction, so everything downstream can be tested against it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import binfmt
from .tensor import DataError, ShapeError, Tensor, check_fields, check_finite, derive_rng


class DegenerateMixError(DataError):
    """Mixing coefficients cancelled the embeddings to the zero vector."""


class EncoderConfigError(DataError):
    """An encoder config field has the wrong type or range."""


class Modality(enum.Enum):
    IMAGE = "image"
    TEXT = "text"
    AUDIO = "audio"
    VIDEO = "video"
    POINT_CLOUD = "point_cloud"
    MIXED = "mixed"  # only ever produced by mix(), never encoded directly

    def __str__(self) -> str:
        return self.value


ENCODER_MODALITIES = (
    Modality.IMAGE,
    Modality.TEXT,
    Modality.AUDIO,
    Modality.VIDEO,
    Modality.POINT_CLOUD,
)
MODALITY_NAMES = tuple(m.value for m in ENCODER_MODALITIES)

DIM_JOINT = 64
DIM_RAW = 96
OFFSET_SCALE = 0.12

_NORMAL_MIN = float(np.finfo(np.float64).tiny)


def _unit(arr: np.ndarray, source_id: str) -> np.ndarray | None:
    """arr / |arr|, or None when arr is the zero vector.

    The squared norm overflows once |arr| passes about 1.3e154 and leaves
    the normal range below about 1.5e-154. Only then is arr first divided
    by max|arr|, so every other input keeps its exact bits. A NaN or Inf in
    arr raises NonFiniteError naming the source.
    """
    sq = float((arr * arr).sum())
    if not _NORMAL_MIN <= sq < math.inf:
        top = float(np.abs(arr).max())
        if top == 0.0:
            return None
        check_finite(arr, f"the vector for source {source_id!r}")
        arr = arr / top
        sq = float((arr * arr).sum())
    return arr / math.sqrt(sq)


@dataclass(frozen=True)
class JointEmbedding:
    """Unit-norm vector in the shared modality space, tagged with its origin."""

    vector: Tensor
    modality: Modality
    source_id: str

    @staticmethod
    def of(values, modality: Modality, source_id: str) -> "JointEmbedding":
        """Normalize at the boundary; rejects the zero vector and NaN or Inf."""
        arr = np.asarray(values, dtype=np.float64).reshape(1, -1)
        unit = _unit(arr, source_id)
        if unit is None:
            raise ShapeError(f"cannot normalize zero vector for source {source_id!r}")
        return JointEmbedding(Tensor(unit), modality, source_id)

    @property
    def dim(self) -> int:
        return self.vector.shape[1]

    def norm(self) -> float:
        a = self.vector.array
        return float(np.sqrt((a * a).sum()))

    def is_placeholder(self) -> bool:
        return not self.vector.array.any()


def placeholder_embedding(dim: int = DIM_JOINT) -> JointEmbedding:
    """The all-zero condition used for language-only records.

    This is the one embedding exempt from the unit-norm invariant: the zero
    vector cannot be normalized and deliberately contributes nothing.
    """
    return JointEmbedding(Tensor(np.zeros((1, dim))), Modality.IMAGE, "placeholder")


@dataclass(frozen=True)
class EncoderConfig:
    dim_raw: int = DIM_RAW
    dim_joint: int = DIM_JOINT
    offset_scale: float = OFFSET_SCALE
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, EncoderConfigError, dim_raw=1, dim_joint=1)
        if self.dim_joint > self.dim_raw:
            raise EncoderConfigError(f"dim_joint {self.dim_joint} is above dim_raw {self.dim_raw}")


class SyntheticEncoder:
    """Frozen per-modality projection into the joint space.

    base_projection has orthonormal columns, so a raw input synthesized as
    latent @ base_projection.T recovers the latent exactly on encode. The
    modality offset shifts every embedding of this modality by a fixed small
    vector, which is the cross-modal discrepancy the cache model later closes.
    """

    def __init__(self, modality: Modality, config: EncoderConfig):
        if modality not in ENCODER_MODALITIES:
            raise ShapeError(f"no encoder for modality {modality}")
        self.modality = modality
        self.config = config
        rng = derive_rng(config.seed, "encoder", modality.value)
        g = rng.standard_normal((config.dim_raw, config.dim_joint))
        q, r = np.linalg.qr(g)
        # Fix the QR sign ambiguity so the projection is unique per seed.
        q = q * np.sign(np.diag(r))[None, :]
        self.base_projection = Tensor(q)
        off = rng.standard_normal(config.dim_joint)
        off = off / np.sqrt((off * off).sum()) * config.offset_scale
        self.modality_offset = Tensor(off.reshape(1, -1))

    def raw_for_latent(self, latent: np.ndarray) -> np.ndarray:
        """Synthesize the raw input whose encoding recovers this latent."""
        latent = np.asarray(latent, dtype=np.float64).reshape(-1)
        if latent.shape[0] != self.config.dim_joint:
            raise ShapeError(
                f"latent length {latent.shape[0]} != joint dim {self.config.dim_joint}"
            )
        return latent @ self.base_projection.array.T


def build_encoders(config: EncoderConfig) -> dict[Modality, SyntheticEncoder]:
    return {m: SyntheticEncoder(m, config) for m in ENCODER_MODALITIES}


def _hash_noise(raw: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic pseudo-noise derived from the raw bytes themselves."""
    import hashlib

    digest = hashlib.blake2b(raw.tobytes(), digest_size=8).digest()
    rng = np.random.Generator(np.random.Philox(int.from_bytes(digest, "little")))
    v = rng.standard_normal(dim)
    return v / np.sqrt((v * v).sum())


def encode(encoder: SyntheticEncoder, raw, source_id: str = "") -> JointEmbedding:
    """Project a raw input to a unit-norm joint embedding, deterministically."""
    arr = np.asarray(raw, dtype=np.float64).reshape(-1)
    if arr.shape[0] != encoder.config.dim_raw:
        raise ShapeError(f"raw length {arr.shape[0]} != encoder dim_raw"
                         f" {encoder.config.dim_raw} for source {source_id!r}")
    vec = arr[None, :] @ encoder.base_projection.array + encoder.modality_offset.array
    noise_scale = encoder.config.noise_scale
    if noise_scale > 0.0 and arr.any():
        vec = vec + noise_scale * _hash_noise(arr, encoder.config.dim_joint)
    return JointEmbedding.of(vec, encoder.modality, source_id)


def mix(embeddings: list[JointEmbedding], coefficients: list[float]) -> JointEmbedding:
    """Renormalized weighted sum of embeddings, tagged as mixed."""
    if not embeddings or len(embeddings) != len(coefficients):
        raise ShapeError(
            f"need equal nonzero counts, got {len(embeddings)} embeddings, "
            f"{len(coefficients)} coefficients"
        )
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if not np.isfinite(coeffs).all():
        raise ShapeError(f"mixing coefficients must be finite, got {coeffs.tolist()}")
    dim = embeddings[0].dim
    total = np.zeros((1, dim))
    for e, c in zip(embeddings, coeffs):
        if e.dim != dim:
            raise ShapeError(f"embedding dims differ: {e.dim} vs {dim}")
        total = total + c * e.vector.array
    source = f"mix({'+'.join(e.source_id for e in embeddings)})"
    unit = _unit(total, source)
    if unit is None:
        raise DegenerateMixError("mixed embeddings cancelled to the zero vector")
    return JointEmbedding(Tensor(unit), Modality.MIXED, source)


def raw_vector(value) -> np.ndarray:
    """value as a float64 vector; ValueError unless it is a flat list of finite numbers."""
    try:
        raw = np.asarray(value, dtype=np.float64)
    except OverflowError as exc:  # an int past float range
        raise ValueError(f"{exc}: the raw vector is not a list of numbers") from None
    except (TypeError, ValueError):
        raise ValueError("the raw vector is not a list of numbers") from None
    if raw.ndim != 1:
        raise ValueError(f"the raw vector is not a flat list of numbers: its shape is {raw.shape}")
    if not np.isfinite(raw).all():
        bad = int(np.flatnonzero(~np.isfinite(raw))[0])
        raise ValueError(f"the raw vector holds {raw[bad]} at index {bad}")
    return raw


SAMPLE_KEYS = ("source_id", "modality", "raw")


def encoder_modality(value) -> Modality:
    """The encoder modality a JSON value names; ValueError for any other value."""
    if value not in MODALITY_NAMES:
        raise ValueError(f"modality is not one of {', '.join(MODALITY_NAMES)}")
    return Modality(value)


def parse_sample(obj: dict, dim_raw: int | None = None) -> dict:
    """The source_id, encoder modality and raw vector of a key-checked sample; else
    ValueError, also for a raw vector whose length is not dim_raw, if given."""
    if not isinstance(obj["source_id"], str):
        raise ValueError("source_id is not a string")
    raw = raw_vector(obj["raw"])
    if dim_raw is not None and raw.shape[0] != dim_raw:
        raise ValueError(f"raw length {raw.shape[0]} != encoder dim_raw {dim_raw}"
                         f" for source {obj['source_id']!r}")
    return {"source_id": obj["source_id"], "modality": encoder_modality(obj["modality"]),
            "raw": raw}


def read_raw_samples(path, dim_raw: int | None = None) -> list[dict]:
    """Raw samples {source_id, modality, raw} from JSONL; given dim_raw, each raw is that long."""
    return binfmt.read_jsonl(path, lambda obj: parse_sample(obj, dim_raw), ShapeError, SAMPLE_KEYS)
