"""Synthetic corpora, JSONL ingestion, and dataset manifests.

The generator builds a small world of latent objects. Each object is a
(color, shape, action) triple whose latent vector is the normalized sum of
per-word anchor directions, so the caption text is recoverable from the
latent by construction. Raw inputs for any modality are synthesized through
the encoder's own projection, which is what makes cross-modal pairing hold.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import binfmt
from .encoders import (
    SAMPLE_KEYS,
    EncoderConfig,
    Modality,
    SyntheticEncoder,
    build_encoders,
    parse_sample,
)
from .tensor import DataError, check_fields, derive_rng

COLORS = ["red", "blue", "green", "amber", "violet", "teal", "coral", "ochre"]
SHAPES = ["cube", "sphere", "prism", "torus", "wedge", "cone", "disk", "helix"]
ACTIONS = ["spins", "glows", "hums", "drifts", "pulses", "folds", "floats", "ticks"]

CAPTION_INSTRUCTION = "Describe the input."

LANGUAGE_WORDS = ["echo", "tide", "ember", "quartz", "maple", "onyx", "fjord", "lumen"]


class IngestError(DataError):
    """A JSONL corpus failed schema validation, or a record of it could not be encoded."""


@dataclass
class CaptionRecord:
    source_id: str
    modality: Modality
    raw: np.ndarray
    caption: str


@dataclass
class InstructionRecord:
    instruction: str
    response: str
    source_id: str | None = None
    modality: Modality | None = None
    raw: np.ndarray | None = None

    @property
    def is_language_only(self) -> bool:
        return self.modality is None


# ---------------------------------------------------------------------------
# Latent world
# ---------------------------------------------------------------------------


def _anchors(seed: int, dim: int) -> dict[str, np.ndarray]:
    out = {}
    for kind, words in (("color", COLORS), ("shape", SHAPES), ("action", ACTIONS)):
        for w in words:
            rng = derive_rng(seed, "anchor", kind, w)
            v = rng.standard_normal(dim)
            out[f"{kind}:{w}"] = v / np.sqrt((v * v).sum())
    return out


@dataclass
class LatentObject:
    color: str
    shape: str
    action: str
    latent: np.ndarray

    @property
    def caption(self) -> str:
        return f"a {self.color} {self.shape} that {self.action}"


def sample_objects(n: int, seed: int, dim: int) -> list[LatentObject]:
    """n distinct (color, shape, action) objects with anchored latents."""
    anchors = _anchors(seed, dim)
    rng = derive_rng(seed, "objects")
    combos = [(c, s, a) for c in COLORS for s in SHAPES for a in ACTIONS]
    if n > len(combos):
        raise IngestError(f"cannot sample {n} distinct objects from {len(combos)} combos")
    picks = rng.choice(len(combos), size=n, replace=False)
    objects = []
    for idx in picks:
        c, s, a = combos[int(idx)]
        u = anchors[f"color:{c}"] + anchors[f"shape:{s}"] + anchors[f"action:{a}"]
        u = u / np.sqrt((u * u).sum())
        objects.append(LatentObject(c, s, a, u))
    return objects


RAW_JITTER = 0.05


def raw_sample(encoder: SyntheticEncoder, obj: LatentObject,
               rng: np.random.Generator) -> np.ndarray:
    """Raw input for this object under this modality, with per-sample jitter."""
    dim = encoder.config.dim_joint
    noisy = obj.latent + RAW_JITTER * rng.standard_normal(dim) / np.sqrt(dim)
    return encoder.raw_for_latent(noisy)


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


def generate_caption_corpus(
    n: int,
    seed: int,
    encoders: dict[Modality, SyntheticEncoder],
    variants: int = 1,
) -> tuple[list[CaptionRecord], list[LatentObject]]:
    """n caption pairs, each rendered as `variants` jittered raw samples."""
    objects = sample_objects(n, seed, encoders[Modality.IMAGE].config.dim_joint)
    rng = derive_rng(seed, "caption-raws")
    enc = encoders[Modality.IMAGE]
    records = []
    for i, o in enumerate(objects):
        for v in range(variants):
            records.append(
                CaptionRecord(
                    f"cap{i:04d}v{v}", Modality.IMAGE, raw_sample(enc, o, rng), o.caption
                )
            )
    return records, objects


def generate_instruction_corpus(
    n_visual: int,
    n_language: int,
    seed: int,
    encoders: dict[Modality, SyntheticEncoder],
    modality: Modality = Modality.IMAGE,
    variants: int = 1,
) -> tuple[list[InstructionRecord], list[LatentObject]]:
    """Yes/no attribute questions plus language-only records.

    Half the questions ask about the object's true color (answer yes), half
    about a different color (answer no), so the answer is not recoverable
    from the question text alone. Visual records repeat with `variants`
    jittered raw inputs each.
    """
    dim = encoders[modality].config.dim_joint
    objects = sample_objects(n_visual, derive_rng(seed, "instruct-objs").integers(2**31), dim)
    rng = derive_rng(seed, "instruct-raws", modality.value)
    qrng = derive_rng(seed, "instruct-questions")  # independent of raw jitter
    enc = encoders[modality]
    records = []
    for i, obj in enumerate(objects):
        if i % 2 == 0:
            asked, answer = obj.color, "yes"
            qrng.integers(1)  # keep the question stream in lockstep
        else:
            others = [c for c in COLORS if c != obj.color]
            asked, answer = others[int(qrng.integers(len(others)))], "no"
        for v in range(variants):
            records.append(
                InstructionRecord(
                    instruction=f"Is the {obj.shape} {asked}?",
                    response=answer,
                    source_id=f"ins{i:04d}v{v}",
                    modality=modality,
                    raw=raw_sample(enc, obj, rng),
                )
            )
    for j in range(n_language):
        w = LANGUAGE_WORDS[j % len(LANGUAGE_WORDS)]
        records.append(
            InstructionRecord(instruction=f"Say the word {w}.", response=w)
        )
    return records, objects


def generate_hq_corpus(
    n: int, seed: int, encoders: dict[Modality, SyntheticEncoder]
) -> list[InstructionRecord]:
    """Description-style records for the extra high-quality tuning pass."""
    objects = sample_objects(n, derive_rng(seed, "hq-objs").integers(2**31),
                             encoders[Modality.IMAGE].config.dim_joint)
    rng = derive_rng(seed, "hq-raws")
    enc = encoders[Modality.IMAGE]
    return [
        InstructionRecord(
            instruction=CAPTION_INSTRUCTION,
            response=o.caption,
            source_id=f"hq{i:04d}",
            modality=Modality.IMAGE,
            raw=raw_sample(enc, o, rng),
        )
        for i, o in enumerate(objects)
    ]


def generate_cache_corpus(
    objects: list[LatentObject],
    variants: int,
    seed: int,
    encoders: dict[Modality, SyntheticEncoder],
) -> list[dict]:
    """Image-modality raw samples, several jittered variants per object."""
    rng = derive_rng(seed, "cache-raws")
    enc = encoders[Modality.IMAGE]
    out = []
    for i, obj in enumerate(objects):
        for v in range(variants):
            out.append(
                {
                    "source_id": f"cache{i:04d}v{v}",
                    "modality": Modality.IMAGE.value,
                    "raw": raw_sample(enc, obj, rng).tolist(),
                }
            )
    return out


# ---------------------------------------------------------------------------
# JSONL round-trip
# ---------------------------------------------------------------------------


def _caption_to_json(r: CaptionRecord) -> dict:
    return {
        "source_id": r.source_id,
        "modality": r.modality.value,
        "raw": r.raw.tolist(),
        "caption": r.caption,
    }


def _instruction_to_json(r: InstructionRecord) -> dict:
    obj = {"instruction": r.instruction, "response": r.response}
    if not r.is_language_only:
        obj["source_id"] = r.source_id
        obj["modality"] = r.modality.value
        obj["raw"] = r.raw.tolist()
    return obj


def write_caption_corpus(path, records: list[CaptionRecord]) -> None:
    binfmt.write_jsonl(path, map(_caption_to_json, records))


def write_instruction_corpus(path, records: list[InstructionRecord]) -> None:
    binfmt.write_jsonl(path, map(_instruction_to_json, records))


_CAPTION_KEYS = SAMPLE_KEYS + ("caption",)
# a language-only instruction record has these two keys; a visual one adds SAMPLE_KEYS
_INSTRUCTION_KEYS = ("response", "instruction")


def _text(obj: dict, key: str) -> str:
    if not isinstance(obj[key], str) or not obj[key]:
        raise ValueError(f"{key} must be a nonempty string")
    return obj[key]


def _parse_instruction(obj: dict, dim_raw: int | None) -> InstructionRecord:
    response, instruction = _text(obj, "response"), _text(obj, "instruction")
    if obj.keys() == set(_INSTRUCTION_KEYS):
        return InstructionRecord(instruction=instruction, response=response)
    binfmt.keys(obj, "a visual record", _INSTRUCTION_KEYS + SAMPLE_KEYS)
    return InstructionRecord(instruction=instruction, response=response,
                             **parse_sample(obj, dim_raw))


def ingest(path, kind: str, dim_raw: int | None = None) -> list:
    """Schema-validated records from a JSONL file.

    Malformed lines are reported with their line numbers, up to 20 offenders;
    given dim_raw, so is a raw vector of another length.
    Duplicate source_ids are rejected for caption data. An empty file returns
    an empty list with a warning on stderr.
    """
    if kind not in ("caption", "instruction"):
        raise IngestError(f"unknown corpus kind {kind!r}")
    seen_ids: set[str] = set()

    def parse_caption(obj: dict):
        rec = CaptionRecord(caption=_text(obj, "caption"), **parse_sample(obj, dim_raw))
        if rec.source_id in seen_ids:
            raise ValueError(f"duplicate source_id {rec.source_id!r}")
        seen_ids.add(rec.source_id)
        return rec

    if kind == "caption":
        records = binfmt.read_jsonl(path, parse_caption, IngestError, _CAPTION_KEYS)
    else:
        records = binfmt.read_jsonl(path, lambda obj: _parse_instruction(obj, dim_raw),
                                    IngestError, _INSTRUCTION_KEYS, SAMPLE_KEYS)
    if not records:
        print(f"warning: {path} contained no records", file=sys.stderr)
    return records


# ---------------------------------------------------------------------------
# Dataset manifest
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"

# The file each corpus key names, as gen-data writes it; a manifest may rename any.
CORPUS_FILES = {
    "pretrain": "captions.jsonl",
    "instruct": "instruct.jsonl",
    "hq_instruct": "hq.jsonl",
    "eval_yesno": "eval_yesno.jsonl",
    "eval_yesno_audio": "eval_yesno_audio.jsonl",
    "cache": "cache.jsonl",
}


@dataclass
class DatasetManifest:
    encoder: EncoderConfig
    seed: int
    files: dict[str, str] = field(default_factory=dict)

    def save(self, directory) -> None:
        binfmt.write_json(Path(directory) / MANIFEST_NAME, asdict(self), indent=1)

    def __post_init__(self):
        check_fields(self, IngestError)
        binfmt.keys(self.files, "files", (), CORPUS_FILES, IngestError)
        if not all(isinstance(name, str) for name in self.files.values()):
            raise IngestError("files must map corpus keys to file names")

    @staticmethod
    def load(directory) -> "DatasetManifest":
        p = Path(directory) / MANIFEST_NAME
        payload = binfmt.parse_json(binfmt.read_text(p, IngestError), IngestError, p)
        return binfmt.build(DatasetManifest, payload, str(p), IngestError, encoder=EncoderConfig)

    def corpus_file(self, key: str) -> str:
        """The file name of corpus key: the manifest's, else CORPUS_FILES'."""
        return self.files.get(key, CORPUS_FILES[key])

    def encoders(self) -> dict[Modality, SyntheticEncoder]:
        return build_encoders(self.encoder)
