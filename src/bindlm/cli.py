"""Command-line surface tying the corpus, training, cache, and eval together.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import binfmt
from .cache import (
    DEFAULT_ALPHA,
    DEFAULT_TOP_K,
    CacheBuildError,
    CacheFormatError,
    CacheRangeError,
    EmptyCacheError,
    cache_build,
    enhance,
    load_cache,
    save_cache,
    topk,
)
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .data import (
    CORPUS_FILES,
    DatasetManifest,
    IngestError,
    generate_cache_corpus,
    generate_caption_corpus,
    generate_hq_corpus,
    generate_instruction_corpus,
    ingest,
    write_caption_corpus,
    write_instruction_corpus,
    write_jsonl,
)
from .encoders import (
    ENCODER_MODALITIES,
    DegenerateMixError,
    EncoderConfig,
    JointEmbedding,
    Modality,
    build_encoders,
    encode,
    mix,
    read_raw_samples,
)
from .evaluate import perplexity_eval, write_report, yesno_eval
from .lm import (
    GenerationParams,
    GenerationParamsError,
    TruncationError,
    VocabularyError,
    generate,
    prompt_template,
)
from .tensor import EmptyBatchError, NonFiniteError, ShapeError
from .train import DivergenceError, PipelineError, default_plan, plan_from_file, run_stage

_USAGE_EXIT, _DATA_EXIT, _DIVERGENCE_EXIT = 1, 2, 3

_DATA_ERRORS = (
    IngestError,
    CacheFormatError,
    CacheRangeError,
    CacheBuildError,
    EmptyCacheError,
    CheckpointFormatError,
    ShapeError,
    VocabularyError,
    TruncationError,
    DegenerateMixError,
    EmptyBatchError,
    NonFiniteError,
    PipelineError,
)


_MODALITY_CHOICES = [m.value for m in ENCODER_MODALITIES]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_help()}")


def _count(text: str) -> int:
    """argparse type for a corpus size: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # reported below, like a negative count
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _output_path(text: str, directory: bool = False) -> str:
    """argparse type for a path to write: a file whose directory exists, or
    (directory=True) a directory to make, whose nearest existing ancestor is one."""
    path = Path(text)
    if not directory and path.is_dir():
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    home = (next((p for p in (path, *path.parents) if p.exists()), path) if directory
            else path.parent)
    if not home.is_dir():
        what = "is not a directory" if home.exists() else "does not exist"
        raise argparse.ArgumentTypeError(f"{text}: {home} {what}")
    return text


def _build_parser() -> _Parser:
    p = _Parser(prog="bindlm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="emit the synthetic corpora")
    g.add_argument("--out", metavar="DIR", required=True,
                   type=functools.partial(_output_path, directory=True))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--caption-pairs", type=_count, default=32)
    g.add_argument("--caption-variants", type=_count, default=16)
    g.add_argument("--instruct-pairs", type=_count, default=64)
    g.add_argument("--instruct-variants", type=_count, default=12)
    g.add_argument("--language-records", type=_count, default=16)
    g.add_argument("--hq-records", type=_count, default=8)
    g.add_argument("--cache-variants", type=_count, default=16)

    t = sub.add_parser("train", help="run one training stage")
    t.add_argument("--stage", required=True, choices=["pretrain", "instruct", "hq"])
    t.add_argument("--data", metavar="DIR", required=True)
    t.add_argument("--out", metavar="FILE", required=True, type=_output_path)
    t.add_argument("--init", metavar="FILE", help="input checkpoint (required after pretrain)")
    t.add_argument("--plan", metavar="FILE", help="flat key = value plan file")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--history", metavar="FILE", type=_output_path,
                   help="write per-step loss/gate log as JSON")

    gen = sub.add_parser("generate", help="conditioned generation from a checkpoint")
    gen.add_argument("--ckpt", metavar="FILE", required=True)
    gen.add_argument("--modality", required=True, choices=_MODALITY_CHOICES)
    gen.add_argument("--input", metavar="FILE", required=True, help="JSON file with the raw vector")
    gen.add_argument("--prompt", required=True)
    gen.add_argument("--cache", metavar="FILE")
    gen.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    gen.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    gen.add_argument("--raw-eq4", action="store_true")
    gen.add_argument("--max-new", type=int, default=24)
    gen.add_argument("--temperature", type=float, default=0.0)
    gen.add_argument("--top-k", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("cache", help="build or query the embedding cache")
    csub = c.add_subparsers(dest="cache_command", required=True)
    cb = csub.add_parser("build")
    cb.add_argument("--data", metavar="DIR", required=True)
    cb.add_argument("--out", metavar="FILE", required=True, type=_output_path)
    cq = csub.add_parser("query")
    ce = csub.add_parser("enhance")
    for q in (cq, ce):
        q.add_argument("--cache", metavar="FILE", required=True)
        q.add_argument("--data", metavar="DIR", required=True)
        q.add_argument("--modality", required=True, choices=_MODALITY_CHOICES)
        q.add_argument("--input", metavar="FILE", required=True)
        q.add_argument("--k", type=int, default=DEFAULT_TOP_K)
        q.add_argument("--mode", choices=["exact", "partitioned"], default="exact")
        q.add_argument("--nlist", type=int)
        q.add_argument("--nprobe", type=int)
        q.add_argument("--seed", type=int, default=0)
    ce.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    ce.add_argument("--raw-eq4", action="store_true")

    m = sub.add_parser("mix", help="coefficient-weighted embedding mixing")
    m.add_argument("--data", metavar="DIR", required=True)
    m.add_argument("--inputs", nargs="+", required=True, metavar="FILE:COEF")
    m.add_argument("--out", metavar="FILE", type=_output_path)

    e = sub.add_parser("eval", help="run an evaluation suite")
    e.add_argument("--suite", required=True, choices=["perplexity", "yesno"])
    e.add_argument("--ckpt", metavar="FILE", required=True)
    e.add_argument("--data", metavar="DIR", required=True)
    e.add_argument("--file", metavar="FILE", help="corpus file name inside --data")
    e.add_argument("--cache", metavar="FILE")
    e.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    e.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    e.add_argument("--raw-eq4", action="store_true")
    e.add_argument("--out", metavar="FILE", type=_output_path, help="write the JSON report here")
    e.add_argument("--seed", type=int, default=0)
    return p


def _read_input(path, encoders, modality: str | None = None) -> JointEmbedding:
    """The encoding of a raw input file: a bare array, or an object whose "raw"
    is the array. Without modality, the object's "modality" picks the encoder."""
    try:
        obj = json.loads(binfmt.read_text(path, IngestError))
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: not a JSON file: {exc}") from None
    named = None
    if isinstance(obj, dict):
        if "raw" not in obj:
            raise IngestError(f"{path}: an input object needs a \"raw\" key")
        named, obj = obj.get("modality"), obj["raw"]
    if modality is None:
        if named not in _MODALITY_CHOICES:
            raise IngestError(f"{path}: a mix input needs a \"modality\" naming an "
                              f"encoder modality, got {named!r}")
        modality = named
    encoder = encoders[Modality(modality)]
    try:
        raw = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        raise IngestError(f"{path}: the raw vector is not a list of numbers") from None
    if raw.size != encoder.config.dim_raw:
        raise IngestError(f"{path}: the raw vector holds {raw.size} numbers, "
                          f"the encoders take {encoder.config.dim_raw}")
    raw = raw.reshape(-1)
    if not np.isfinite(raw).all():
        bad = int(np.flatnonzero(~np.isfinite(raw))[0])
        raise IngestError(f"{path}: the raw vector holds {raw[bad]} at index {bad}")
    with np.errstate(over="ignore"):  # a norm that overflows is rescaled, not an error
        return encode(encoder, raw)


def _cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    enc_cfg = EncoderConfig(seed=args.seed)
    encoders = build_encoders(enc_cfg)
    captions, _ = generate_caption_corpus(
        args.caption_pairs, args.seed, encoders, variants=args.caption_variants
    )
    write_caption_corpus(out / CORPUS_FILES["pretrain"], captions)
    instruct, objects = generate_instruction_corpus(
        args.instruct_pairs, args.language_records, args.seed, encoders,
        variants=args.instruct_variants,
    )
    write_instruction_corpus(out / CORPUS_FILES["instruct"], instruct)
    write_instruction_corpus(out / CORPUS_FILES["hq_instruct"],
                             generate_hq_corpus(args.hq_records, args.seed, encoders))
    eval_img, _ = generate_instruction_corpus(args.instruct_pairs, 0, args.seed, encoders)
    write_instruction_corpus(out / CORPUS_FILES["eval_yesno"], eval_img)
    eval_audio, _ = generate_instruction_corpus(
        args.instruct_pairs, 0, args.seed, encoders, modality=Modality.AUDIO
    )
    write_instruction_corpus(out / CORPUS_FILES["eval_yesno_audio"], eval_audio)
    write_jsonl(out / CORPUS_FILES["cache"],
                generate_cache_corpus(objects, args.cache_variants, args.seed, encoders))
    DatasetManifest(encoder=enc_cfg, seed=args.seed, files=dict(CORPUS_FILES)).save(out)
    print(f"wrote corpora to {out}")
    return 0


def _cmd_train(args) -> int:
    stage = {"hq": "hq_instruct"}.get(args.stage, args.stage)
    if args.plan:
        plan = plan_from_file(args.plan, stage, args.data, args.seed)
    else:
        plan = default_plan(stage, args.data, seed=args.seed)
    checkpoint_in = load_checkpoint(args.init) if args.init else None
    history: list = []
    ckpt = run_stage(plan, checkpoint_in=checkpoint_in, history=history)
    save_checkpoint(ckpt, args.out)
    if args.history:
        Path(args.history).write_text(json.dumps(history, sort_keys=True) + "\n")
    final = history[-1]["loss"] if history else float("nan")
    print(f"stage {plan.stage}: {len(history)} steps, final loss {final:.4f}, "
          f"checkpoint {args.out}")
    return 0


def _load_models(path):
    """The models and encoders of a checkpoint; a config error names the file."""
    ckpt = load_checkpoint(path)
    try:
        lm, bind, tok = ckpt.to_models()
        encoders = build_encoders(ckpt.encoder_config())
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None
    return lm, bind, tok, encoders


def _condition_for(args, encoders):
    emb = _read_input(args.input, encoders, args.modality)
    if args.cache:
        store = load_cache(args.cache)
        emb = enhance(store, emb, k=args.k, alpha=args.alpha, raw_eq4=args.raw_eq4).enhanced
    return emb


_GENERATION_FLAGS = {"max_new_tokens": "--max-new", "temperature": "--temperature",
                     "top_k": "--top-k"}


def _cmd_generate(args) -> int:
    try:
        params = GenerationParams(max_new_tokens=args.max_new, temperature=args.temperature,
                                  top_k=args.top_k, seed=args.seed)
    except GenerationParamsError as exc:
        raise UsageError(f"{_GENERATION_FLAGS[exc.field]}: {exc}") from None
    lm, bind, tok, encoders = _load_models(args.ckpt)
    emb = _condition_for(args, encoders)
    prompt_ids = tok.encode(prompt_template(args.prompt))
    out = generate(lm, bind, emb, prompt_ids, params)
    print(tok.decode(out).strip())
    return 0


def _cmd_cache(args) -> int:
    if args.cache_command == "build":
        manifest = DatasetManifest.load(args.data)
        encoders = manifest.encoders()
        samples = read_raw_samples(Path(args.data) / manifest.corpus_file("cache"))
        store = cache_build(encode(encoders[s["modality"]], s["raw"], s["source_id"])
                            for s in samples)
        save_cache(store, args.out)
        print(f"cached {store.size} embeddings to {args.out}")
        return 0

    store = load_cache(args.cache)
    manifest = DatasetManifest.load(args.data)
    emb = _read_input(args.input, manifest.encoders(), args.modality)
    if args.mode == "partitioned":
        store.build_partitions(nlist=args.nlist, nprobe=args.nprobe, seed=args.seed)
    if args.cache_command == "query":
        r = topk(store, emb, args.k, mode=args.mode)
        print(json.dumps(
            {
                "ids": [store.ids[i] for i in r.indices],
                "indices": r.indices,
                "similarities": r.similarities.array.reshape(-1).tolist(),
            },
            sort_keys=True,
        ))
        return 0
    r = enhance(store, emb, k=args.k, alpha=args.alpha, mode=args.mode, raw_eq4=args.raw_eq4)
    print(json.dumps(
        {"enhanced": r.enhanced.array.reshape(-1).tolist(), "indices": r.indices},
        sort_keys=True,
    ))
    return 0


def _cmd_mix(args) -> int:
    encoders = DatasetManifest.load(args.data).encoders()
    embs, coeffs = [], []
    for spec in args.inputs:
        if ":" not in spec:
            raise UsageError(f"--inputs entries are FILE:COEF, got {spec!r}")
        file_part, coef = spec.rsplit(":", 1)
        try:
            coeffs.append(float(coef))
        except ValueError:
            raise UsageError(f"--inputs {spec!r}: coefficient {coef!r} is not a number")
        embs.append(_read_input(file_part, encoders))
    with np.errstate(over="ignore"):  # as in _read_input
        mixed = mix(embs, coeffs)
    payload = json.dumps(
        {"modality": mixed.modality.value, "vector": mixed.vector.array.reshape(-1).tolist()},
        sort_keys=True,
    )
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_eval(args) -> int:
    lm, bind, tok, encoders = _load_models(args.ckpt)
    manifest = DatasetManifest.load(args.data)
    if args.suite == "perplexity":
        records = ingest(Path(args.data) / (args.file or manifest.corpus_file("pretrain")),
                         "caption")
        report = perplexity_eval(lm, bind, tok, encoders, records)
    else:
        records = ingest(Path(args.data) / (args.file or manifest.corpus_file("eval_yesno")),
                         "instruction")
        store = load_cache(args.cache) if args.cache else None
        report = yesno_eval(lm, bind, tok, encoders, records, cache=store,
                            k=args.k, alpha=args.alpha, raw_eq4=args.raw_eq4)
    if args.out:
        write_report(report, args.out)
    summary = {k: v for k, v in report.items() if k != "items"}
    print(json.dumps(summary, sort_keys=True))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "cache": _cmd_cache,
    "mix": _cmd_mix,
    "eval": _cmd_eval,
}


def cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DIVERGENCE_EXIT
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_EXIT


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
