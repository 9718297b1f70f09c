"""The four workloads: inputs, set-up, one timed operation, and its check.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returns. The benchmark's own randomness comes
from ``numpy.random.default_rng([seed, purpose])``; everything bindlm builds
comes from the same workload seed through bindlm's public API.

A workload has four parts, which the harness calls in this order:

- ``make_inputs(seed, workdir)``: the generated inputs, made once, untimed;
- ``setup(inputs, workdir)``: what a user does before the first operation
  (corpus synthesis, cache and checkpoint building); timed as ``setup_s``;
- ``run(state, index, tracer)``: operation ``index``, timed from outside;
- ``check(state, index, op)``: the output check, untimed; returns failures.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from bindlm.bind import BindConfig, bind_forward, bind_init
from bindlm.cache import cache_build, enhance, load_cache, save_cache
from bindlm.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from bindlm.cli import cli
from bindlm.data import (
    CAPTION_INSTRUCTION,
    DatasetManifest,
    generate_cache_corpus,
    generate_instruction_corpus,
    ingest,
    raw_sample,
    sample_objects,
    write_instruction_corpus,
)
from bindlm.encoders import (
    EncoderConfig,
    Modality,
    build_encoders,
    encode,
    mix,
    placeholder_embedding,
    read_raw_samples,
)
from bindlm.evaluate import yesno_eval
from bindlm.lm import GenerationParams, LMConfig, generate, lm_forward, lm_init, prompt_template
from bindlm.peft import apply_peft
from bindlm.tokenizer import BOS, EOS, PAD, default_tokenizer
from bindlm.train import (
    default_plan,
    prepare_caption,
    prepare_instruction,
    render_instruction_prompt,
    run_stage,
)

from . import checks

CROSS_MODALITIES = (Modality.AUDIO, Modality.VIDEO, Modality.TEXT, Modality.POINT_CLOUD)


@dataclass
class Op:
    """One timed operation as seen from outside the library.

    Intervals are ``(end, seconds)`` pairs, ``end`` a ``perf_counter`` time,
    so the harness can rescale each by the host speed around it.
    """

    parts: list  # intervals of library work; the operation's time is their sum
    latencies: list  # intervals, one per step for training, else one
    attempted: int  # steps, requests or queries
    items: int = 0  # throughput units: positions, output tokens or queries
    output: object = None

    @property
    def wall(self) -> float:
        return sum(seconds for _, seconds in self.parts)


def gen_data(out: Path, seed: int, **sizes: int) -> Path:
    """Run ``bindlm gen-data`` through the CLI entry point."""
    argv = ["gen-data", "--out", str(out), "--seed", str(seed)]
    for key, value in sizes.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli(argv)
    if code != 0:
        raise RuntimeError(f"gen-data exited with {code}")
    return out


class StepClock(list):
    """The ``history`` list given to run_stage; each append ends a step.

    Between steps it may probe the host speed; ``intervals`` leave the probe
    time out, so the first one runs from ``resume`` to the first step's end.
    """

    def __init__(self, tracer=None, speed=None):
        super().__init__()
        self.intervals: list[tuple[float, float]] = []
        self.resume = time.perf_counter()
        self._tracer = tracer
        self._speed = speed

    def append(self, entry):
        now = time.perf_counter()
        self.intervals.append((now, now - self.resume))
        super().append(entry)
        if self._tracer is not None:
            self._tracer.op_id += 1
        if self._speed is not None:
            self._speed.maybe_probe()
        self.resume = time.perf_counter()


# ---------------------------------------------------------------------------
# Training: pretrain and instruct
# ---------------------------------------------------------------------------


@dataclass
class TrainSizes:
    caption_pairs: int = 32
    caption_variants: int = 4
    instruct_pairs: int = 32
    instruct_variants: int = 4
    language_records: int = 16
    warm_start_pairs: int = 8  # pretrain steps behind the instruct checkpoint
    lm: LMConfig = field(default_factory=LMConfig)


@dataclass
class TrainState:
    plan: object
    checkpoint_in: object
    lm_config: LMConfig
    workdir: Path
    positions: int = 0  # positions forwarded in one round
    reference: list | None = None  # losses of the first round
    extras: dict = field(default_factory=dict)  # figures of the latest round


class _Training:
    """One operation is a whole ``run_stage`` round; its steps are the samples."""

    name = ""

    def __init__(self, sizes: TrainSizes | None = None):
        self.sizes = sizes or TrainSizes()

    def make_inputs(self, seed: int, workdir: Path) -> int:
        return seed

    def cycle(self, state) -> int:
        return 1

    def extras(self, state: TrainState) -> dict:
        return state.extras

    def run(self, state: TrainState, index: int, tracer, speed=None) -> Op:
        counters: dict = {}
        clock = StepClock(tracer, speed)
        ckpt = run_stage(state.plan, checkpoint_in=state.checkpoint_in,
                         lm_config=state.lm_config, history=clock, counters=counters)
        end = time.perf_counter()
        parts = clock.intervals + [(end, end - clock.resume)]
        # the first step also holds stage prep, so it is no step latency
        return Op(parts, clock.intervals[1:], len(clock), output=(clock, ckpt, counters))

    def check(self, state: TrainState, index: int, op: Op) -> int:
        history, ckpt, counters = op.output
        losses = [h["loss"] for h in history]
        failed = checks.nonfinite_losses(losses)
        if state.reference is None:
            state.reference = losses
            state.positions = self._positions(state)
        elif losses != state.reference:
            # same plan, same seed: every round must repeat the first bit for bit
            failed += sum(a != b for a, b in zip(losses, state.reference))
            failed += abs(len(losses) - len(state.reference))
        bad, size = checks.checkpoint_roundtrip_failures(ckpt, state.workdir)
        failed += bad
        tail = losses[-max(1, len(losses) // 10):]
        state.extras.update({
            "final_loss": statistics.fmean(tail),
            "trainable_scalars": counters.get("trainable_params", 0),
            "checkpoint_bytes": size,
        })
        op.items = state.positions  # counted here, outside the timed region
        return min(failed, op.attempted)

    def _positions(self, state: TrainState) -> int:
        manifest = DatasetManifest.load(state.plan.data)
        encoders = manifest.encoders()
        tok = default_tokenizer()
        if state.plan.stage == "pretrain":
            records = ingest(Path(state.plan.data) / manifest.files["pretrain"], "caption")
            examples = [prepare_caption(r, tok, encoders) for r in records]
        else:
            records = ingest(Path(state.plan.data) / manifest.files["instruct"], "instruction")
            examples = [prepare_instruction(r, tok, encoders) for r in records]
        per_epoch = sum(len(e.prompt_ids) + len(e.target_ids) for e in examples)
        return per_epoch * state.plan.epochs


class Pretrain(_Training):
    """Joint caption pass: base LM, bind network and gates all train."""

    name = "pretrain"

    def setup(self, seed: int, workdir: Path) -> TrainState:
        s = self.sizes
        data = gen_data(workdir / "data", seed, caption_pairs=s.caption_pairs,
                        caption_variants=s.caption_variants, instruct_pairs=1,
                        instruct_variants=1, language_records=0, hq_records=1,
                        cache_variants=1)
        plan = default_plan("pretrain", str(data), seed=seed, epochs=1)
        return TrainState(plan, None, s.lm, workdir)


class Instruct(_Training):
    """LoRA pass from a briefly pretrained checkpoint; dense weights frozen."""

    name = "instruct"

    def setup(self, seed: int, workdir: Path) -> TrainState:
        s = self.sizes
        data = gen_data(workdir / "data", seed, caption_pairs=s.warm_start_pairs,
                        caption_variants=1, instruct_pairs=s.instruct_pairs,
                        instruct_variants=s.instruct_variants,
                        language_records=s.language_records, hq_records=1, cache_variants=1)
        warm = run_stage(default_plan("pretrain", str(data), seed=seed, epochs=1), lm_config=s.lm)
        save_checkpoint(warm, workdir / "warm.bnk")
        ckpt = load_checkpoint(workdir / "warm.bnk")
        plan = default_plan("instruct", str(data), seed=seed, epochs=1)
        return TrainState(plan, ckpt, s.lm, workdir)


# ---------------------------------------------------------------------------
# Generate: yes/no and caption requests against an initialization checkpoint
# ---------------------------------------------------------------------------


@dataclass
class GenerateSizes:
    yesno_per_modality: int = 14
    language_only: int = 4
    captions_per_modality: int = 10
    max_new_tokens: int = 16
    cache_objects: int = 64  # gen-data cache: objects x 16 variants
    lm: LMConfig = field(default_factory=LMConfig)


@dataclass
class Request:
    kind: str  # "yesno" or "caption"
    cached: bool
    record: object = None  # yes/no: an InstructionRecord (after set-up ingests it)
    modality: Modality | None = None
    raw: np.ndarray | None = None
    source_id: str = ""


@dataclass
class GenerateState:
    lm: object
    bind: object
    tok: object
    encoders: dict
    store: object
    requests: list
    max_new_tokens: int
    verified: dict = field(default_factory=dict)


class Generate:
    """100 requests: 60 yes/no first-token answers and 40 16-token captions.

    Half of each kind is cache-enhanced. The model is an initialization
    checkpoint: per-token cost does not depend on the weight values, and a
    briefly trained model emits EOS at once.
    """

    name = "generate"

    def __init__(self, sizes: GenerateSizes | None = None):
        self.sizes = sizes or GenerateSizes()

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        workdir.mkdir(parents=True, exist_ok=True)
        encoders = build_encoders(EncoderConfig(seed=seed))
        files = []
        for m in CROSS_MODALITIES:
            records, _ = generate_instruction_corpus(s.yesno_per_modality, 0, seed, encoders, modality=m)
            path = workdir / f"yesno_{m.value}.jsonl"
            write_instruction_corpus(path, records)
            files.append(path)
        language, _ = generate_instruction_corpus(0, s.language_only, seed, encoders)
        write_instruction_corpus(workdir / "yesno_language.jsonl", language)
        files.append(workdir / "yesno_language.jsonl")
        rng = np.random.default_rng([seed, 1])
        n_captions = s.captions_per_modality * len(CROSS_MODALITIES)
        objects = sample_objects(n_captions, seed, encoders[Modality.IMAGE].config.dim_joint)
        captions = []
        for i, obj in enumerate(objects):
            m = CROSS_MODALITIES[i % len(CROSS_MODALITIES)]
            captions.append(Request("caption", i % 2 == 0, modality=m,
                                    raw=raw_sample(encoders[m], obj, rng), source_id=f"req{i:03d}"))
        return {"seed": seed, "yesno_files": files, "captions": captions}

    def setup(self, inputs: dict, workdir: Path) -> GenerateState:
        s, seed = self.sizes, inputs["seed"]
        data = gen_data(workdir / "data", seed, caption_pairs=1, caption_variants=1,
                        instruct_pairs=s.cache_objects, instruct_variants=1,
                        language_records=0, hq_records=1, cache_variants=16)
        manifest = DatasetManifest.load(data)
        encoders = manifest.encoders()
        samples = read_raw_samples(data / manifest.files["cache"])
        store = cache_build(encode(encoders[x["modality"]], x["raw"], x["source_id"]) for x in samples)
        save_cache(store, workdir / "cache.bnc")
        store = load_cache(workdir / "cache.bnc")

        tok = default_tokenizer()
        # An untrained head emits any id below vocab_size, and decode rejects ids
        # past the merge table, so the serving vocabulary stops where the table does.
        lm_config = replace(s.lm, vocab_size=PAD + 1 + len(tok.merges))
        lm = lm_init(lm_config, seed)
        bind = bind_init(BindConfig(dim_joint=manifest.encoder.dim_joint, dim_lm=lm_config.dim), seed)
        apply_peft(lm, seed=seed)
        ckpt = Checkpoint.from_models(lm, bind, tok, manifest.encoder,
                                      rng_state={}, step=0, provenance=[f"init:seed={seed}"])
        save_checkpoint(ckpt, workdir / "serve.bnk")
        lm, bind, tok = load_checkpoint(workdir / "serve.bnk").to_models()

        yesno = [r for path in inputs["yesno_files"] for r in ingest(path, "instruction")]
        requests = [Request("yesno", i % 2 == 0, record=r) for i, r in enumerate(yesno)]
        requests += inputs["captions"]
        order = np.random.default_rng([seed, 2]).permutation(len(requests))
        return GenerateState(lm, bind, tok, encoders, store, [requests[i] for i in order],
                             s.max_new_tokens)

    def cycle(self, state: GenerateState) -> int:
        return len(state.requests)

    def extras(self, state: GenerateState) -> dict:
        return {}

    def run(self, state: GenerateState, index: int, tracer, speed=None) -> Op:
        req = state.requests[index % len(state.requests)]
        store = state.store if req.cached else None
        t0 = time.perf_counter()
        if req.kind == "yesno":
            report = yesno_eval(state.lm, state.bind, state.tok, state.encoders, [req.record],
                                cache=store)
            end = time.perf_counter()
            return Op([(end, end - t0)], [(end, end - t0)], 1, items=1, output=report["items"][0])
        emb = encode(state.encoders[req.modality], req.raw, req.source_id)
        if store is not None:
            emb = enhance(store, emb).enhanced
        prompt = state.tok.encode(prompt_template(CAPTION_INSTRUCTION))
        tokens = generate(state.lm, state.bind, emb, prompt,
                          GenerationParams(max_new_tokens=state.max_new_tokens))
        text = state.tok.decode(tokens)
        end = time.perf_counter()
        return Op([(end, end - t0)], [(end, end - t0)], 1, items=len(tokens),
                  output=(prompt, tokens, text))

    def check(self, state: GenerateState, index: int, op: Op) -> int:
        key = index % len(state.requests)
        if key in state.verified:  # a repeat must equal the output verified the first time
            return int(op.output != state.verified[key])
        req = state.requests[key]
        failed = self._oracle(state, req, op.output)
        state.verified[key] = op.output
        return min(failed, 1)

    def _condition(self, state: GenerateState, req: Request, modality, raw, source_id):
        emb = encode(state.encoders[modality], raw, source_id)
        if req.cached:
            emb = enhance(state.store, emb).enhanced
        return bind_forward(state.bind, emb)

    def _oracle(self, state: GenerateState, req: Request, output) -> int:
        tok = state.tok
        if req.kind == "yesno":
            rec = req.record
            if rec.is_language_only:
                condition = bind_forward(state.bind, placeholder_embedding(state.bind.config.dim_joint))
            else:
                condition = self._condition(state, req, rec.modality, rec.raw, rec.source_id)
            prompt = tok.encode(render_instruction_prompt(rec))
            logits = lm_forward(state.lm, [BOS] + prompt, condition).array
            failed = checks.greedy_failures(logits, len(prompt), [output["first_token"]])
            expected = tok.encode(" " + rec.response)[0]
            return failed + int(output["ok"] != (output["first_token"] == expected))
        prompt, tokens, text = output
        condition = self._condition(state, req, req.modality, req.raw, req.source_id)
        seq = [BOS] + prompt + tokens
        logits = lm_forward(state.lm, seq[:-1], condition).array
        failed = checks.greedy_failures(logits, len(prompt), tokens)
        stopped_early = len(tokens) < state.max_new_tokens
        failed += int(EOS in tokens[:-1] or (stopped_early and tokens[-1:] != [EOS]))
        return failed + int(text != tok.decode(tokens))


# ---------------------------------------------------------------------------
# Retrieve: cross-modal cache queries against a 16,384-row store
# ---------------------------------------------------------------------------


@dataclass
class RetrieveSizes:
    objects: int = 512
    variants: int = 32
    queries: int = 1024
    mix_every: int = 8  # every 8th query mixes two modalities
    k: int = 16
    alpha: float = 0.5


@dataclass
class Query:
    parts: list  # (modality, raw) pairs; two parts make a mix
    source_id: str


@dataclass
class RetrieveState:
    store: object
    encoders: dict
    queries: list
    verified: dict = field(default_factory=dict)
    recalls: dict = field(default_factory=dict)
    mode_walls: dict = field(default_factory=lambda: {m: [] for m in MODES})


MODES = ("exact", "partitioned")


class Retrieve:
    """1,024 cache queries, each ``encode`` (or two and ``mix``) then ``enhance``.

    The store is 512 objects x 32 image variants: 16,384 float64 rows, 8 MiB of
    keys, more than a core's 2 MiB L2. One operation runs a query with the exact
    scan and then with the partitioned (inverted-list) probe, so a change to
    one search path has the other as its control; timing the pair keeps the
    latency distribution unimodal.
    """

    name = "retrieve"

    def __init__(self, sizes: RetrieveSizes | None = None):
        self.sizes = sizes or RetrieveSizes()

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        encoders = build_encoders(EncoderConfig(seed=seed))
        objects = sample_objects(s.objects, seed, encoders[Modality.IMAGE].config.dim_joint)
        corpus = generate_cache_corpus(objects, s.variants, seed, encoders)
        rng = np.random.default_rng([seed, 3])
        queries = []
        for i in range(s.queries):
            obj = objects[int(rng.integers(len(objects)))]
            ms = [CROSS_MODALITIES[i % 4]]
            if i % s.mix_every == s.mix_every - 1:
                ms.append(CROSS_MODALITIES[(i + 1) % 4])
            queries.append(Query([(m, raw_sample(encoders[m], obj, rng)) for m in ms], f"q{i:04d}"))
        return {"seed": seed, "corpus": corpus, "queries": queries}

    def setup(self, inputs: dict, workdir: Path) -> RetrieveState:
        encoders = build_encoders(EncoderConfig(seed=inputs["seed"]))
        store = cache_build(
            encode(encoders[Modality(x["modality"])], x["raw"], x["source_id"])
            for x in inputs["corpus"]
        )
        workdir.mkdir(parents=True, exist_ok=True)
        save_cache(store, workdir / "store.bnc")
        store = load_cache(workdir / "store.bnc")
        store.build_partitions()
        return RetrieveState(store, encoders, inputs["queries"])

    def cycle(self, state: RetrieveState) -> int:
        return len(state.queries)

    def run(self, state: RetrieveState, index: int, tracer, speed=None) -> Op:
        q = state.queries[index % len(state.queries)]
        s = self.sizes
        parts, outputs = [], []
        for mode in MODES:
            t0 = time.perf_counter()
            embs = [encode(state.encoders[m], raw, q.source_id) for m, raw in q.parts]
            emb = embs[0] if len(embs) == 1 else mix(embs, [0.5, 0.5])
            result = enhance(state.store, emb, k=s.k, alpha=s.alpha, mode=mode)
            end = time.perf_counter()
            parts.append((end, end - t0))
            outputs.append((emb, result))
        walls = [seconds for _, seconds in parts]
        latency = (parts[-1][0], sum(walls))
        return Op(parts, [latency], len(MODES), items=len(MODES), output=(walls, outputs))

    def check(self, state: RetrieveState, index: int, op: Op) -> int:
        walls, outputs = op.output
        key = index % len(state.queries)
        found = [(list(r.indices), r.enhanced.array.tobytes()) for _, r in outputs]
        for mode, wall in zip(MODES, walls):
            state.mode_walls[mode].append(wall)
        if key in state.verified:
            return sum(a != b for a, b in zip(found, state.verified[key]))
        state.verified[key] = found
        s, store = self.sizes, state.store
        failed = 0
        for mode, (emb, result) in zip(MODES, outputs):
            q = emb.vector.array.reshape(-1)
            args = (store.keys, store.values, q, s.k, s.alpha, result.indices,
                    result.similarities.array.reshape(-1), result.enhanced.array)
            if mode == "exact":
                failed += checks.exact_query_failures(*args)
            else:
                failed += checks.approximate_query_failures(*args)
                truth, _ = checks.topk_oracle(store.keys, q, s.k)
                state.recalls[key] = checks.recall(result.indices, truth.tolist())
        return failed

    def extras(self, state: RetrieveState) -> dict:
        exact, partitioned = (statistics.median(state.mode_walls[m]) for m in MODES)
        return {"recall_at_16": statistics.fmean(state.recalls.values()),
                "partitioned_over_exact_pct": 100.0 * partitioned / exact}


WORKLOADS = {
    "pretrain": Pretrain,
    "instruct": Instruct,
    "generate": Generate,
    "retrieve": Retrieve,
}
