"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The slow criteria share one
golden pipeline run (gen-data -> pretrain -> instruct -> hq -> cache -> eval)
driven through the CLI; the determinism criterion repeats it from scratch and
compares checksums.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from bindlm.bind import BindConfig, BindNetwork, bind_forward, bind_init
from bindlm.cache import cache_build, enhance, load_cache, topk
from bindlm.checkpoint import load_checkpoint
from bindlm.cli import cli
from bindlm.data import (
    CAPTION_INSTRUCTION,
    DatasetManifest,
    generate_instruction_corpus,
    ingest,
    sample_objects,
)
from bindlm.encoders import (
    EncoderConfig,
    JointEmbedding,
    Modality,
    build_encoders,
    encode,
)
from bindlm.lm import (
    GenerationParams,
    InjectedLM,
    LMConfig,
    caption_loss,
    generate,
    lm_forward,
    lm_init,
    prompt_template,
)
from bindlm.peft import LoraSpec, lora_forward, merge
from bindlm.tensor import Tensor, derive_rng, grad_check, matmul, uniform_init

from _oracles import bind_oracle
from test_cache import exhaustive_topk_oracle

SEED = 0


def _ok(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# Criterion 1: zero-gate identity, bitwise, 100 randomized triples
# ---------------------------------------------------------------------------


def test_c1_zero_gate_identity():
    shapes = [
        LMConfig(vocab_size=300, dim=32, layers=2, heads=2, max_seq=32),
        LMConfig(vocab_size=300, dim=64, layers=3, heads=4, max_seq=32),
        LMConfig(vocab_size=300, dim=32, layers=1, heads=1, max_seq=32, positions="rope"),
        LMConfig(vocab_size=300, dim=32, layers=2, heads=2, max_seq=32, shared_gate=True),
    ]
    rng = derive_rng(SEED, "acc-c1")
    for trial in range(100):
        cfg = shapes[trial % len(shapes)]
        lm = lm_init(cfg, seed=trial)
        n = int(rng.integers(2, 14))
        tokens = rng.integers(0, cfg.vocab_size, size=n).tolist()
        condition = Tensor(rng.standard_normal((1, cfg.dim)) * rng.uniform(0.1, 3.0))
        with_cond = lm_forward(lm, tokens, condition).array
        without = lm_forward(lm, tokens, None).array
        assert with_cond.tobytes() == without.tobytes(), f"triple {trial}"
    _ok("C1 zero-gate identity (bitwise, 100 triples)")


# ---------------------------------------------------------------------------
# Criterion 2: gradient fidelity over bind + gates + one LoRA adapter
# ---------------------------------------------------------------------------


def test_c2_gradient_fidelity():
    cfg = LMConfig(vocab_size=260, dim=16, layers=2, heads=2, max_seq=32)
    bind_cfg = BindConfig(dim_joint=8, dim_lm=16, dim_hidden=32)
    lm = lm_init(cfg, SEED)
    bind = bind_init(bind_cfg, SEED)
    rng = derive_rng(SEED, "acc-c2")

    # one adapter, with B off zero so the A path carries gradient
    lm.params["layers.0.wq.lora_a"] = uniform_init(derive_rng(SEED, "lora", "c2"), (4, 16), 0.25)
    lm.params["layers.0.wq.lora_b"] = Tensor(rng.standard_normal((16, 4)) * 0.2)
    lm.params["layers.0.wq.bias"] = Tensor(np.zeros((1, 16)))
    lm.adapters["layers.0.wq"] = LoraSpec(rank=4, scaling=0.25)
    # gates and w3 off zero so the bind path carries gradient
    for l in range(cfg.layers):
        lm.params[f"gates.{l}"] = Tensor([[0.4 - 0.15 * l]])
    for i in range(3):
        w3 = bind.params[f"blocks.{i}.w3"]
        bind.params[f"blocks.{i}.w3"] = Tensor(rng.standard_normal(w3.shape) * 0.2)

    emb = JointEmbedding.of(rng.standard_normal(8), Modality.IMAGE, "c2")
    prompt = [1, 2, 3]
    target = [7, 250, 9, 40]

    bind_names = sorted(bind.params)
    lm_names = ["gates.0", "gates.1", "layers.0.wq.lora_a",
                "layers.0.wq.lora_b", "layers.0.wq.bias"]
    base = [bind.params[n] for n in bind_names] + [lm.params[n] for n in lm_names]

    def f(params):
        bp = dict(bind.params)
        lp = dict(lm.params)
        for name, tensor in zip(bind_names, params[: len(bind_names)]):
            bp[name] = tensor
        for name, tensor in zip(lm_names, params[len(bind_names):]):
            lp[name] = tensor
        trial_bind = BindNetwork(bind_cfg, bp)
        trial_lm = InjectedLM(cfg, lp)
        trial_lm.adapters = lm.adapters
        return caption_loss(trial_lm, trial_bind, emb, prompt, target)

    n_params = sum(t.size for t in base)
    err = grad_check(f, base, h=1e-5)
    assert err < 1e-6, f"max relative error {err:.3e} over {n_params} coordinates"
    _ok(f"C2 gradient fidelity ({n_params} coordinates, max rel err {err:.2e} < 1e-6)")


# ---------------------------------------------------------------------------
# Criterion 3: bind network equals the straight-line oracle on 50 seeded nets
# ---------------------------------------------------------------------------


def test_c3_bind_oracle_equivalence():
    dims = [(8, 16, 32), (4, 8, 8), (16, 8, 24), (64, 128, 256), (3, 5, 7)]
    worst = 0.0
    for seed in range(50):
        dj, dl, dh = dims[seed % len(dims)]
        cfg = BindConfig(dim_joint=dj, dim_lm=dl, dim_hidden=dh)
        rng = derive_rng(seed, "acc-c3")
        net = bind_init(cfg, seed)
        params = {
            n: Tensor(rng.standard_normal(t.shape) * 0.4) for n, t in net.params.items()
        }
        net = BindNetwork(cfg, params)
        emb = JointEmbedding.of(rng.standard_normal(dj), Modality.IMAGE, "x")
        got = bind_forward(net, emb).array
        want = bind_oracle({n: t.array for n, t in params.items()}, emb.vector.array)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-10
    _ok(f"C3 bind oracle equivalence (50 nets, max abs diff {worst:.2e} < 1e-10)")


# ---------------------------------------------------------------------------
# Criterion 4: LoRA no-op and merge equivalence on 50 random cases
# ---------------------------------------------------------------------------


def test_c4_lora_noop_and_merge():
    worst = 0.0
    for seed in range(50):
        rng = derive_rng(seed, "acc-c4")
        in_dim = int(rng.integers(2, 24))
        out_dim = int(rng.integers(2, 24))
        rank = int(rng.integers(1, min(in_dim, out_dim) + 1))
        w = Tensor(rng.standard_normal((in_dim, out_dim)))
        x = Tensor(rng.standard_normal((int(rng.integers(1, 6)), in_dim)))

        a = uniform_init(derive_rng(seed, "lora", "adapter"), (rank, in_dim), 1.0 / np.sqrt(in_dim))
        bias = Tensor(np.zeros((1, out_dim)))
        fresh = lora_forward(x, w, a, Tensor(np.zeros((out_dim, rank))), bias, 1.0 / rank)
        assert fresh.array.tobytes() == matmul(x, w).array.tobytes()

        b = Tensor(rng.standard_normal((out_dim, rank)))
        adapted = lora_forward(x, w, a, b, bias, 1.0 / rank).array
        dense = matmul(x, merge(w, a, b, 1.0 / rank)).array
        worst = max(worst, float(np.abs(adapted - dense).max()))
    assert worst < 1e-10
    _ok(f"C4 LoRA no-op bitwise + merge equivalence (50 cases, max diff {worst:.2e} < 1e-10)")


# ---------------------------------------------------------------------------
# Criterion 5: cache exactness and partitioned recall on 200 randomized stores
# ---------------------------------------------------------------------------


def test_c5_cache_exactness_and_recall():
    rng = derive_rng(SEED, "acc-c5")
    hits = total = 0
    for trial in range(200):
        m = int(np.exp(rng.uniform(np.log(16), np.log(4096))))
        dim = 64
        mat = rng.standard_normal((m, dim))
        mat /= np.sqrt((mat * mat).sum(axis=1, keepdims=True))
        embs = [JointEmbedding.of(row, Modality.IMAGE, f"r{i}") for i, row in enumerate(mat)]
        store = cache_build(embs)
        k = min(16, m)
        for _ in range(2):
            q = JointEmbedding.of(rng.standard_normal(dim), Modality.AUDIO, "q")
            got = topk(store, q, k).indices
            want = exhaustive_topk_oracle(store.keys, q.vector.array.reshape(-1), k)
            assert got == want, f"store {trial} (M={m})"
        if m >= 32:
            store.build_partitions(seed=trial)
            q = JointEmbedding.of(rng.standard_normal(dim), Modality.AUDIO, "q")
            exact = set(topk(store, q, k).indices)
            approx = set(topk(store, q, k, mode="partitioned").indices)
            hits += len(exact & approx)
            total += k
    recall = hits / total
    assert recall >= 0.95
    _ok(f"C5 cache exactness (200 stores) + partitioned recall@16 = {recall:.3f} >= 0.95")


# ---------------------------------------------------------------------------
# Criterion 6: enhancement collapse and blend
# ---------------------------------------------------------------------------


def test_c6_enhancement_collapse_and_blend():
    rng = derive_rng(SEED, "acc-c6")
    embs = [
        JointEmbedding.of(rng.standard_normal(16), Modality.IMAGE, f"e{i}") for i in range(10)
    ]
    store = cache_build(embs)
    q = JointEmbedding.of(rng.standard_normal(16), Modality.AUDIO, "q")
    r0 = enhance(store, q, k=4, alpha=0.0)
    assert np.array_equal(r0.enhanced.array, q.vector.array)

    exact_vecs = [[1.0] + [0.0] * 15, [0.0, 1.0] + [0.0] * 14, [0.5, 0.5, 0.5, 0.5] + [0.0] * 12]
    exact = [JointEmbedding.of(v, Modality.IMAGE, f"x{i}") for i, v in enumerate(exact_vecs)]
    store2 = cache_build(exact)
    r1 = enhance(store2, exact[2], k=1, alpha=1.0)
    assert np.abs(r1.enhanced.array - store2.values[2]).max() < 1e-9

    # five-key hand oracle (worked out by hand; see test_cache for the steps)
    vecs = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.5, 0.5],
    ]
    five = [JointEmbedding.of(v, Modality.IMAGE, f"v{i}") for i, v in enumerate(vecs)]
    r2 = enhance(cache_build(five), five[0], k=3, alpha=0.5)
    want = np.array([[11.0, 1.0, 1.0, 1.0]]) / 12.0
    assert np.abs(r2.enhanced.array - want).max() < 1e-10
    _ok("C6 enhancement collapse (alpha=0 exact, alpha=1 self) + 5-key hand oracle")


# ---------------------------------------------------------------------------
# Golden pipeline (shared by criteria 7, 8, 9)
# ---------------------------------------------------------------------------


@dataclass
class Pipeline:
    root: Path
    data: Path
    ck_pretrain: Path
    ck_instruct: Path
    ck_hq: Path
    cache_file: Path
    pretrain_history: list
    reports: dict[str, Path]


def _run_pipeline(root: Path) -> Pipeline:
    data = root / "data"
    ck1, ck2, ck3 = root / "pretrain.bnk", root / "instruct.bnk", root / "hq.bnk"
    cache_file = root / "cache.bnc"
    hist = root / "pretrain_history.json"
    assert cli(["gen-data", "--out", str(data), "--seed", str(SEED)]) == 0
    assert cli(["train", "--stage", "pretrain", "--data", str(data), "--out", str(ck1),
                "--seed", str(SEED), "--history", str(hist)]) == 0
    assert cli(["train", "--stage", "instruct", "--data", str(data), "--out", str(ck2),
                "--init", str(ck1), "--seed", str(SEED)]) == 0
    assert cli(["train", "--stage", "hq", "--data", str(data), "--out", str(ck3),
                "--init", str(ck2), "--seed", str(SEED)]) == 0
    assert cli(["cache", "build", "--data", str(data), "--out", str(cache_file)]) == 0
    reports = {}
    for name, extra in (
        ("yesno_image", ["--file", "eval_yesno.jsonl"]),
        ("yesno_audio_naive", ["--file", "eval_yesno_audio.jsonl"]),
        ("yesno_audio_enhanced", ["--file", "eval_yesno_audio.jsonl",
                                  "--cache", str(cache_file)]),
    ):
        path = root / f"report_{name}.json"
        assert cli(["eval", "--suite", "yesno", "--ckpt", str(ck2), "--data", str(data),
                    "--out", str(path)] + extra) == 0
        reports[name] = path
    ppl = root / "report_perplexity.json"
    assert cli(["eval", "--suite", "perplexity", "--ckpt", str(ck1), "--data", str(data),
                "--out", str(ppl)]) == 0
    reports["perplexity"] = ppl
    return Pipeline(root, data, ck1, ck2, ck3, cache_file,
                    json.loads(hist.read_text()), reports)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> Pipeline:
    return _run_pipeline(tmp_path_factory.mktemp("golden"))


# ---------------------------------------------------------------------------
# Criterion 7: modality-gap mitigation
# ---------------------------------------------------------------------------


def test_c7_modality_gap_mitigation(pipeline):
    enc_cfg = EncoderConfig(seed=SEED)
    encoders = build_encoders(enc_cfg)
    img, aud = encoders[Modality.IMAGE], encoders[Modality.AUDIO]
    objects = sample_objects(500, derive_rng(SEED, "acc-c7").integers(2**31), enc_cfg.dim_joint)
    rng = derive_rng(SEED, "acc-c7-raws")

    # 16 variants per object: dense enough that a query's top-16 is dominated
    # by same-concept rows rather than attribute-sharing distractors
    cache_embs = []
    for i, o in enumerate(objects):
        for v in range(16):
            noisy = o.latent + 0.05 * rng.standard_normal(enc_cfg.dim_joint) / 8.0
            cache_embs.append(encode(img, img.raw_for_latent(noisy), f"c{i}v{v}"))
    store = cache_build(cache_embs)

    before, after = [], []
    for i, o in enumerate(objects):
        paired = encode(img, img.raw_for_latent(o.latent), f"p{i}").vector.array.reshape(-1)
        noisy = o.latent + 0.05 * rng.standard_normal(enc_cfg.dim_joint) / 8.0
        query = encode(aud, aud.raw_for_latent(noisy), f"q{i}")
        qv = query.vector.array.reshape(-1)
        ev = enhance(store, query, k=16, alpha=0.5).enhanced.array.reshape(-1)
        before.append(float(qv @ paired))
        after.append(float(ev @ paired / np.sqrt(ev @ ev)))
    gain = float(np.mean(after)) - float(np.mean(before))
    assert gain > 0.0, f"mean cosine did not increase (gain {gain:+.5f})"

    # paired yes/no comparison on the cross-modal suite from the golden run
    naive = json.loads(pipeline.reports["yesno_audio_naive"].read_text())
    enhanced = json.loads(pipeline.reports["yesno_audio_enhanced"].read_text())
    assert enhanced["accuracy"] >= naive["accuracy"], (
        f"enhanced {enhanced['accuracy']:.3f} < naive {naive['accuracy']:.3f}"
    )
    _ok(
        "C7 modality-gap mitigation (mean cosine "
        f"{np.mean(before):.4f} -> {np.mean(after):.4f}, margin {gain:+.4f}; "
        f"yes/no enhanced {enhanced['accuracy']:.3f} >= naive {naive['accuracy']:.3f})"
    )


# ---------------------------------------------------------------------------
# Criterion 8: two-stage training smoke
# ---------------------------------------------------------------------------


def test_c8_two_stage_training_smoke(pipeline):
    # stage 1: mean loss of the final epoch < 0.5 (3 epochs, desk defaults)
    history = pipeline.pretrain_history
    steps_per_epoch = len(history) // 3
    final_epoch = [h["loss"] for h in history[-steps_per_epoch:]]
    mean_loss = float(np.mean(final_epoch))
    assert mean_loss < 0.5, f"stage-1 final-epoch mean loss {mean_loss:.3f}"

    # at least one gate left zero
    gates = history[-1]["gates"]
    assert max(abs(g) for g in gates) > 0.01, f"gates stayed near zero: {gates}"

    # greedy captioning recovers >= 28/32 training captions
    ck = load_checkpoint(pipeline.ck_pretrain)
    lm, bind, tok = ck.to_models()
    encoders = build_encoders(ck.encoder_config())
    records = ingest(pipeline.data / "captions.jsonl", "caption")
    by_caption = {}
    for r in records:  # first variant of each pair
        by_caption.setdefault(r.caption, r)
    assert len(by_caption) == 32
    prompt = tok.encode(prompt_template(CAPTION_INSTRUCTION))
    recovered = 0
    for caption, rec in by_caption.items():
        emb = encode(encoders[rec.modality], rec.raw, rec.source_id)
        out = generate(lm, bind, emb, prompt, GenerationParams(max_new_tokens=16))
        recovered += tok.decode(out) == " " + caption
    assert recovered >= 28, f"recovered {recovered}/32"

    # stage 2: yes/no train accuracy >= 0.9
    report = json.loads(pipeline.reports["yesno_image"].read_text())
    assert report["accuracy"] >= 0.9, f"yes/no accuracy {report['accuracy']:.3f}"
    _ok(
        f"C8 two-stage smoke (loss {mean_loss:.3f} < 0.5, max |gate| "
        f"{max(abs(g) for g in gates):.3f} > 0.01, recovery {recovered}/32, "
        f"yes/no {report['accuracy']:.3f} >= 0.9)"
    )


# ---------------------------------------------------------------------------
# Criterion 9: determinism and persistence
# ---------------------------------------------------------------------------


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c9_determinism_and_persistence(pipeline, tmp_path):
    second = _run_pipeline(tmp_path / "again")

    comparisons = [
        ("captions corpus", pipeline.data / "captions.jsonl", second.data / "captions.jsonl"),
        ("instruct corpus", pipeline.data / "instruct.jsonl", second.data / "instruct.jsonl"),
        ("pretrain ckpt", pipeline.ck_pretrain, second.ck_pretrain),
        ("instruct ckpt", pipeline.ck_instruct, second.ck_instruct),
        ("hq ckpt", pipeline.ck_hq, second.ck_hq),
        ("cache file", pipeline.cache_file, second.cache_file),
    ] + [
        (f"report {name}", pipeline.reports[name], second.reports[name])
        for name in sorted(pipeline.reports)
    ]
    for label, a, b in comparisons:
        assert _sha(a) == _sha(b), f"{label} differs between identical-seed runs"

    # checkpoint round-trip: reloaded model reproduces logits bitwise
    ck = load_checkpoint(pipeline.ck_instruct)
    lm1, bind1, tok = ck.to_models()
    lm2, bind2, _ = load_checkpoint(pipeline.ck_instruct).to_models()
    probe = tok.encode(prompt_template("Describe the input."))
    emb = Tensor(derive_rng(SEED, "acc-c9").standard_normal((1, bind1.config.dim_joint)))
    cond1 = bind_forward(bind1, emb)
    cond2 = bind_forward(bind2, emb)
    a = lm_forward(lm1, probe, cond1).array
    b = lm_forward(lm2, probe, cond2).array
    assert a.tobytes() == b.tobytes()

    # cache round-trip bitwise
    store = load_cache(pipeline.cache_file)
    resaved = tmp_path / "resaved.bnc"
    from bindlm.cache import save_cache

    save_cache(store, resaved)
    assert _sha(pipeline.cache_file) == _sha(resaved)
    _ok(f"C9 determinism ({len(comparisons)} artifacts checksum-identical) and persistence")
