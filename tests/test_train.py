import gc
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import bindlm
from bindlm import peft, train

from bindlm.checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from bindlm.bind import BindConfig, bind_init, bind_param_shapes
from bindlm.data import (
    DatasetManifest,
    generate_caption_corpus,
    generate_instruction_corpus,
    write_caption_corpus,
    write_instruction_corpus,
)
from bindlm.encoders import EncoderConfig, build_encoders
from bindlm.lm import LMConfig, caption_loss, lm_forward, lm_init, lm_param_shapes
from bindlm.train import (
    AdamW,
    DivergenceError,
    PipelineError,
    SMALL_TENSOR,
    default_plan,
    lr_at,
    plan_from_file,
    prepare_caption,
    read_plan_file,
    run_stage,
)
from bindlm.tensor import NonFiniteError, Tape, Tensor, derive_rng
from bindlm.tokenizer import default_tokenizer

from _oracles import adamw_oracle, unpruned_grad

TINY_LM = LMConfig(vocab_size=512, dim=16, layers=2, heads=2, max_seq=64)
TINY_BIND = BindConfig(dim_joint=16, dim_lm=16, dim_hidden=16)
TINY_ENC = EncoderConfig(dim_raw=24, dim_joint=16, seed=0)


def write_tiny_dataset(path):
    encoders = build_encoders(TINY_ENC)
    captions, _ = generate_caption_corpus(4, 0, encoders, variants=2)
    write_caption_corpus(path / "captions.jsonl", captions)
    instruct, _ = generate_instruction_corpus(4, 2, 0, encoders, variants=1)
    write_instruction_corpus(path / "instruct.jsonl", instruct)
    write_instruction_corpus(path / "hq.jsonl", instruct[:2])
    DatasetManifest(encoder=TINY_ENC, seed=0, files={}).save(path)
    return path


@pytest.fixture()
def dataset(tmp_path):
    return write_tiny_dataset(tmp_path)


def _tiny_plan(stage, data, **kw):
    return default_plan(stage, str(data), seed=0, **kw)


def test_plan_file_parsing(tmp_path):
    p = tmp_path / "plan.kv"
    p.write_text(
        "# pretrain overrides\n"
        "epochs = 2\n"
        "lr = 0.001\n"
        "batch_size = 4\n"
        'trainable = "bind_network, gates"\n'
    )
    plan = plan_from_file(p, "pretrain", "data", 5)
    assert plan.epochs == 2 and plan.lr == 0.001 and plan.batch_size == 4
    assert plan.trainable == {"bind_network", "gates"}
    assert plan.seed == 5

    bad = tmp_path / "bad.kv"
    bad.write_text("epochs 2\n")
    with pytest.raises(PipelineError, match="key = value"):
        read_plan_file(bad)


def test_plan_validation():
    with pytest.raises(PipelineError):
        default_plan("warmup", "d")
    with pytest.raises(PipelineError):
        default_plan("pretrain", "d", lr=0.0)
    with pytest.raises(PipelineError):
        default_plan("pretrain", "d", epochs=0)


@pytest.mark.parametrize("stage,epochs,lr,warmup,trainable", [
    ("pretrain", 3, 4e-4, 0, {"base_lm", "bind_network", "gates"}),
    ("instruct", 4, 2e-3, 1, {"lora", "bias_norm", "gates"}),
    ("hq_instruct", 2, 2e-3, 1, {"lora", "bias_norm", "gates"}),
])
def test_default_plan_per_stage(stage, epochs, lr, warmup, trainable):
    plan = default_plan(stage, "d")
    assert (plan.epochs, plan.batch_size, plan.lr, plan.warmup_epochs) == (epochs, 1, lr, warmup)
    assert plan.trainable == trainable
    assert (plan.stage, plan.data, plan.seed) == (stage, "d", 0)


def test_a_trainable_preset_is_not_a_stage():
    with pytest.raises(PipelineError, match="unknown stage 'align_only'"):
        default_plan("align_only", "d")


def test_stage_ordering_enforced(dataset):
    with pytest.raises(PipelineError, match="requires a pretrain checkpoint"):
        run_stage(_tiny_plan("instruct", dataset))
    pre = run_stage(_tiny_plan("pretrain", dataset, epochs=1),
                    lm_config=TINY_LM, bind_config=TINY_BIND)
    with pytest.raises(PipelineError, match="no input checkpoint"):
        run_stage(_tiny_plan("pretrain", dataset, epochs=1), checkpoint_in=pre)
    with pytest.raises(PipelineError, match="requires a instruct checkpoint"):
        run_stage(_tiny_plan("hq_instruct", dataset, epochs=1), checkpoint_in=pre)
    ins = run_stage(_tiny_plan("instruct", dataset, epochs=1), checkpoint_in=pre)
    hq = run_stage(_tiny_plan("hq_instruct", dataset, epochs=1), checkpoint_in=ins)
    assert [p.split(":")[0] for p in hq.provenance] == ["pretrain", "instruct", "hq_instruct"]


def test_step_zero_loss_equals_unconditioned(dataset):
    """Zero-gate identity at the pipeline level, on the real first batch."""
    from bindlm.data import ingest
    from bindlm.lm import caption_loss, lm_init

    history = []
    run_stage(_tiny_plan("pretrain", dataset, epochs=1), lm_config=TINY_LM,
              bind_config=TINY_BIND, history=history)
    # rebuild the exact first example the trainer saw
    encoders = build_encoders(TINY_ENC)
    tok = default_tokenizer()
    records = ingest(dataset / "captions.jsonl", "caption")
    examples = [prepare_caption(r, tok, encoders) for r in records]
    order = derive_rng(0, "train", "pretrain").permutation(len(examples))
    first = examples[order[0]]
    lm = lm_init(TINY_LM, 0)
    unconditioned = caption_loss(lm, None, None, first.prompt_ids, first.target_ids)
    assert history[0]["loss"] == unconditioned.item()


def test_same_plan_same_seed_bitwise_checkpoints(dataset, tmp_path):
    a = run_stage(_tiny_plan("pretrain", dataset), lm_config=TINY_LM, bind_config=TINY_BIND)
    b = run_stage(_tiny_plan("pretrain", dataset), lm_config=TINY_LM, bind_config=TINY_BIND)
    pa, pb = tmp_path / "a.bnk", tmp_path / "b.bnk"
    save_checkpoint(a, pa)
    save_checkpoint(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_placeholder_counter(dataset):
    pre = run_stage(_tiny_plan("pretrain", dataset, epochs=1),
                    lm_config=TINY_LM, bind_config=TINY_BIND)
    counters = {}
    run_stage(_tiny_plan("instruct", dataset, epochs=1), checkpoint_in=pre, counters=counters)
    assert counters["placeholder_records"] == 2  # the language-only records


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_raises_with_step(dataset):
    with pytest.raises(DivergenceError, match="step"):
        run_stage(_tiny_plan("pretrain", dataset, lr=1e160),
                  lm_config=TINY_LM, bind_config=TINY_BIND)


def test_instruct_leaves_dense_weights_untouched(dataset):
    pre = run_stage(_tiny_plan("pretrain", dataset, epochs=1),
                    lm_config=TINY_LM, bind_config=TINY_BIND)
    ins = run_stage(_tiny_plan("instruct", dataset, epochs=1), checkpoint_in=pre)
    for name in ("lm.tok_emb", "lm.head", "lm.layers.0.wq", "bind.w0"):
        assert ins.params[name].tobytes() == pre.params[name].tobytes()
    changed = [n for n in ins.params if n.endswith(".lora_b")]
    assert any(np.abs(ins.params[n]).max() > 0 for n in changed)


def test_checkpoint_round_trip_bitwise(dataset, tmp_path):
    ck = run_stage(_tiny_plan("pretrain", dataset, epochs=1),
                   lm_config=TINY_LM, bind_config=TINY_BIND)
    p = tmp_path / "ck.bnk"
    save_checkpoint(ck, p)
    back = load_checkpoint(p)
    lm1, bind1, _ = ck.to_models()
    lm2, bind2, _ = back.to_models()
    probe = [1, 2, 3, 4]
    a = lm_forward(lm1, probe, None).array
    b = lm_forward(lm2, probe, None).array
    assert a.tobytes() == b.tobytes()
    assert back.provenance == ck.provenance
    assert back.step == ck.step
    assert back.rng_state == ck.rng_state
    p2 = tmp_path / "ck2.bnk"
    save_checkpoint(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_adapter_sections_ship_without_base_weights(dataset, tmp_path):
    from bindlm.checkpoint import apply_adapters, split_adapters

    pre = run_stage(_tiny_plan("pretrain", dataset, epochs=1),
                    lm_config=TINY_LM, bind_config=TINY_BIND)
    ins = run_stage(_tiny_plan("instruct", dataset, epochs=1), checkpoint_in=pre)
    base, delta = split_adapters(ins)
    assert all(n.endswith((".lora_a", ".lora_b", ".bias"))
               or n.endswith("_norm") or ".gates." in n or n.startswith("lm.gates")
               for n in delta.params)
    assert not any(n.endswith(".lora_a") for n in base.params)
    # the delta section alone survives a save/load round trip
    p = tmp_path / "delta.bnk"
    save_checkpoint(delta, p)
    rebuilt = apply_adapters(base, load_checkpoint(p))
    lm1, bind1, _ = ins.to_models()
    lm2, bind2, _ = rebuilt.to_models()
    probe = [3, 1, 4]
    a = lm_forward(lm1, probe, None).array
    b = lm_forward(lm2, probe, None).array
    assert a.tobytes() == b.tobytes()


def test_checkpoint_format_errors(tmp_path):
    bad = tmp_path / "bad.bnk"
    bad.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError, match="BNDK"):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.bnk"
    trunc.write_bytes(b"BNDK\x01\x00\x00\x00\xff\xff\xff\xff")
    with pytest.raises(CheckpointFormatError, match="byte offset"):
        load_checkpoint(trunc)


def small_checkpoint() -> Checkpoint:
    """An initialization checkpoint at a small config with LoRA attached."""
    lm = lm_init(LMConfig(vocab_size=420, dim=16, layers=2, heads=2, max_seq=32, ffn_hidden=24), 0)
    peft.apply_peft(lm, rank=2, seed=0)
    bind = bind_init(BindConfig(dim_joint=64, dim_lm=16, dim_hidden=24), 0)
    return Checkpoint.from_models(lm, bind, default_tokenizer(), EncoderConfig(), {}, 0, [])


def test_load_rejects_non_utf8_param_name(tmp_path):
    p = tmp_path / "ck.bnk"
    save_checkpoint(small_checkpoint(), p)
    raw = bytearray(p.read_bytes())
    off = raw.index(b"lm.head")
    raw[off] = 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match=f"ck.bnk: .*not UTF-8 at byte offset {off}"):
        load_checkpoint(p)


def test_load_rejects_malformed_config_json(tmp_path):
    p = tmp_path / "ck.bnk"
    save_checkpoint(small_checkpoint(), p)
    raw = bytearray(p.read_bytes())
    raw[12] = ord("[")  # the config's "{", after magic, version and length
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="ck.bnk: malformed JSON at byte offset"):
        load_checkpoint(p)


@pytest.mark.parametrize("positions,shared_gate", [("learned", False), ("rope", True)])
def test_param_shapes_are_what_init_creates(positions, shared_gate):
    cfg = LMConfig(vocab_size=300, dim=16, layers=3, heads=2, positions=positions,
                   shared_gate=shared_gate, ffn_hidden=40)
    lm = lm_init(cfg, 0)
    assert {n: t.shape for n, t in lm.params.items()} == lm_param_shapes(cfg)
    bcfg = BindConfig(dim_joint=8, dim_lm=16, dim_hidden=24)
    bind = bind_init(bcfg, 0)
    assert {n: t.shape for n, t in bind.params.items()} == bind_param_shapes(bcfg)


def _drop(ck, name):
    del ck.params[name]


def _add(ck, name):
    ck.params[name] = np.zeros((1, 1))


def _reshape(ck, name):
    ck.params[name] = ck.params[name].T.copy()


def _unknown_adapter(ck, name):
    ck.config["adapters"][name] = {"rank": 2, "scaling": 0.5}


def _unscaled_adapter(ck, name):
    ck.config["adapters"][name]["scaling"] = "x"


def _bool_rank_adapter(ck, name):
    ck.config["adapters"][name]["rank"] = True


def _drop_config(ck, key):
    del ck.config[key]


_BAD_LM_VALUES = {"positions": "learnad", "heads": 0, "layers": 1.5}


def _bad_lm_value(ck, key):
    ck.config["lm"][key] = _BAD_LM_VALUES[key]


@pytest.mark.parametrize("edit,name,message", [
    (_drop, "lm.layers.0.wq", "missing parameter 'lm.layers.0.wq' of shape (16, 16)"),
    (_drop, "bind.blocks.2.w3", "missing parameter 'bind.blocks.2.w3'"),
    (_drop, "lm.layers.1.w_up.lora_a", "missing parameter 'lm.layers.1.w_up.lora_a'"),
    (_drop, "lm.layers.0.wq.bias", "missing parameter 'lm.layers.0.wq.bias'"),
    (_add, "lm.layers.9.wq", "'lm.layers.9.wq' is not in the configured models"),
    (_add, "bind.w9", "'bind.w9' is not in the configured models"),
    (_reshape, "lm.head", "'lm.head' has shape (420, 16), the config implies (16, 420)"),
    (_reshape, "lm.layers.0.wv.lora_b", "'lm.layers.0.wv.lora_b' has shape (2, 16)"),
    (_unknown_adapter, "head", "config.adapters: unknown key 'head'"),
    (_unknown_adapter, "layers.5.wq", "config.adapters: unknown key 'layers.5.wq'"),
    (_unscaled_adapter, "layers.0.wq", "adapter on 'layers.0.wq': scaling 'x'"),
    (_bool_rank_adapter, "layers.1.wv", "adapter on 'layers.1.wv': rank True, which is not"),
    (_drop_config, "bind", "config: missing key 'bind'"),
    (_drop_config, "tokenizer", "config: missing key 'tokenizer'"),
    (_bad_lm_value, "positions", "config.lm: positions must be"),
    (_bad_lm_value, "heads", "config.lm: heads 0, which"),
    (_bad_lm_value, "layers", "config.lm: layers 1.5, which"),
])
def test_to_models_rejects_params_that_do_not_fit_the_config(tmp_path, edit, name, message):
    ck = small_checkpoint()
    edit(ck, name)
    p = tmp_path / "ck.bnk"
    save_checkpoint(ck, p)
    loaded = load_checkpoint(p)
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        loaded.to_models()


def test_lr_schedule_shape():
    peak = 1.0
    total, warm = 100, 10
    ramp = [lr_at(s, total, warm, peak) for s in range(warm)]
    assert ramp[0] == pytest.approx(0.1) and ramp[-1] == pytest.approx(1.0)
    assert all(b > a for a, b in zip(ramp, ramp[1:]))
    assert lr_at(warm, total, warm, peak) == pytest.approx(1.0)
    assert lr_at(total - 1, total, warm, peak) >= 0.1 * peak - 1e-9
    assert lr_at(total + 50, total, warm, peak) == pytest.approx(0.1 * peak)


def test_optimizer_decay_classification():
    opt = AdamW(lr=0.1, weight_decay=0.5)
    names = ["lm.gates.0", "lm.layers.0.attn_norm", "lm.layers.0.wq.bias", "lm.layers.0.wq"]
    params = [Tensor([[1.0]]) for _ in names]
    zero = [np.zeros((1, 1)) for _ in names]
    out = opt.step(names, params, zero, lr=0.1)
    # zero gradient: only decoupled decay can move a parameter
    assert out[0].item() == 1.0
    assert out[1].item() == 1.0
    assert out[2].item() == 1.0
    assert out[3].item() == pytest.approx(1.0 - 0.1 * 0.5)


def test_gate_multiplier_applies_only_to_gates():
    opt = AdamW(lr=0.1, weight_decay=0.0, gate_lr_mult=10.0)
    names = ["lm.gates.0", "lm.layers.0.wq"]
    params = [Tensor([[0.0]]), Tensor([[0.0]])]
    grads = [np.ones((1, 1)), np.ones((1, 1))]
    out = opt.step(names, params, grads, lr=0.1)
    assert abs(out[0].item()) == pytest.approx(10 * abs(out[1].item()))


@pytest.mark.parametrize("stage,positions", [("pretrain", "learned"), ("align_only", "rope"),
                                             ("instruct", "learned"), ("instruct", "rope")])
def test_pruned_step_gradients_match_unpruned_replay(stage, positions):
    rng = derive_rng(5, "prune-step", stage, positions)
    lm = lm_init(LMConfig(vocab_size=300, dim=16, layers=2, heads=2, max_seq=32,
                          positions=positions, ffn_hidden=24), seed=1)
    bind = bind_init(TINY_BIND, seed=1)
    if stage == "instruct":
        peft.apply_peft(lm, rank=2, seed=1)
    # move every zero-initialized tensor off zero so no gradient vanishes
    for params in (lm.params, bind.params):
        for name, t in params.items():
            if not t.array.any():
                params[name] = Tensor(0.3 * rng.standard_normal(t.shape))
    names = peft.trainable_param_names(lm, bind, peft.STAGE_TRAINABLE[stage])
    params = [peft.resolve_param(lm, bind, n) for n in names]
    emb = Tensor(rng.standard_normal((1, TINY_BIND.dim_joint)))

    gc.disable()
    try:
        with Tape() as tape:
            loss = caption_loss(lm, bind, emb, [5, 9, 2, 30], [11, 3, 7])
        want = unpruned_grad(tape, loss, params)
        calls = []

        def counted(backward):
            def run(g, need):
                calls.append(need)
                return backward(g, need)
            return run

        for node in tape._nodes:
            node.backward = counted(node.backward)
        got = tape.grad(loss, params)
        n_nodes = len(tape)
        ref = weakref.ref(tape)
        del tape, node
        # a backward closure holding its tape would leave a cycle alive here
        assert ref() is None
    finally:
        gc.enable()
    assert len(got) == len(want) == len(names)
    for name, g, w in zip(names, got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
        assert np.abs(g).max() > 0, name
    if stage != "pretrain":  # the frozen part of the graph is never replayed
        assert len(calls) < n_nodes


# (name, shape, lr multiplier, decay): one tensor of each class, then tensors
# on both sides of SMALL_TENSOR with several small ones in each of the three
# (multiplier, decay) classes, so some are updated through a shared pass
_ORACLE_PARAM_SETS = [
    [("lm.layers.0.wq", (4, 4), 1.0, 0.01), ("lm.gates.0", (1, 1), 25.0, 0.0),
     ("lm.layers.0.attn_norm", (1, 4), 1.0, 0.0), ("lm.layers.0.wq.lora_a", (2, 4), 1.0, 0.01)],
    [("lm.layers.0.wq", (2, SMALL_TENSOR // 2 + 1), 1.0, 0.01),
     ("lm.gates.0", (1, 1), 25.0, 0.0),
     ("lm.layers.0.attn_norm", (1, 8), 1.0, 0.0),
     ("lm.layers.0.wq.lora_a", (2, 8), 1.0, 0.01),
     ("lm.layers.0.wq.lora_b", (8, SMALL_TENSOR // 8), 1.0, 0.01),
     ("lm.gates.1", (1, 1), 25.0, 0.0),
     ("lm.layers.0.wq.bias", (1, 8), 1.0, 0.0),
     ("lm.layers.1.ffn_norm", (1, SMALL_TENSOR + 1), 1.0, 0.0),
     ("lm.layers.1.wo", (3, 5), 1.0, 0.01),
     ("lm.gates.2", (1, 1), 25.0, 0.0),
     ("lm.final_norm", (1, 8), 1.0, 0.0)],
]


def _worker_modes(monkeypatch):
    """Yields True with share 1 forced onto the worker thread, then False
    with every share forced onto the caller's."""
    for threaded in (True, False):
        monkeypatch.setattr(train, "_use_worker", lambda light, heavy, on=threaded: on)
        yield threaded


def _worker_names(opt):
    return {opt._names[i] for b in opt._shares[1] for i in b.index}


def _run_oracle_case(names, start, grad_steps, lrs, want):
    opt = AdamW(lr=1e-2, weight_decay=0.01, gate_lr_mult=25.0)
    params = [Tensor(a) for a in start]
    steps = []
    for grads, lr, expected in zip(grad_steps, lrs, want):
        copies = [g.copy() for g in grads]
        before = [p.array.copy() for p in params]
        new = opt.step(names, params, grads, lr=lr)
        for g, c in zip(grads, copies):
            assert g.tobytes() == c.tobytes()
        for p, b in zip(params, before):
            assert p.array.tobytes() == b.tobytes()
        for name, n, e in zip(names, new, expected):
            assert n.array.tobytes() == e.tobytes(), name
        steps.append([n.array.tobytes() for n in new])
        params = new
    return opt, steps


def test_adamw_step_matches_out_of_place_formula_bitwise(monkeypatch):
    for case in _ORACLE_PARAM_SETS:
        names, shapes, lr_mults, decays = (list(c) for c in zip(*case))
        rng = derive_rng(6, "adamw-oracle")
        start = [rng.standard_normal(s) for s in shapes]
        grad_steps = [[rng.standard_normal(s) for s in shapes] for _ in range(4)]
        lrs = [1e-2, 2e-2, 5e-3, 1e-3]
        want = adamw_oracle(start, grad_steps, lrs, lr_mults=lr_mults, decays=decays)
        for threaded in _worker_modes(monkeypatch):
            opt, _ = _run_oracle_case(names, start, grad_steps, lrs, want)
            assert opt._threaded is threaded


def test_optimizers_stepping_in_several_threads_share_the_worker_and_keep_their_bits(
        monkeypatch):
    monkeypatch.setattr(train, "_use_worker", lambda light, heavy: True)
    names, shapes, lr_mults, decays = (list(c) for c in zip(*_ORACLE_PARAM_SETS[1]))
    rng = derive_rng(9, "adamw-threads")
    start = [rng.standard_normal(s) for s in shapes]
    grad_steps = [[rng.standard_normal(s) for s in shapes] for _ in range(8)]
    lrs = [1e-2] * 8
    want = adamw_oracle(start, grad_steps, lrs, lr_mults=lr_mults, decays=decays)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            runs = [callers.submit(_run_oracle_case, names, start, grad_steps, lrs, want)
                    for _ in range(4)]
            for run in runs:
                assert run.result(timeout=120)[0]._threaded
    finally:
        sys.setswitchinterval(switch)
    assert sum(t.name.startswith("bindlm-adamw") for t in threading.enumerate()) == 1


def _real_name_set(stage):
    """The names and starting arrays a default-size model trains in the stage."""
    lm, bind = lm_init(LMConfig(), seed=0), bind_init(BindConfig(), seed=0)
    if stage == "instruct":
        peft.apply_peft(lm, rank=peft.DEFAULT_RANK, seed=0)
    names = peft.trainable_param_names(lm, bind, peft.STAGE_TRAINABLE[stage])
    return names, [peft.resolve_param(lm, bind, n).array for n in names]


@pytest.mark.parametrize("stage,tensors", [("pretrain", 48), ("instruct", 97)])
def test_adamw_gives_the_same_bits_with_and_without_the_worker(monkeypatch, stage, tensors):
    names, start = _real_name_set(stage)
    assert len(names) == tensors
    rng = derive_rng(8, "adamw-real", stage)
    grad_steps = [[rng.standard_normal(a.shape) for a in start] for _ in range(4)]
    lrs = [4e-4, 3e-4, 2e-4, 1e-4]
    lr_mults, decays = zip(*(AdamW()._lr_mult_and_decay(n) for n in names))
    want = adamw_oracle(start, grad_steps, lrs, lr_mults=lr_mults, decays=decays)
    runs = {threaded: _run_oracle_case(names, start, grad_steps, lrs, want)[1]
            for threaded in _worker_modes(monkeypatch)}
    assert runs[True] == runs[False]


def test_the_worker_takes_half_of_pretrain_and_none_of_instruct(monkeypatch):
    threaded = {}
    for cpus in (1, 2):
        monkeypatch.setattr(train, "_cpus", lambda n=cpus: n)
        for stage in ("pretrain", "instruct"):
            names, start = _real_name_set(stage)
            opt = AdamW()
            opt.step(names, [Tensor(a) for a in start], [np.zeros_like(a) for a in start])
            loads = [sum(b.size for b in share) for share in opt._shares]
            assert sum(loads) == sum(a.size for a in start)
            threaded[cpus, stage] = opt._threaded
    assert threaded == {(1, "pretrain"): False, (1, "instruct"): False,
                        (2, "pretrain"): True, (2, "instruct"): False}


def _oracle_set_step(opt, grads=None):
    names, shapes, _, _ = zip(*_ORACLE_PARAM_SETS[1])
    params = [Tensor(np.ones(s)) for s in shapes]
    grads = grads or [np.full(s, 0.5) for s in shapes]
    return names, opt.step(list(names), params, grads, lr=1e-2)


def test_adamw_rejects_a_changed_name_list():
    opt = AdamW()
    names, new = _oracle_set_step(opt)
    with pytest.raises(ValueError, match="names differ from the first step"):
        opt.step(list(names[1:]), new[1:], [np.zeros(t.shape) for t in new[1:]])
    swapped = [names[1], names[0], *names[2:]]
    with pytest.raises(ValueError, match="names differ from the first step"):
        opt.step(swapped, new, [np.zeros(t.shape) for t in new])


def test_adamw_names_the_first_non_finite_parameter_in_name_order(monkeypatch):
    names, shapes, _, _ = zip(*_ORACLE_PARAM_SETS[1])
    grads = [np.full(s, 0.5) for s in shapes]
    # ffn_norm's bucket is in the worker's share; final_norm's (bias/norm) is
    # in the caller's, which runs first when there is no worker
    grads[names.index("lm.layers.1.ffn_norm")][0, 3] = np.nan
    grads[names.index("lm.final_norm")][0, 5] = np.nan
    for _ in _worker_modes(monkeypatch):
        opt = AdamW()
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteError,
                match=re.escape("non-finite value at index (0, 3) in lm.layers.1.ffn_norm "
                                f"of shape (1, {SMALL_TENSOR + 1})")):
            _oracle_set_step(opt, grads)
        assert "lm.layers.1.ffn_norm" in _worker_names(opt)
        assert "lm.final_norm" not in _worker_names(opt)


def test_a_diverging_step_raises_non_finite_error_and_no_warning(monkeypatch):
    names, shapes, _, _ = zip(*_ORACLE_PARAM_SETS[1])
    for _ in _worker_modes(monkeypatch):
        opt = AdamW()
        _, params = _oracle_set_step(opt)
        assert "lm.layers.0.wq" in _worker_names(opt)
        grads = [np.full(s, 0.5) for s in shapes]
        wq = grads[names.index("lm.layers.0.wq")]
        wq[...] = 1e300  # g * g overflows
        wq[1, 2] = np.inf  # and m / sqrt(v) is inf / inf
        # as run_stage calls it: numpy stays silent, the step's check raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    NonFiniteError, match=re.escape("index (1, 2) in lm.layers.0.wq")):
                opt.step(list(names), params, grads, lr=1e-2)


def test_adamw_dense_weights_keep_their_own_arrays(monkeypatch):
    for _ in _worker_modes(monkeypatch):
        names, new = _oracle_set_step(AdamW())
        by_name = dict(zip(names, new))
        for name, t in by_name.items():
            assert not t.array.flags.writeable, name
            if t.size > SMALL_TENSOR:
                others = [o for n, o in by_name.items() if n != name]
                assert not any(np.shares_memory(t.array, o.array) for o in others), name
        # small tensors of one (multiplier, decay) class are views of one pass's result
        gate = by_name["lm.gates.0"].array
        assert gate.base is not None and gate.base is by_name["lm.gates.2"].array.base
        assert gate.base is not by_name["lm.final_norm"].array.base


_FORK_SCRIPT = """
import os, numpy as np
from bindlm import train
from bindlm.tensor import Tensor
train._use_worker = lambda light, heavy: True
names = ["lm.layers.0.wq", "lm.layers.0.wo"]
def step():
    train.AdamW().step(names, [Tensor(np.ones((90, 90)))] * 2, [np.ones((90, 90))] * 2)
step()
pid = os.fork()
if pid == 0:
    step()
    os._exit(0)
print(os.waitpid(pid, 0)[1])
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_steps_with_a_worker_of_its_own():
    env = dict(os.environ, PYTHONPATH=str(Path(bindlm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FORK_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.split() == ["0"], proc.stderr


_THREADS_SCRIPT = """
import sys, threading
from pathlib import Path
from bindlm import train
from bindlm.bind import BindConfig, bind_init
from bindlm.cache import cache_build, enhance
from bindlm.data import DatasetManifest, ingest
from bindlm.evaluate import perplexity_eval, yesno_eval
from bindlm.lm import GenerationParams, LMConfig, generate, lm_init
from bindlm.tokenizer import default_tokenizer

data = Path(sys.argv[1])
lm_config = LMConfig(vocab_size=512, dim=16, layers=2, heads=2, max_seq=64)
bind_config = BindConfig(dim_joint=16, dim_lm=16, dim_hidden=16)
lm, bind, tok = lm_init(lm_config, 0), bind_init(bind_config, 0), default_tokenizer()
encoders = DatasetManifest.load(data).encoders()
captions = ingest(data / "captions.jsonl", "caption")
questions = ingest(data / "instruct.jsonl", "instruction")
store = cache_build(train.prepare_caption(r, tok, encoders).embedding for r in captions[::2])
query = enhance(store, train.prepare_caption(captions[1], tok, encoders).embedding, k=2).enhanced
generate(lm, bind, query, [5, 9], GenerationParams(max_new_tokens=4))
generate(lm, bind, query, [5, 9], GenerationParams(max_new_tokens=4, temperature=1.0))
yesno_eval(lm, bind, tok, encoders, questions, cache=store, k=2)
perplexity_eval(lm, bind, tok, encoders, captions)
print(threading.active_count())
train._use_worker = lambda light, heavy: True
ckpt = train.run_stage(train.default_plan("pretrain", str(data), epochs=1),
                       lm_config=lm_config, bind_config=bind_config)
train.run_stage(train.default_plan("instruct", str(data), epochs=1), checkpoint_in=ckpt)
print(threading.active_count())
"""


def test_only_training_starts_a_thread_and_only_one(dataset):
    env = dict(os.environ, PYTHONPATH=str(Path(bindlm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(dataset)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the worker, forced on for both stages, is the one thread besides the main one
    assert proc.stdout.split() == ["1", "2"]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_load_rejects_non_finite_parameter_naming_section_and_offset(tmp_path, bad):
    p = tmp_path / "ck.bnk"
    save_checkpoint(small_checkpoint(), p)
    raw = bytearray(p.read_bytes())
    data_at = raw.index(b"lm.head") + len(b"lm.head") + 4 + 8  # past ndim and two dims
    off = data_at + 8 * 3  # element (0, 3)
    raw[off:off + 8] = np.float64(bad).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError,
                       match=rf"ck.bnk: non-finite value in parameter 'lm.head' at index \(0, 3\), "
                             rf"byte offset {off}$"):
        load_checkpoint(p)

