import gc
import re
import weakref

import numpy as np
import pytest

from bindlm import peft

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
    default_plan,
    lr_at,
    plan_from_file,
    prepare_caption,
    read_plan_file,
    run_stage,
)
from bindlm.tensor import Tape, Tensor, derive_rng
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


def _drop_config(ck, key):
    del ck.config[key]


_BAD_LM_VALUES = {"positions": "learnad", "heads": 0, "layers": 1.5}


def _bad_lm_value(ck, key):
    ck.config["lm"][key] = _BAD_LM_VALUES[key]


@pytest.mark.parametrize("edit,name,message", [
    (_drop, "lm.layers.0.wq", "missing parameter 'lm.layers.0.wq' of shape (16, 16)"),
    (_drop, "bind.blocks.2.w3", "missing parameter 'bind.blocks.2.w3'"),
    (_drop, "lm.layers.1.w_up.lora_a", "missing parameter 'lm.layers.1.w_up.lora_a'"),
    (_add, "lm.layers.9.wq", "'lm.layers.9.wq' is not in the configured models"),
    (_add, "bind.w9", "'bind.w9' is not in the configured models"),
    (_reshape, "lm.head", "'lm.head' has shape (420, 16), the config implies (16, 420)"),
    (_reshape, "lm.layers.0.wv.lora_b", "'lm.layers.0.wv.lora_b' has shape (2, 16)"),
    (_unknown_adapter, "head", "adapter on 'head', which is not an LM linear"),
    (_unknown_adapter, "layers.5.wq", "adapter on 'layers.5.wq', which is not an LM linear"),
    (_unscaled_adapter, "layers.0.wq", "adapter on 'layers.0.wq' has scaling 'x'"),
    (_drop_config, "bind", "config does not describe the models: KeyError('bind')"),
    (_drop_config, "tokenizer", "config does not describe the models: KeyError('tokenizer')"),
    (_bad_lm_value, "positions", "config does not describe the models: ShapeError("),
    (_bad_lm_value, "heads", "config does not describe the models: ZeroDivisionError("),
    (_bad_lm_value, "layers", "config does not describe the models: TypeError("),
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


def test_adamw_step_matches_out_of_place_formula_bitwise():
    rng = derive_rng(6, "adamw-oracle")
    names = ["lm.layers.0.wq", "lm.gates.0", "lm.layers.0.attn_norm", "lm.layers.0.wq.lora_a"]
    shapes = [(4, 4), (1, 1), (1, 4), (2, 4)]
    start = [rng.standard_normal(s) for s in shapes]
    grad_steps = [[rng.standard_normal(s) for s in shapes] for _ in range(4)]
    lrs = [1e-2, 2e-2, 5e-3, 1e-3]
    opt = AdamW(lr=1e-2, weight_decay=0.01, gate_lr_mult=25.0)
    want = adamw_oracle(start, grad_steps, lrs, lr_mults=[1.0, 25.0, 1.0, 1.0],
                        decays=[0.01, 0.0, 0.0, 0.01])
    params = [Tensor(a) for a in start]
    for grads, lr, expected in zip(grad_steps, lrs, want):
        copies = [g.copy() for g in grads]
        before = [p.array.copy() for p in params]
        new = opt.step(names, params, grads, lr=lr)
        for g, c in zip(grads, copies):
            assert g.tobytes() == c.tobytes()
        for p, b in zip(params, before):
            assert p.array.tobytes() == b.tobytes()
        for n, e in zip(new, expected):
            assert n.array.tobytes() == e.tobytes()
        params = new


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

