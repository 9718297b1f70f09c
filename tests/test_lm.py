import math

import numpy as np
import pytest

from bindlm.bind import BindConfig, bind_forward, bind_init
from bindlm.encoders import JointEmbedding, Modality, placeholder_embedding
from bindlm import peft
from bindlm.peft import apply_peft, resolve_param, set_param
from bindlm.lm import (
    GenerationParams,
    GenerationParamsError,
    InjectedLM,
    KVCache,
    LMConfig,
    TruncationError,
    VocabularyError,
    caption_loss,
    generate,
    lm_forward,
    lm_init,
)
from bindlm.tensor import (
    EmptyBatchError,
    ShapeError,
    Tape,
    Tensor,
    add,
    derive_rng,
    grad_check,
    tensor_sum,
)
from bindlm.tokenizer import BOS, EOS

from _oracles import lm_oracle, tape_free_forward_oracle

# vocab must cover the tokenizer specials (BOS=256, EOS=257)
TINY = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16)


def _cond(rng, dim):
    return Tensor(rng.standard_normal((1, dim)))


def test_zero_gate_identity_bitwise():
    rng = derive_rng(0, "zgi")
    for seed in range(5):
        lm = lm_init(TINY, seed)
        tokens = rng.integers(0, TINY.vocab_size, size=7).tolist()
        cond = _cond(rng, TINY.dim)
        a = lm_forward(lm, tokens, cond).array
        b = lm_forward(lm, tokens, None).array
        assert a.tobytes() == b.tobytes()


def test_zero_condition_identity():
    lm = lm_init(TINY, 3)
    # open the gates; a zero condition must still change nothing
    for l in range(TINY.layers):
        lm.params[f"gates.{l}"] = Tensor([[0.37 + l]])
    tokens = [1, 2, 3]
    a = lm_forward(lm, tokens, Tensor(np.zeros((1, TINY.dim)))).array
    b = lm_forward(lm, tokens, None).array
    assert np.array_equal(a, b)


def test_matches_independent_oracle():
    rng = derive_rng(1, "lm-oracle")
    lm = lm_init(TINY, 11)
    # spread the params and open the gates so every path contributes
    for name, t in list(lm.params.items()):
        if name == "head":
            lm.params[name] = Tensor(rng.standard_normal(t.shape) * 0.2)
    lm.params["gates.0"] = Tensor([[0.5]])
    lm.params["gates.1"] = Tensor([[-0.25]])
    tokens = rng.integers(0, TINY.vocab_size, size=6).tolist()
    cond = _cond(rng, TINY.dim)
    got = lm_forward(lm, tokens, cond).array
    arrays = {n: t.array for n, t in lm.params.items()}
    want = lm_oracle(arrays, tokens, cond.array, TINY.layers, TINY.heads)
    assert np.abs(got - want).max() < 1e-10
    # unconditioned path too
    got_u = lm_forward(lm, tokens, None).array
    want_u = lm_oracle(arrays, tokens, None, TINY.layers, TINY.heads)
    assert np.abs(got_u - want_u).max() < 1e-10


def test_vocabulary_error():
    lm = lm_init(TINY, 0)
    with pytest.raises(VocabularyError):
        lm_forward(lm, [0, TINY.vocab_size])


def test_sequence_too_long():
    lm = lm_init(TINY, 0)
    with pytest.raises(TruncationError):
        lm_forward(lm, [0] * (TINY.max_seq + 1))


def test_causality_exact():
    rng = derive_rng(2, "causal")
    lm = lm_init(TINY, 5)
    lm.params["head"] = Tensor(rng.standard_normal((TINY.dim, TINY.vocab_size)))
    tokens = rng.integers(0, TINY.vocab_size, size=9).tolist()
    base = lm_forward(lm, tokens, None).array
    for j in (4, 8):
        mutated = list(tokens)
        mutated[j] = (mutated[j] + 7) % TINY.vocab_size
        out = lm_forward(lm, mutated, None).array
        assert np.array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j:], base[j:])


def test_gate_linearity():
    rng = derive_rng(3, "gate-lin")
    lm = lm_init(TINY, 7)
    tokens = [4, 5, 6, 7]
    cond = _cond(rng, TINY.dim)
    for l in range(TINY.layers):
        lm.params[f"gates.{l}"] = Tensor([[0.3 * (l + 1)]])
    a = lm_forward(lm, tokens, cond).array
    for lam in (2.0, 3.7):
        scaled = lm_init(TINY, 7)
        for l in range(TINY.layers):
            scaled.params[f"gates.{l}"] = Tensor([[0.3 * (l + 1) * lam]])
        b = lm_forward(scaled, tokens, Tensor(cond.array / lam)).array
        assert np.abs(a - b).max() < 1e-9


def test_shared_gate_config():
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16, shared_gate=True)
    lm = lm_init(cfg, 0)
    assert "gates.shared" in lm.params
    assert lm.gate_values() == [0.0]


def test_rope_variant_forward_and_grads():
    cfg = LMConfig(vocab_size=16, dim=8, layers=1, heads=2, max_seq=8, positions="rope")
    lm = lm_init(cfg, 2)
    assert "pos_emb" not in lm.params
    tokens = [3, 1, 4, 1]
    base = lm_forward(lm, tokens, None).array
    mutated = lm_forward(lm, [3, 1, 4, 5], None).array
    assert np.array_equal(base[:3], mutated[:3])  # causality holds under rope

    names = ["layers.0.wq", "layers.0.wk"]

    def f(params):
        trial = lm_init(cfg, 2)
        for n, p in zip(names, params):
            trial.params[n] = p
        trial.params["head"] = Tensor(
            derive_rng(9, "rope-head").standard_normal((cfg.dim, cfg.vocab_size)) * 0.3
        )
        return tensor_sum(lm_forward(trial, tokens, None))

    err = grad_check(f, [lm.params[n] for n in names], h=1e-5)
    assert err < 1e-6


def test_uniform_init_loss_is_log_vocab():
    lm = lm_init(TINY, 0)
    bind = bind_init(BindConfig(dim_joint=4, dim_lm=TINY.dim, dim_hidden=8), 0)
    emb = JointEmbedding.of(derive_rng(4, "u").standard_normal(4), Modality.IMAGE, "x")
    loss = caption_loss(lm, bind, emb, [1, 2], [3, 4, 5]).item()
    assert abs(loss - math.log(TINY.vocab_size)) / math.log(TINY.vocab_size) < 0.05


def test_caption_loss_zero_gates_equals_unconditioned():
    lm = lm_init(TINY, 1)
    bind = bind_init(BindConfig(dim_joint=4, dim_lm=TINY.dim, dim_hidden=8), 1)
    emb = JointEmbedding.of(derive_rng(5, "c").standard_normal(4), Modality.IMAGE, "x")
    a = caption_loss(lm, bind, emb, [1, 2], [3, 4]).item()
    b = caption_loss(lm, None, None, [1, 2], [3, 4]).item()
    assert a == b


def test_caption_loss_empty_target():
    lm = lm_init(TINY, 0)
    with pytest.raises(EmptyBatchError):
        caption_loss(lm, None, None, [1, 2], [])


def test_placeholder_composes_to_unconditioned():
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16)
    lm = lm_init(cfg, 6)
    bind = bind_init(BindConfig(dim_joint=4, dim_lm=8, dim_hidden=8), 6)
    cond = bind_forward(bind, placeholder_embedding(4))
    a = lm_forward(lm, [1, 2, 3], cond).array
    b = lm_forward(lm, [1, 2, 3], None).array
    assert np.array_equal(a, b)


def test_memorizes_single_pair_in_200_full_steps():
    """Full-parameter descent memorization smoke for the conditioned objective."""
    from bindlm.train import AdamW

    cfg = LMConfig(vocab_size=260, dim=16, layers=2, heads=2, max_seq=16)
    lm = lm_init(cfg, 8)
    bind = bind_init(BindConfig(dim_joint=8, dim_lm=16, dim_hidden=16), 8)
    emb = JointEmbedding.of(derive_rng(6, "mem").standard_normal(8), Modality.IMAGE, "m")
    prompt = [1, 2, 3]
    target = [9, 4, 9, 11]
    names = [f"lm.{n}" for n in sorted(lm.params)] + [f"bind.{n}" for n in sorted(bind.params)]
    opt = AdamW(lr=3e-3)

    loss_val = None
    for _ in range(200):
        with Tape() as tape:
            loss = caption_loss(lm, bind, emb, prompt, target)
        params = [
            (lm.params[n[3:]] if n.startswith("lm.") else bind.params[n[5:]]) for n in names
        ]
        grads = tape.grad(loss, params)
        updates = opt.step(names, params, grads)
        for n, t in zip(names, updates):
            if n.startswith("lm."):
                lm.params[n[3:]] = t
            else:
                bind.params[n[5:]] = t
        loss_val = loss.item()
    assert loss_val < 0.1


def test_generate_deterministic():
    lm = lm_init(TINY, 9)
    lm.params["head"] = Tensor(derive_rng(7, "gh").standard_normal((TINY.dim, TINY.vocab_size)))
    p = GenerationParams(max_new_tokens=6, temperature=0.0)
    a = generate(lm, None, None, [1, 2], p)
    b = generate(lm, None, None, [1, 2], p)
    assert a == b
    ps = GenerationParams(max_new_tokens=6, temperature=0.9, top_k=5, seed=42)
    c = generate(lm, None, None, [1, 2], ps)
    d = generate(lm, None, None, [1, 2], ps)
    assert c == d


def test_generate_zero_gates_ignores_embedding():
    lm = lm_init(TINY, 10)
    lm.params["head"] = Tensor(derive_rng(8, "gz").standard_normal((TINY.dim, TINY.vocab_size)))
    bind = bind_init(BindConfig(dim_joint=4, dim_lm=TINY.dim, dim_hidden=8), 10)
    emb = JointEmbedding.of(derive_rng(8, "ge").standard_normal(4), Modality.AUDIO, "x")
    p = GenerationParams(max_new_tokens=5)
    assert generate(lm, bind, emb, [3, 4], p) == generate(lm, None, None, [3, 4], p)


def test_generate_errors():
    lm = lm_init(TINY, 0)
    with pytest.raises(ShapeError):
        generate(lm, None, None, [], GenerationParams())
    with pytest.raises(TruncationError):
        generate(lm, None, None, [1] * 10, GenerationParams(max_new_tokens=10))


def test_generate_fits_prompt_plus_new_tokens_exactly_in_max_seq():
    # [BOS] + prompt and every new token but the last: P + N positions
    lm = lm_init(TINY, 0)
    lm.params["head"] = Tensor(np.zeros((TINY.dim, TINY.vocab_size)))
    prompt = [1] * 10
    fits = GenerationParams(max_new_tokens=TINY.max_seq - len(prompt))
    assert generate(lm, None, None, prompt, fits) == [0] * fits.max_new_tokens  # no EOS
    with pytest.raises(TruncationError, match="prompt 10 [+] new 7 exceeds max_seq 16"):
        generate(lm, None, None, prompt, GenerationParams(max_new_tokens=7))


@pytest.mark.parametrize("field,value", [
    ("temperature", float("nan")), ("temperature", -1.0), ("temperature", float("inf")),
    ("top_k", -4), ("max_new_tokens", -3),
])
def test_generation_params_reject_out_of_range(field, value):
    with pytest.raises(GenerationParamsError) as info:
        GenerationParams(**{field: value})
    assert info.value.field == field and field in str(info.value)


# ---------------------------------------------------------------------------
# K/V cache: chunked forwarding against the full forward
# ---------------------------------------------------------------------------


def _spread_lm(cfg, seed, lora):
    """An LM whose head, gates and (optionally) LoRA factors all contribute."""
    rng = derive_rng(seed, "kv-spread")
    lm = lm_init(cfg, seed)
    lm.params["head"] = Tensor(rng.standard_normal((cfg.dim, cfg.vocab_size)))
    for l, name in enumerate([n for n in lm.params if n.startswith("gates.")]):
        lm.params[name] = Tensor([[0.4 - 0.3 * l]])
    if lora:
        apply_peft(lm, rank=2, seed=seed)
        for name in list(lm.params):
            if name.endswith((".lora_b", ".bias")):
                lm.params[name] = Tensor(rng.standard_normal(lm.params[name].shape) * 0.1)
    return lm


@pytest.mark.parametrize("positions", ["learned", "rope"])
@pytest.mark.parametrize("conditioned", [False, True])
@pytest.mark.parametrize("lora", [False, True])
def test_cached_chunks_match_full_forward(positions, conditioned, lora):
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16, positions=positions)
    lm = _spread_lm(cfg, 12, lora)
    rng = derive_rng(13, "kv-chunks")
    tokens = rng.integers(0, cfg.vocab_size, size=cfg.max_seq).tolist()
    cond = _cond(rng, cfg.dim) if conditioned else None
    full = lm_forward(lm, tokens, cond).array
    for chunks in ([1] * 16, [5] + [1] * 11, [3, 4, 1, 8], [16]):
        cache = KVCache()
        rows, at = [], 0
        for size in chunks:
            rows.append(lm_forward(lm, tokens[at:at + size], cond, cache).array)
            at += size
            assert cache.length == at
        assert np.abs(np.concatenate(rows) - full).max() <= 1e-10


@pytest.mark.parametrize("positions", ["learned", "rope"])
@pytest.mark.parametrize("conditioned", [False, True])
@pytest.mark.parametrize("lora", [False, True])
@pytest.mark.parametrize("shared_gate", [False, True])
@pytest.mark.parametrize("chunks", [[16], [5] + [1] * 11, [3, 4, 1, 8]], ids=["16", "5+1x11", "3-4-1-8"])
def test_tape_free_forward_is_the_primitives_bit_for_bit(positions, conditioned, lora, shared_gate,
                                                         chunks):
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16, positions=positions,
                   shared_gate=shared_gate)
    lm = _spread_lm(cfg, 40, lora)
    if lora:
        assert lm.params["layers.1.w_down.lora_b"].array.any()
        assert lm.params["layers.1.w_down.bias"].array.any()
    rng = derive_rng(41, "plain-forward")
    tokens = rng.integers(0, cfg.vocab_size, size=cfg.max_seq).tolist()
    cond = _cond(rng, cfg.dim) if conditioned else None
    cache, past, at = KVCache(), None, 0
    for size in chunks:
        got = lm_forward(lm, tokens[at:at + size], cond, cache).array
        want, *past = tape_free_forward_oracle(lm, tokens[at:at + size], cond, past)
        at += size
        assert got.tobytes() == want.array.tobytes()
        cached = cache.keys + cache.values
        assert len(cached) == 2 * cfg.layers
        for a, b in zip(cached, past[0] + past[1]):
            assert a.shape == b.shape == (at, cfg.dim)
            assert a.tobytes() == b.array.tobytes()


def test_cached_forward_gradients_match_full_forward():
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16)
    lm = _spread_lm(cfg, 14, lora=False)
    tokens = [5, 9, 2, 7, 3]
    params = [lm.params[n] for n in ("tok_emb", "layers.0.wk", "layers.1.wv", "gates.0")]
    cond = _cond(derive_rng(14, "kv-grad"), cfg.dim)

    with Tape() as tape:
        loss = tensor_sum(lm_forward(lm, tokens, cond))
    want = tape.grad(loss, params)
    with Tape() as tape:
        cache = KVCache()
        head = tensor_sum(lm_forward(lm, tokens[:3], cond, cache))
        loss = add(head, tensor_sum(lm_forward(lm, tokens[3:], cond, cache)))
    got = tape.grad(loss, params)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-10


def test_a_cache_keeps_the_mode_of_its_first_chunk():
    lm = lm_init(TINY, 0)
    taped = KVCache()
    with Tape():
        lm_forward(lm, [1, 2, 3], None, taped)
    with pytest.raises(ShapeError, match="filled under a Tape cannot take a chunk without"):
        lm_forward(lm, [4], None, taped)
    plain = KVCache()
    lm_forward(lm, [1, 2, 3], None, plain)
    with Tape(), pytest.raises(ShapeError, match="filled without a Tape cannot take a chunk under"):
        lm_forward(lm, [4], None, plain)
    for cache in (taped, plain):
        assert cache.length == 3  # the refused chunk left the cache alone


def test_cache_cannot_pass_its_rows():
    lm = lm_init(TINY, 0)
    cache = KVCache(rows=5)
    lm_forward(lm, [1, 2, 3], None, cache)
    with pytest.raises(TruncationError, match="sequence length 6 > the cache's 5 rows"):
        lm_forward(lm, [4, 5, 6], None, cache)
    lm_forward(lm, [4, 5], None, cache)
    assert cache.length == 5 and all(k.shape == (5, TINY.dim) for k in cache.keys)


def test_cache_cannot_pass_max_seq():
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16)
    lm = lm_init(cfg, 0)
    cache = KVCache()
    lm_forward(lm, [1] * 10, None, cache)
    lm_forward(lm, [2] * 6, None, cache)
    assert cache.length == cfg.max_seq
    with pytest.raises(TruncationError):
        lm_forward(lm, [3], None, cache)
    assert cache.length == cfg.max_seq  # the refused token left the cache alone


def _full_recompute_generate(lm, condition, prompt, params):
    """Decode by re-running the whole sequence for every new token."""
    rng = derive_rng(params.seed, "generate")
    seq = [BOS] + list(prompt)
    out = []
    for _ in range(params.max_new_tokens):
        logits = lm_forward(lm, seq, condition).array[-1]
        if params.temperature == 0.0:
            nxt = int(np.argmax(logits))
        else:
            z = logits / params.temperature
            if 0 < params.top_k < z.size:
                z = np.where(z >= np.sort(z)[-params.top_k], z, -np.inf)
            p = np.exp(z - z.max())
            nxt = int(rng.choice(z.size, p=p / p.sum()))
        seq.append(nxt)
        out.append(nxt)
        if nxt == EOS:
            break
    return out


@pytest.mark.parametrize("positions", ["learned", "rope"])
def test_generate_matches_full_recompute(positions):
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=24, positions=positions)
    bind = bind_init(BindConfig(dim_joint=4, dim_lm=cfg.dim, dim_hidden=8), 15)
    emb = JointEmbedding.of(derive_rng(15, "kv-gen").standard_normal(4), Modality.IMAGE, "x")
    cond = bind_forward(bind, emb)
    for seed in range(3):
        lm = _spread_lm(cfg, 20 + seed, lora=seed == 2)
        prompt = derive_rng(seed, "kv-prompt").integers(0, 256, size=5).tolist()
        for params in (GenerationParams(max_new_tokens=12),
                       GenerationParams(max_new_tokens=12, temperature=0.8, top_k=20, seed=seed),
                       GenerationParams(max_new_tokens=12, temperature=1.5, seed=seed)):
            got = generate(lm, bind, emb, prompt, params)
            assert got == _full_recompute_generate(lm, cond, prompt, params)
            assert len(got) == params.max_new_tokens or got[-1] == EOS


@pytest.mark.parametrize("positions", ["learned", "rope"])
@pytest.mark.parametrize("lora", [False, True])
def test_generate_is_the_tape_free_oracle_step_by_step(positions, lora, monkeypatch):
    """Greedy generate against tape_free_forward_oracle fed one token at a time:
    the same tokens, and byte-equal logits at every step, up to an exact
    max_seq fit."""
    from bindlm import lm as lm_module

    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16, positions=positions)
    lm = _spread_lm(cfg, 42, lora)
    lm.params["head"] = Tensor(lm.params["head"].array * 0.1)  # keep EOS from winning early
    bind = bind_init(BindConfig(dim_joint=4, dim_lm=cfg.dim, dim_hidden=8), 42)
    emb = JointEmbedding.of(derive_rng(42, "oracle-gen").standard_normal(4), Modality.IMAGE, "x")
    prompt = derive_rng(43, "oracle-prompt").integers(0, 256, size=5).tolist()
    params = GenerationParams(max_new_tokens=cfg.max_seq - len(prompt))
    seen = []

    def recorded(*args):
        logits = real(*args)
        seen.append(logits.array)
        return logits

    real = lm_module.lm_forward
    monkeypatch.setattr(lm_module, "lm_forward", recorded)
    got = generate(lm, bind, emb, prompt, params)
    monkeypatch.undo()
    assert len(got) == params.max_new_tokens and EOS not in got

    cond = bind_forward(bind, emb)
    past, feed = None, [BOS] + prompt
    for step, token in enumerate(got):
        want, *past = tape_free_forward_oracle(lm, feed, cond, past)
        assert seen[step].tobytes() == want.array.tobytes()
        assert token == int(np.argmax(want.array[-1]))
        feed = [token]
    assert len(seen) == len(got)
    assert past[0][0].shape[0] == cfg.max_seq  # P + N positions: the last token is never fed


# ---------------------------------------------------------------------------
# Folded adapters: tape-free forwards against the factored form under a Tape
# ---------------------------------------------------------------------------


def _folded_and_factored(lm, tokens, cond, split=None):
    """Logits without a tape (folded adapters) and under one (factored)."""

    def run():
        if split is None:
            return lm_forward(lm, tokens, cond).array
        cache = KVCache()
        head = lm_forward(lm, tokens[:split], cond, cache).array
        return np.concatenate([head, lm_forward(lm, tokens[split:], cond, cache).array])

    folded = run()
    with Tape():
        factored = run()
    return folded, factored


@pytest.mark.parametrize("positions", ["learned", "rope"])
@pytest.mark.parametrize("split", [None, 11])
def test_folded_forward_matches_factored(positions, split, monkeypatch):
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16, positions=positions)
    lm = _spread_lm(cfg, 30, lora=True)
    assert lm.params["layers.1.w_down.lora_b"].array.any()
    assert lm.params["layers.1.w_down.bias"].array.any()
    rng = derive_rng(31, "fold")
    tokens = rng.integers(0, cfg.vocab_size, size=12).tolist()
    cond = _cond(rng, cfg.dim)
    folded, factored = _folded_and_factored(lm, tokens, cond, split)
    assert np.abs(folded - factored).max() <= 1e-10

    def factored_form(*args):
        raise AssertionError("a tape-free forward ran the factored adapter")

    monkeypatch.setattr(peft, "lora_forward", factored_form)
    assert np.abs(lm_forward(lm, tokens, cond).array - factored).max() <= 1e-10


@pytest.mark.parametrize("positions", ["learned", "rope"])
def test_folded_forward_with_zero_b_is_bitwise(positions):
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16, positions=positions)
    lm = _spread_lm(cfg, 32, lora=True)
    for name in list(lm.params):
        if name.endswith(".lora_b"):
            lm.params[name] = Tensor(np.zeros(lm.params[name].shape))
    tokens = derive_rng(33, "fold0").integers(0, cfg.vocab_size, size=9).tolist()
    cond = _cond(derive_rng(34, "fold0"), cfg.dim)
    for split in (None, 8):
        folded, factored = _folded_and_factored(lm, tokens, cond, split)
        assert folded.tobytes() == factored.tobytes()


def _assert_tracks_factored(lm, tokens, before):
    """The next tape-free forward differs from before and matches the factored form."""
    folded, factored = _folded_and_factored(lm, tokens, None)
    assert np.abs(folded - before).max() > 1e-6
    assert np.abs(folded - factored).max() <= 1e-10
    return folded


def test_replaced_adapter_tensors_are_refolded():
    from bindlm.train import AdamW

    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16)
    lm = _spread_lm(cfg, 35, lora=True)
    tokens = [5, 9, 2, 7, 3]
    before = lm_forward(lm, tokens).array

    names = ["lm.layers.0.wq.lora_a", "lm.layers.1.w_up.lora_b", "lm.layers.1.wo"]
    params = [resolve_param(lm, None, n) for n in names]
    with Tape() as tape:
        loss = tensor_sum(lm_forward(lm, tokens))
    updates = AdamW(lr=0.1).step(names, params, tape.grad(loss, params))
    for name, t in zip(names, updates):
        set_param(lm, None, name, t)
    before = _assert_tracks_factored(lm, tokens, before)

    rng = derive_rng(36, "refold")
    for name in ("layers.0.wv", "layers.0.wv.lora_a", "layers.1.w_gate.lora_b"):
        lm.params[name] = Tensor(rng.standard_normal(lm.params[name].shape))
        before = _assert_tracks_factored(lm, tokens, before)


def test_adapters_attached_after_first_call_take_effect():
    cfg = LMConfig(vocab_size=260, dim=8, layers=2, heads=2, max_seq=16)
    lm = _spread_lm(cfg, 37, lora=False)
    tokens = [4, 8, 15, 16, 23]
    before = lm_forward(lm, tokens).array
    apply_peft(lm, rank=2, seed=37)
    assert lm_forward(lm, tokens).array.tobytes() == before.tobytes()  # B = 0, bias = 0
    rng = derive_rng(38, "late-adapter")
    for name in list(lm.params):
        if name.endswith((".lora_b", ".bias")):
            lm.params[name] = Tensor(rng.standard_normal(lm.params[name].shape) * 0.1)
    _assert_tracks_factored(lm, tokens, before)


def test_generate_at_a_tiny_temperature_is_greedy():
    lm = lm_init(TINY, 9)
    lm.params["head"] = Tensor(derive_rng(7, "gh").standard_normal((TINY.dim, TINY.vocab_size)))
    greedy = generate(lm, None, None, [1, 2], GenerationParams(max_new_tokens=6))
    for top_k in (0, 3):
        tiny = GenerationParams(max_new_tokens=6, temperature=1e-310, top_k=top_k, seed=1)
        assert generate(lm, None, None, [1, 2], tiny) == greedy
