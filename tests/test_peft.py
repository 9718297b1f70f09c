import itertools

import numpy as np
import pytest

from _oracles import lora_forward_oracle
from bindlm.bind import BindConfig, bind_init
from bindlm.lm import LMConfig, lm_forward, lm_init
from bindlm.peft import (
    ConfigurationError,
    LoraAdapter,
    STAGE_TRAINABLE,
    apply_peft,
    apply_stage_freeze,
    lora_forward,
    make_adapter,
    merge,
    param_groups,
    trainable_param_names,
)
from bindlm.tensor import (
    ShapeError,
    Tape,
    Tensor,
    add,
    derive_rng,
    grad_check,
    matmul,
    mul,
    scale,
    tensor_sum,
)


def _base(rng, in_dim, out_dim):
    return Tensor(rng.standard_normal((in_dim, out_dim)))


def test_zero_b_adapter_is_noop_bitwise():
    rng = derive_rng(0, "lora-noop")
    w = _base(rng, 8, 6)
    x = Tensor(rng.standard_normal((3, 8)))
    ad = make_adapter(8, 6, rank=2, seed=0)
    got = lora_forward(w, ad, x).array
    want = matmul(x, w).array
    assert got.tobytes() == want.tobytes()


def test_full_rank_adapter_reaches_any_delta():
    """SVD factorization oracle: r = min(in, out) can represent a dense delta."""
    rng = derive_rng(1, "lora-svd")
    in_dim, out_dim, r = 6, 5, 5
    w = _base(rng, in_dim, out_dim)
    delta_oi = rng.standard_normal((out_dim, in_dim))  # delta in [out, in] layout
    u, s, vt = np.linalg.svd(delta_oi, full_matrices=False)
    scaling = 1.0 / r
    b = Tensor(u @ np.diag(s) / scaling)
    a = Tensor(vt)
    ad = LoraAdapter(a=a, b=b, rank=r, scaling=scaling)
    x = Tensor(rng.standard_normal((4, in_dim)))
    got = lora_forward(w, ad, x).array
    want = x.array @ (w.array + delta_oi.T)
    assert np.abs(got - want).max() < 1e-9


def test_adapter_path_is_independent_of_base_weight():
    """The lora delta gets no gradient from (and gives none to) the base W."""
    rng = derive_rng(2, "lora-frozen")
    w = _base(rng, 5, 4)
    x = Tensor(rng.standard_normal((2, 5)))
    ad = make_adapter(5, 4, rank=2, seed=1)
    ad = LoraAdapter(a=ad.a, b=Tensor(rng.standard_normal((4, 2))), rank=2,
                     scaling=ad.scaling, bias=ad.bias)

    def delta_only(params):
        full = lora_forward(params[0], ad, x)
        return tensor_sum(add(full, scale(matmul(x, params[0]), -1.0)))

    err = grad_check(delta_only, [w], h=1e-5)
    assert err < 1e-9


def test_gradient_flows_to_a_and_b():
    rng = derive_rng(3, "lora-grads")
    w = _base(rng, 5, 4)
    x = Tensor(rng.standard_normal((2, 5)))

    def f(params):
        ad = LoraAdapter(a=params[0], b=params[1], rank=2, scaling=0.5, bias=params[2])
        return tensor_sum(lora_forward(w, ad, x))

    base = make_adapter(5, 4, rank=2, seed=2)
    b_off_zero = Tensor(rng.standard_normal((4, 2)) * 0.3)
    assert grad_check(f, [base.a, b_off_zero, base.bias], h=1e-5) < 1e-6


def test_rank_validation():
    with pytest.raises(ShapeError):
        make_adapter(4, 8, rank=5, seed=0)
    with pytest.raises(ShapeError):
        make_adapter(4, 8, rank=0, seed=0)


def test_merge_zero_b_returns_base_bitwise():
    rng = derive_rng(4, "merge0")
    w = _base(rng, 8, 8)
    ad = make_adapter(8, 8, rank=2, seed=3)
    assert merge(ad, w).array.tobytes() == w.array.tobytes()


def test_merge_equals_adapted_forward():
    rng = derive_rng(5, "merge-eq")
    w = _base(rng, 8, 8)
    ad = make_adapter(8, 8, rank=2, seed=4, with_bias=False)
    ad = LoraAdapter(a=ad.a, b=Tensor(rng.standard_normal((8, 2))), rank=2, scaling=ad.scaling)
    merged = merge(ad, w)
    x = Tensor(rng.standard_normal((5, 8)))
    adapted = lora_forward(w, ad, x).array
    dense = matmul(x, merged).array
    assert np.abs(adapted - dense).max() < 1e-10


def test_merge_then_rewrap_is_stable():
    rng = derive_rng(6, "merge-rewrap")
    w = _base(rng, 8, 8)
    ad = make_adapter(8, 8, rank=2, seed=5, with_bias=False)
    ad = LoraAdapter(a=ad.a, b=Tensor(rng.standard_normal((8, 2))), rank=2, scaling=ad.scaling)
    merged = merge(ad, w)
    fresh = make_adapter(8, 8, rank=2, seed=6, with_bias=False)  # B = 0 again
    x = Tensor(rng.standard_normal((5, 8)))
    again = lora_forward(merged, fresh, x).array
    assert np.abs(again - lora_forward(w, ad, x).array).max() < 1e-10


# ---------------------------------------------------------------------------
# the fused adapted linear against its unfused chain
# ---------------------------------------------------------------------------


def _adapted_linear(rng, with_bias, in_dim=12, out_dim=10, rank=3):
    """A base weight and an adapter with every tensor off zero."""
    w = _base(rng, in_dim, out_dim)
    ad = LoraAdapter(a=Tensor(rng.standard_normal((rank, in_dim))),
                     b=Tensor(rng.standard_normal((out_dim, rank))), rank=rank,
                     scaling=1.0 / rank,
                     bias=Tensor(rng.standard_normal((1, out_dim))) if with_bias else None)
    return w, ad


def _outputs_and_grads(forward, linears, x, wrt, rng):
    """Each linear's output on x and the gradients of wrt for a loss whose
    gradient at each output is a seeded random array."""
    with Tape() as tape:
        ys = [forward(w, ad, x) for w, ad in linears]
        loss = tensor_sum(mul(ys[0], Tensor(rng.standard_normal(ys[0].shape))))
        for y in ys[1:]:
            loss = add(loss, tensor_sum(mul(y, Tensor(rng.standard_normal(y.shape)))))
    return [y.array for y in ys], tape.grad(loss, wrt)


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("rows", [4, 1])
@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("w_trains", [True, False])
@pytest.mark.parametrize("x_is_param", [True, False])
def test_fused_node_matches_unfused_chain_bitwise(rows, with_bias, w_trains, x_is_param):
    rng = derive_rng(7, "lora-fused", str(rows), str(with_bias), str(w_trains), str(x_is_param))
    w, ad = _adapted_linear(rng, with_bias)
    x = Tensor(rng.standard_normal((rows, w.shape[0])))
    wrt = [ad.a, ad.b] + [ad.bias] * with_bias + [w] * w_trains + [x] * x_is_param
    seed = int(rng.integers(2 ** 32))
    got = _outputs_and_grads(lora_forward, [(w, ad)], x, wrt, derive_rng(seed, "g"))
    want = _outputs_and_grads(lora_forward_oracle, [(w, ad)], x, wrt, derive_rng(seed, "g"))
    _assert_same_bits(got[0], want[0])
    _assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("rows", [5, 1])
def test_shared_input_gradient_accumulates_in_unfused_order(rows):
    """Three adapted linears read one x, as wq, wk and wv read the normed
    hidden state: x's six gradient terms must add up in the chain's order."""
    rng = derive_rng(8, "lora-shared", str(rows))
    linears = [_adapted_linear(rng, with_bias=True) for _ in range(3)]
    x = Tensor(rng.standard_normal((rows, 12)))
    wrt = [x] + [t for w, ad in linears for t in (ad.a, ad.b, ad.bias)]
    got = _outputs_and_grads(lora_forward, linears, x, wrt, derive_rng(9, "g"))
    want = _outputs_and_grads(lora_forward_oracle, linears, x, wrt, derive_rng(9, "g"))
    _assert_same_bits(got[0], want[0])
    _assert_same_bits(got[1], want[1])


def test_fused_node_matches_central_differences():
    rng = derive_rng(10, "lora-gradcheck")
    w, ad = _adapted_linear(rng, with_bias=True, in_dim=5, out_dim=4, rank=2)
    x = Tensor(rng.standard_normal((3, 5)))
    weights = Tensor(rng.standard_normal((3, 4)))

    def f(ps):
        adapter = LoraAdapter(a=ps[1], b=ps[2], rank=2, scaling=ad.scaling, bias=ps[3])
        return tensor_sum(mul(lora_forward(ps[4], adapter, ps[0]), weights))

    assert grad_check(f, [x, ad.a, ad.b, ad.bias, w], h=1e-5) < 1e-6


@pytest.mark.parametrize("with_bias", [True, False])
def test_one_adapted_linear_records_one_node_computing_only_what_is_needed(with_bias):
    rng = derive_rng(11, "lora-node", str(with_bias))
    w, ad = _adapted_linear(rng, with_bias)
    x = Tensor(rng.standard_normal((3, 12)))
    with Tape() as tape:
        y = lora_forward(w, ad, x)
    assert len(tape) == 1
    (node,) = tape._nodes
    g = rng.standard_normal(y.shape)
    for need in itertools.product((False, True), repeat=len(node.inputs)):
        assert [d is not None for d in node.backward(g, need)] == list(need)


# ---------------------------------------------------------------------------
# groups and freezing
# ---------------------------------------------------------------------------


def _models(lm_cfg=None, bind_cfg=None, seed=0):
    lm = lm_init(lm_cfg or LMConfig(), seed)
    bind = bind_init(bind_cfg or BindConfig(), seed)
    return lm, bind


def test_stage1_count_matches_closed_formula():
    lm, bind = _models()
    count = apply_stage_freeze(lm, bind, STAGE_TRAINABLE["align_only"])
    ci, c, ch = 64, 128, 256
    layers = 4
    want = ci * c + 3 * (2 * c * ch + ch * c + c) + layers
    assert count == want


def test_stage2_freeze_covers_lora_bias_norm_gates():
    lm, bind = _models()
    apply_peft(lm, rank=4, seed=0)
    names = trainable_param_names(lm, bind, STAGE_TRAINABLE["instruct"])
    assert all(
        n.endswith((".lora_a", ".lora_b", ".bias", "attn_norm", "ffn_norm", "final_norm"))
        or ".gates." in n or n.startswith("lm.gates")
        for n in names
    )
    assert not any("bind." in n for n in names)
    count = apply_stage_freeze(lm, bind, STAGE_TRAINABLE["instruct"])
    assert count == sum(
        (lm.params[n[3:]] if n.startswith("lm.") else bind.params[n[5:]]).size for n in names
    )


def test_configuration_errors():
    lm, bind = _models()
    with pytest.raises(ConfigurationError):
        apply_stage_freeze(lm, bind, set())
    with pytest.raises(ConfigurationError):
        apply_stage_freeze(lm, bind, {"encoders"})
    with pytest.raises(ConfigurationError):
        apply_stage_freeze(lm, bind, {"adapters?"})


def test_apply_peft_idempotent():
    lm, _ = _models()
    first = apply_peft(lm, rank=4, seed=0)
    second = apply_peft(lm, rank=4, seed=0)
    assert len(first) == 4 * 7
    assert second == []


def test_adapters_and_zero_gates_are_noop_start():
    cfg = LMConfig(vocab_size=260, dim=16, layers=2, heads=2, max_seq=16)
    plain = lm_init(cfg, 3)
    adapted = lm_init(cfg, 3)
    apply_peft(adapted, rank=4, seed=9)
    tokens = [5, 90, 151, 7]
    a = lm_forward(plain, tokens, None).array
    b = lm_forward(adapted, tokens, None).array
    assert a.tobytes() == b.tobytes()


def test_stage2_trainable_fraction_below_ten_percent_at_defaults():
    lm, bind = _models()
    apply_peft(lm, seed=0)  # default rank
    stage2 = apply_stage_freeze(lm, bind, STAGE_TRAINABLE["instruct"])
    total = sum(t.size for t in lm.params.values()) + sum(t.size for t in bind.params.values())
    assert stage2 / total < 0.10


def test_param_groups_partition_every_parameter():
    lm, bind = _models()
    apply_peft(lm, rank=2, seed=0)
    groups = param_groups(lm, bind)
    seen = [n for g in groups.values() for n in g]
    assert len(seen) == len(set(seen)) == len(lm.params) + len(bind.params)
