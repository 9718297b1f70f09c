import hashlib
import itertools

import numpy as np
import pytest

from _oracles import lora_forward_oracle
from bindlm.bind import BindConfig, bind_init
from bindlm.lm import LMConfig, lm_forward, lm_init
from bindlm.peft import (
    ConfigurationError,
    STAGE_TRAINABLE,
    apply_peft,
    lora_forward,
    merge,
    param_groups,
    resolve_param,
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


def _fresh(rng, in_dim, out_dim, rank):
    """A, B, bias and scaling of a just-attached adapter: B and the bias are zero."""
    a = Tensor(rng.standard_normal((rank, in_dim)))
    return a, Tensor(np.zeros((out_dim, rank))), Tensor(np.zeros((1, out_dim))), 1.0 / rank


def test_zero_b_adapter_is_noop_bitwise():
    rng = derive_rng(0, "lora-noop")
    w = _base(rng, 8, 6)
    x = Tensor(rng.standard_normal((3, 8)))
    got = lora_forward(x, w, *_fresh(rng, 8, 6, rank=2)).array
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
    x = Tensor(rng.standard_normal((4, in_dim)))
    got = lora_forward(x, w, a, b, Tensor(np.zeros((1, out_dim))), scaling).array
    want = x.array @ (w.array + delta_oi.T)
    assert np.abs(got - want).max() < 1e-9


def test_adapter_path_is_independent_of_base_weight():
    """The lora delta gets no gradient from (and gives none to) the base W."""
    rng = derive_rng(2, "lora-frozen")
    w = _base(rng, 5, 4)
    x = Tensor(rng.standard_normal((2, 5)))
    a, _, bias, scaling = _fresh(rng, 5, 4, rank=2)
    b = Tensor(rng.standard_normal((4, 2)))

    def delta_only(params):
        full = lora_forward(x, params[0], a, b, bias, scaling)
        return tensor_sum(add(full, scale(matmul(x, params[0]), -1.0)))

    err = grad_check(delta_only, [w], h=1e-5)
    assert err < 1e-9


def test_gradient_flows_to_a_and_b():
    rng = derive_rng(3, "lora-grads")
    w = _base(rng, 5, 4)
    x = Tensor(rng.standard_normal((2, 5)))

    def f(params):
        return tensor_sum(lora_forward(x, w, params[0], params[1], params[2], 0.5))

    a, _, bias, _ = _fresh(rng, 5, 4, rank=2)
    b_off_zero = Tensor(rng.standard_normal((4, 2)) * 0.3)
    assert grad_check(f, [a, b_off_zero, bias], h=1e-5) < 1e-6


@pytest.mark.parametrize("rank", [0, 17])
def test_rank_outside_the_narrowest_linear_attaches_nothing(rank):
    lm = lm_init(LMConfig(vocab_size=260, dim=16, layers=1, heads=2, max_seq=16,
                          ffn_hidden=24), 0)
    names = set(lm.params)
    with pytest.raises(ConfigurationError) as info:
        apply_peft(lm, rank=rank)
    assert str(info.value) == (f"lora_rank {rank}, which is not in [1, 16]:"
                               f" 16 is the narrowest adapted linear's width")
    assert set(lm.params) == names and lm.adapters == {}


def test_initial_adapters_keep_their_bits():
    """Each A is drawn from its own Philox stream; B and the bias are zero.
    Philox and elementwise math only, so no BLAS build moves these bits."""
    lm = lm_init(LMConfig(), 0)
    base = set(lm.params)
    apply_peft(lm, seed=0)
    digest = hashlib.sha256()
    for name in sorted(set(lm.params) - base):
        digest.update(name.encode())
        digest.update(lm.params[name].array.tobytes())
    assert digest.hexdigest() == "b953557f2fef148eb13b947317621ded5dd7e49bc4f42a27daae4e276134bc62"


def test_merge_zero_b_returns_base_bitwise():
    rng = derive_rng(4, "merge0")
    w = _base(rng, 8, 8)
    a, b, _, scaling = _fresh(rng, 8, 8, rank=2)
    assert merge(w, a, b, scaling).array.tobytes() == w.array.tobytes()


def test_merge_equals_adapted_forward():
    rng = derive_rng(5, "merge-eq")
    w = _base(rng, 8, 8)
    a, _, bias, scaling = _fresh(rng, 8, 8, rank=2)
    b = Tensor(rng.standard_normal((8, 2)))
    merged = merge(w, a, b, scaling)
    x = Tensor(rng.standard_normal((5, 8)))
    adapted = lora_forward(x, w, a, b, bias, scaling).array
    dense = matmul(x, merged).array
    assert np.abs(adapted - dense).max() < 1e-10


def test_merge_then_rewrap_is_stable():
    rng = derive_rng(6, "merge-rewrap")
    w = _base(rng, 8, 8)
    a, _, bias, scaling = _fresh(rng, 8, 8, rank=2)
    b = Tensor(rng.standard_normal((8, 2)))
    merged = merge(w, a, b, scaling)
    fresh = _fresh(rng, 8, 8, rank=2)  # B = 0 again
    x = Tensor(rng.standard_normal((5, 8)))
    again = lora_forward(x, merged, *fresh).array
    assert np.abs(again - lora_forward(x, w, a, b, bias, scaling).array).max() < 1e-10


# ---------------------------------------------------------------------------
# the fused adapted linear against its unfused chain
# ---------------------------------------------------------------------------


def _adapted_linear(rng, in_dim=12, out_dim=10, rank=3):
    """W, A, B, bias and scaling of an adapted linear, every tensor off zero."""
    return (_base(rng, in_dim, out_dim), Tensor(rng.standard_normal((rank, in_dim))),
            Tensor(rng.standard_normal((out_dim, rank))),
            Tensor(rng.standard_normal((1, out_dim))), 1.0 / rank)


def _outputs_and_grads(forward, linears, x, wrt, rng):
    """Each linear's output on x and the gradients of wrt for a loss whose
    gradient at each output is a seeded random array."""
    with Tape() as tape:
        ys = [forward(x, *linear) for linear in linears]
        loss = tensor_sum(mul(ys[0], Tensor(rng.standard_normal(ys[0].shape))))
        for y in ys[1:]:
            loss = add(loss, tensor_sum(mul(y, Tensor(rng.standard_normal(y.shape)))))
    return [y.array for y in ys], tape.grad(loss, wrt)


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("rows", [4, 1])
@pytest.mark.parametrize("w_trains", [True, False])
@pytest.mark.parametrize("x_is_param", [True, False])
def test_fused_node_matches_unfused_chain_bitwise(rows, w_trains, x_is_param):
    rng = derive_rng(7, "lora-fused", str(rows), str(w_trains), str(x_is_param))
    linear = w, a, b, bias, _ = _adapted_linear(rng)
    x = Tensor(rng.standard_normal((rows, w.shape[0])))
    wrt = [a, b, bias] + [w] * w_trains + [x] * x_is_param
    seed = int(rng.integers(2 ** 32))
    got = _outputs_and_grads(lora_forward, [linear], x, wrt, derive_rng(seed, "g"))
    want = _outputs_and_grads(lora_forward_oracle, [linear], x, wrt, derive_rng(seed, "g"))
    _assert_same_bits(got[0], want[0])
    _assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("rows", [5, 1])
def test_shared_input_gradient_accumulates_in_unfused_order(rows):
    """Three adapted linears read one x, as wq, wk and wv read the normed
    hidden state: x's six gradient terms must add up in the chain's order."""
    rng = derive_rng(8, "lora-shared", str(rows))
    linears = [_adapted_linear(rng) for _ in range(3)]
    x = Tensor(rng.standard_normal((rows, 12)))
    wrt = [x] + [t for _, a, b, bias, _ in linears for t in (a, b, bias)]
    got = _outputs_and_grads(lora_forward, linears, x, wrt, derive_rng(9, "g"))
    want = _outputs_and_grads(lora_forward_oracle, linears, x, wrt, derive_rng(9, "g"))
    _assert_same_bits(got[0], want[0])
    _assert_same_bits(got[1], want[1])


def test_fused_node_matches_central_differences():
    rng = derive_rng(10, "lora-gradcheck")
    w, a, b, bias, scaling = _adapted_linear(rng, in_dim=5, out_dim=4, rank=2)
    x = Tensor(rng.standard_normal((3, 5)))
    weights = Tensor(rng.standard_normal((3, 4)))

    def f(ps):
        return tensor_sum(mul(lora_forward(ps[0], ps[4], ps[1], ps[2], ps[3], scaling), weights))

    assert grad_check(f, [x, a, b, bias, w], h=1e-5) < 1e-6


@pytest.mark.parametrize("misfit", ["x", "a", "b"])
def test_a_tensor_that_does_not_fit_the_weight_is_a_shape_error(misfit):
    rng = derive_rng(12, "lora-misfit", misfit)
    w, a, b, bias, scaling = _adapted_linear(rng)
    x = Tensor(rng.standard_normal((3, 12)))
    wrong = {"x": Tensor(rng.standard_normal((3, 11))), "a": Tensor(rng.standard_normal((3, 11))),
             "b": Tensor(rng.standard_normal((9, 3)))}
    args = {"x": x, "a": a, "b": b, misfit: wrong[misfit]}
    with pytest.raises(ShapeError, match="do not fit"):
        lora_forward(args["x"], w, args["a"], args["b"], bias, scaling)


def test_one_adapted_linear_records_one_node_computing_only_what_is_needed():
    rng = derive_rng(11, "lora-node")
    w, a, b, bias, scaling = _adapted_linear(rng)
    x = Tensor(rng.standard_normal((3, 12)))
    with Tape() as tape:
        y = lora_forward(x, w, a, b, bias, scaling)
    assert len(tape) == 1
    (node,) = tape._nodes
    assert [id(t) for t in node.inputs] == [id(t) for t in (x, a, b, x, w, bias)]
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


def _trainable_scalars(lm, bind, groups):
    return sum(resolve_param(lm, bind, n).size for n in trainable_param_names(lm, bind, groups))


def test_stage1_count_matches_closed_formula():
    lm, bind = _models()
    count = _trainable_scalars(lm, bind, STAGE_TRAINABLE["align_only"])
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
    count = _trainable_scalars(lm, bind, STAGE_TRAINABLE["instruct"])
    assert count == sum(
        (lm.params[n[3:]] if n.startswith("lm.") else bind.params[n[5:]]).size for n in names
    )


def test_configuration_errors():
    lm, bind = _models()
    with pytest.raises(ConfigurationError):
        trainable_param_names(lm, bind, set())
    with pytest.raises(ConfigurationError):
        trainable_param_names(lm, bind, {"encoders"})
    with pytest.raises(ConfigurationError):
        trainable_param_names(lm, bind, {"adapters?"})


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
    stage2 = _trainable_scalars(lm, bind, STAGE_TRAINABLE["instruct"])
    total = sum(t.size for t in lm.params.values()) + sum(t.size for t in bind.params.values())
    assert stage2 / total < 0.10


def test_param_groups_partition_every_parameter():
    lm, bind = _models()
    apply_peft(lm, rank=2, seed=0)
    groups = param_groups(lm, bind)
    seen = [n for g in groups.values() for n in g]
    assert len(seen) == len(set(seen)) == len(lm.params) + len(bind.params)
