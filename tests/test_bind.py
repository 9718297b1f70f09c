import numpy as np
import pytest

from bindlm.bind import BindConfig, BindNetwork, N_BLOCKS, _block_update, bind_forward, bind_init
from bindlm.encoders import JointEmbedding, Modality
from bindlm.tensor import ShapeError, Tape, Tensor, derive_rng, grad_check, tensor_sum

from _oracles import bind_init_oracle, bind_oracle


def _embedding(rng, dim):
    return JointEmbedding.of(rng.standard_normal(dim), Modality.IMAGE, "e")


def test_zero_network_maps_to_zero():
    cfg = BindConfig(dim_joint=8, dim_lm=16, dim_hidden=32)
    net = bind_init(cfg, seed=0)
    zeros = {name: Tensor(np.zeros_like(t.array)) for name, t in net.params.items()}
    net = BindNetwork(cfg, zeros)
    e = _embedding(derive_rng(0, "bz"), 8)
    out = bind_forward(net, e)
    assert np.array_equal(out.array, np.zeros((1, 16)))


def test_w3_zero_collapses_to_linear():
    cfg = BindConfig(dim_joint=8, dim_lm=16, dim_hidden=32)
    net = bind_init(cfg, seed=1)  # w3 is zero at init
    e = _embedding(derive_rng(1, "bl"), 8)
    out = bind_forward(net, e).array
    from bindlm.tensor import matmul

    want = matmul(e.vector, net.params["w0"]).array
    assert np.array_equal(out, want)


def test_matches_independent_oracle_on_seeded_nets():
    cfg = BindConfig(dim_joint=8, dim_lm=16, dim_hidden=32)
    for seed in range(10):
        net = bind_init(cfg, seed=seed)
        # randomize every tensor, including w3, so the blocks actually act
        rng = derive_rng(seed, "bind-oracle")
        params = {
            name: Tensor(rng.standard_normal(t.shape) * 0.3)
            for name, t in net.params.items()
        }
        net = BindNetwork(cfg, params)
        e = _embedding(rng, 8)
        got = bind_forward(net, e).array
        want = bind_oracle({n: t.array for n, t in params.items()}, e.vector.array)
        assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("cfg", [BindConfig(), BindConfig(dim_joint=8, dim_lm=6, dim_hidden=10)])
def test_init_draws_match_the_explicit_construction(cfg, seed):
    net = bind_init(cfg, seed)
    want = bind_init_oracle(seed, cfg.dim_joint, cfg.dim_lm, cfg.dim_hidden)
    assert list(net.params) == list(want)
    for name, a in want.items():
        got = net.params[name].array
        assert got.dtype == a.dtype and got.shape == a.shape and got.tobytes() == a.tobytes()


def test_tape_free_forward_is_the_primitives_bit_for_bit():
    cfg = BindConfig(dim_joint=8, dim_lm=16, dim_hidden=32)
    rng = derive_rng(11, "bind-plain")
    net = BindNetwork(cfg, {name: Tensor(rng.standard_normal(t.shape) * 0.3)
                            for name, t in bind_init(cfg, seed=11).params.items()})
    e = _embedding(rng, 8)
    with Tape() as tape:
        taped = bind_forward(net, e)
    assert len(tape) > 0
    assert bind_forward(net, e).array.tobytes() == taped.array.tobytes()


def test_init_deterministic():
    cfg = BindConfig()
    a = bind_init(cfg, seed=9)
    b = bind_init(cfg, seed=9)
    for name in a.params:
        assert a.params[name].array.tobytes() == b.params[name].array.tobytes()


def test_grad_check_over_all_bind_params():
    cfg = BindConfig(dim_joint=4, dim_lm=6, dim_hidden=8)
    net = bind_init(cfg, seed=3)
    rng = derive_rng(3, "bind-gc")
    # move w3 off zero so its gradient path is exercised
    names = sorted(net.params)
    base = []
    for name in names:
        t = net.params[name]
        if name.endswith("w3"):
            t = Tensor(rng.standard_normal(t.shape) * 0.2)
        base.append(t)
    e = _embedding(rng, 4)

    def f(params):
        trial = BindNetwork(cfg, dict(zip(names, params)))
        return tensor_sum(bind_forward(trial, e))

    assert grad_check(f, base, h=1e-5) < 1e-6


def test_block_count_is_three():
    net = bind_init(BindConfig(), seed=0)
    blocks = {name.split(".")[1] for name in net.params if name.startswith("blocks.")}
    assert blocks == {"0", "1", "2"}
    assert N_BLOCKS == 3


def test_block_update_input_scale_invariance():
    cfg = BindConfig(dim_joint=4, dim_lm=6, dim_hidden=8)
    rng = derive_rng(5, "bind-scale")
    w1 = Tensor(rng.standard_normal((6, 8)))
    w2 = Tensor(rng.standard_normal((6, 8)))
    w3 = Tensor(rng.standard_normal((8, 6)))
    gain = Tensor(np.ones((1, 6)))
    x = rng.standard_normal((1, 6)) + np.sign(rng.standard_normal((1, 6)))
    for c in (2.0, 17.5):
        u1 = _block_update(Tensor(x), w1, w2, w3, gain).array
        u2 = _block_update(Tensor(c * x), w1, w2, w3, gain).array
        assert np.abs(u1 - u2).max() / max(1.0, np.abs(u1).max()) < 1e-6


def test_output_dim_is_always_lm_dim():
    rng = derive_rng(6, "bind-dims")
    for dj, dh in [(4, 8), (16, 5), (7, 7)]:
        cfg = BindConfig(dim_joint=dj, dim_lm=10, dim_hidden=dh)
        net = bind_init(cfg, seed=0)
        e = _embedding(rng, dj)
        assert bind_forward(net, e).shape == (1, 10)


def test_dimension_mismatch_raises():
    net = bind_init(BindConfig(dim_joint=8, dim_lm=16, dim_hidden=32), seed=0)
    e = _embedding(derive_rng(7, "bind-dim"), 9)
    with pytest.raises(ShapeError):
        bind_forward(net, e)
