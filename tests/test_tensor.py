import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bindlm.tensor import (
    EmptyBatchError,
    GradCheckError,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    add,
    causal_attention,
    concat_rows,
    derive_rng,
    embedding,
    grad_check,
    matmul,
    mul,
    rmsnorm,
    rope,
    scale,
    silu,
    softmax_cross_entropy,
    tensor_sum,
    transpose,
)

from _oracles import (
    attention_oracle,
    einsum_matmul,
    rmsnorm_oracle,
    sigmoid_oracle,
    unpruned_grad,
)


# ---------------------------------------------------------------------------
# Independent oracles (written before the ops they check)
# ---------------------------------------------------------------------------


def matmul_oracle(a, b):
    """Triple loop, k innermost."""
    m, k = len(a), len(a[0])
    n = len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += a[i][kk] * b[kk][j]
            out[i][j] = acc
    return np.array(out)


def silu_oracle(x):
    return x * (1.0 / (1.0 + math.exp(-x)))


def softmax_xent_oracle(logits, targets):
    """Direct exp / normalize / -log, mean over all rows."""
    total = 0.0
    for row, t in zip(logits, targets):
        e = [math.exp(v) for v in row]
        z = sum(e)
        total += -math.log(e[t] / z)
    return total / len(targets)


# ---------------------------------------------------------------------------
# Tensor invariants
# ---------------------------------------------------------------------------


def test_tensor_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        Tensor([[1.0, float("nan")]])
    with pytest.raises(NonFiniteError):
        Tensor([[float("inf")]])


def test_tensor_is_immutable():
    t = Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = 5.0
    with pytest.raises(AttributeError):
        t.array = np.zeros(2)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(a, b).array, b.array)


def test_matmul_zero():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[0.0], [0.0]])
    assert np.array_equal(matmul(a, b).array, [[0.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = derive_rng(11, "matmul")
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    got = matmul(Tensor(a), Tensor(b)).array
    want = matmul_oracle(a.tolist(), b.tolist())
    assert np.abs(got - want).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def _grads_under(f, inputs, g):
    """f's output and the gradients of sum(f(inputs) * g) for every input."""
    with Tape() as tape:
        out = f(inputs)
        loss = tensor_sum(mul(out, Tensor(g)))
    return out.array, tape.grad(loss, inputs)


@pytest.mark.parametrize("m,k,n", [
    (1, 7, 5),        # one row: dB is an outer product
    (6, 1, 4),        # K = 1
    (16, 16, 16),     # square: a swapped transpose keeps every shape
    (1, 128, 418),    # one decode row through the head
    (30, 128, 512),   # a training sequence through the FFN width
])
def test_matmul_and_grads_match_einsum_reference(m, k, n):
    rng = derive_rng(13, "matmul-ref", f"{m}x{k}x{n}")
    a, b = Tensor(rng.standard_normal((m, k))), Tensor(rng.standard_normal((k, n)))
    g = rng.standard_normal((m, n))
    out, (da, db) = _grads_under(lambda ps: matmul(ps[0], ps[1]), [a, b], g)
    for got, want in zip((out, da, db), einsum_matmul(a.array, b.array, g)):
        assert got.shape == want.shape and np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("m,n,heads,c", [
    (5, 5, 2, 8),
    (12, 12, 4, 32),
    (30, 30, 4, 128),
    (3, 7, 2, 8),
    (1, 9, 4, 32),    # one decode row: no mask
    (20, 40, 4, 128),
])
def test_attention_and_grads_match_per_head_reference(m, n, heads, c):
    rng = derive_rng(14, "attn-ref", f"{m}x{n}x{heads}x{c}")
    q = Tensor(rng.standard_normal((m, c)))
    k, v = (Tensor(rng.standard_normal((n, c))) for _ in range(2))
    g = rng.standard_normal((m, c))
    out, grads = _grads_under(lambda ps: causal_attention(*ps, heads), [q, k, v], g)
    want = attention_oracle(q.array, k.array, v.array, heads, g)
    for got, ref in zip([out, *grads], want):
        assert got.shape == ref.shape and np.abs(got - ref).max() <= 1e-10


def test_matmul_bit_deterministic():
    rng = derive_rng(12, "matmul-det")
    a = Tensor(rng.standard_normal((7, 8)))
    b = Tensor(rng.standard_normal((8, 5)))
    r1 = matmul(a, b).array.tobytes()
    r2 = matmul(a, b).array.tobytes()
    assert r1 == r2


# ---------------------------------------------------------------------------
# silu
# ---------------------------------------------------------------------------


def test_silu_zero():
    assert silu(Tensor([[0.0]])).array[0, 0] == 0.0


def test_silu_saturates():
    assert abs(silu(Tensor([[20.0]])).array[0, 0] - 20.0) < 1e-6


def test_silu_matches_scalar_oracle():
    got = silu(Tensor([[-1.0]])).array[0, 0]
    assert abs(got - silu_oracle(-1.0)) < 1e-15
    assert abs(got - (-0.2689414213699951)) < 1e-12  # frozen from the oracle


_EDGE_VALUES = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308,
                5e-324, -5e-324, 2.2e-308, -2.2e-308, 36.7, -36.7, 1e-20, -1e-20]


def _random_inputs():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 260)))
        yield rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 3)


def test_silu_kernel_matches_sign_split_oracle_bitwise():
    for x in itertools.chain(_random_inputs(), [np.array([_EDGE_VALUES])]):
        want = x * sigmoid_oracle(x)
        assert silu(Tensor(x)).array.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# rmsnorm
# ---------------------------------------------------------------------------


def test_rmsnorm_kernel_matches_mean_oracle_bitwise():
    # edge values whose squares, and their row sum, stay in the float range
    edge = np.array([[v for v in _EDGE_VALUES if abs(v) < 1e150]])
    for x in itertools.chain(_random_inputs(), [edge]):
        gain = np.linspace(0.5, 1.5, x.shape[1])[None, :]
        got = rmsnorm(Tensor(x), Tensor(gain)).array
        assert got.tobytes() == rmsnorm_oracle(x, gain).tobytes()


def test_rmsnorm_constant_row():
    x = Tensor([[3.0, 3.0, 3.0, 3.0]])
    gain = Tensor(np.ones((1, 4)))
    out = rmsnorm(x, gain, eps=1e-6).array
    # mean(x^2) = 9, scale = 1/3
    assert np.abs(out - 1.0).max() < 1e-5


def test_rmsnorm_zero_vector():
    x = Tensor(np.zeros((1, 4)))
    gain = Tensor(np.ones((1, 4)))
    assert np.array_equal(rmsnorm(x, gain).array, np.zeros((1, 4)))


def test_rmsnorm_zero_gain():
    rng = derive_rng(13, "rms")
    x = Tensor(rng.standard_normal((1, 6)))
    gain = Tensor(np.zeros((1, 6)))
    assert np.array_equal(rmsnorm(x, gain).array, np.zeros((1, 6)))


def test_rmsnorm_requires_positive_eps():
    x = Tensor(np.ones((1, 2)))
    with pytest.raises(ShapeError):
        rmsnorm(x, Tensor(np.ones((1, 2))), eps=0.0)


@given(
    c=st.floats(min_value=1.0, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_rmsnorm_scale_invariance(c, seed):
    # c >= 1 keeps both x and c*x above the |x_i| >= 1 precondition; c < 1 is
    # the same comparison with the roles of the two inputs swapped.
    rng = derive_rng(seed, "rms-scale")
    x = rng.standard_normal((1, 8))
    x = x + np.sign(x) * 1.0  # |x_i| >= 1, so eps shifts the scale by <= eps/2
    gain = Tensor(np.ones((1, 8)))
    y1 = rmsnorm(Tensor(x), gain, eps=1e-6).array
    y2 = rmsnorm(Tensor(c * x), gain, eps=1e-6).array
    assert np.abs(y1 - y2).max() / np.abs(y1).max() < 1e-6
    # At larger magnitudes eps is truly negligible and 1e-9 holds literally.
    y3 = rmsnorm(Tensor(64.0 * x), gain, eps=1e-6).array
    y4 = rmsnorm(Tensor(64.0 * c * x), gain, eps=1e-6).array
    assert np.abs(y3 - y4).max() / np.abs(y3).max() < 1e-9


# ---------------------------------------------------------------------------
# softmax cross entropy
# ---------------------------------------------------------------------------


def test_xent_uniform_logits():
    loss = softmax_cross_entropy(Tensor(np.zeros((1, 4))), [2])
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_xent_large_margin():
    logits = np.zeros((1, 5))
    logits[0, 3] = 30.0
    loss = softmax_cross_entropy(Tensor(logits), [3])
    assert loss.item() < 1e-12


def test_xent_matches_direct_oracle():
    rng = derive_rng(14, "xent")
    logits = rng.standard_normal((2, 5))
    targets = [1, 4]
    got = softmax_cross_entropy(Tensor(logits), targets).item()
    want = softmax_xent_oracle(logits.tolist(), targets)
    assert abs(got - want) < 1e-12


def test_xent_ignore_index():
    rng = derive_rng(15, "xent-ign")
    logits = rng.standard_normal((3, 5))
    full = softmax_cross_entropy(Tensor(logits[1:]), [2, 3]).item()
    masked = softmax_cross_entropy(Tensor(logits), [-1, 2, 3], ignore_index=-1).item()
    assert abs(full - masked) < 1e-12


def test_xent_all_ignored_raises():
    with pytest.raises(EmptyBatchError):
        softmax_cross_entropy(Tensor(np.zeros((2, 4))), [-1, -1], ignore_index=-1)


def test_xent_target_out_of_range():
    with pytest.raises(ShapeError):
        softmax_cross_entropy(Tensor(np.zeros((1, 4))), [4])


# ---------------------------------------------------------------------------
# grad_check and per-primitive backward fidelity
# ---------------------------------------------------------------------------


def test_grad_check_matmul_sum():
    rng = derive_rng(16, "gc")
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((4, 2)))

    def f(params):
        return tensor_sum(matmul(params[0], params[1]))

    assert grad_check(f, [a, b], h=1e-5) < 1e-7


def test_grad_check_constant_function():
    p = Tensor(np.ones((2, 2)))

    def f(params):
        return Tensor([[7.5]])

    with Tape() as tape:
        loss = f([p])
    analytic = tape.grad(loss, [p])
    assert np.array_equal(analytic[0], np.zeros((2, 2)))
    err = grad_check(f, [p], h=1e-5)
    assert err < 1e-9


def test_grad_check_rejects_bad_h():
    with pytest.raises(ShapeError):
        grad_check(lambda ps: tensor_sum(ps[0]), [Tensor([[1.0]])], h=0.1)


def test_grad_check_reports_nonfinite_coordinate():
    def f(params):
        # log of a negative number under finite differencing -> NaN tensor
        with np.errstate(invalid="ignore"):
            return Tensor(np.log(params[0].array))

    with pytest.raises(GradCheckError, match="coordinate"):
        grad_check(f, [Tensor([[1e-6]])], h=1e-5)


def test_grad_check_reports_overflow_inside_primitives():
    # only the bumped value leaves the float range, inside scale; no tensor a
    # caller builds is non-finite
    def f(params):
        return tensor_sum(scale(params[0], 1e308))

    with pytest.raises(GradCheckError, match="coordinate 0"):
        with np.errstate(over="ignore"):
            grad_check(f, [Tensor([[1.7976931348623157]])], h=1e-5)


def _rand_shapes(rng, k_extra=0):
    m = int(rng.integers(1, 8))
    k = int(rng.integers(1, 8))
    n = int(rng.integers(1, 8))
    return m, k, n


@pytest.mark.parametrize("seed", range(6))
def test_backward_all_primitives_match_central_differences(seed):
    rng = derive_rng(seed, "prim-gc")
    m, k, n = _rand_shapes(rng)
    a = Tensor(rng.standard_normal((m, k)))
    b = Tensor(rng.standard_normal((k, n)))
    c = Tensor(rng.standard_normal((m, k)))
    gain = Tensor(rng.uniform(0.5, 1.5, (1, k)))

    cases = {
        "matmul": (lambda ps: tensor_sum(matmul(ps[0], ps[1])), [a, b]),
        "matmul_row": (lambda ps: tensor_sum(mul(matmul(ps[0], ps[1]), ps[2])),
                       [Tensor(rng.standard_normal((1, k))), b, Tensor(rng.standard_normal((1, n)))]),
        "add": (lambda ps: tensor_sum(mul(add(ps[0], ps[1]), ps[1])), [a, c]),
        "add_broadcast": (
            lambda ps: tensor_sum(add(ps[0], ps[1])),
            [a, Tensor(rng.standard_normal((1, k)))],
        ),
        "mul_broadcast": (
            lambda ps: tensor_sum(mul(ps[0], ps[1])),
            [a, Tensor(rng.standard_normal((1, 1)))],
        ),
        "transpose": (lambda ps: tensor_sum(matmul(transpose(ps[0]), ps[0])), [a]),
        "silu": (lambda ps: tensor_sum(silu(ps[0])), [a]),
        "scale": (lambda ps: tensor_sum(scale(ps[0], -1.7)), [a]),
        "rmsnorm": (lambda ps: tensor_sum(rmsnorm(ps[0], ps[1])), [a, gain]),
    }
    for name, (f, params) in cases.items():
        err = grad_check(f, params)
        assert err < 1e-6, f"{name}: {err}"


@pytest.mark.parametrize("seed", range(3))
def test_backward_attention_embedding_rope_xent(seed):
    rng = derive_rng(seed, "fused-gc")
    n, heads, hd = 5, 2, 4
    c = heads * hd
    q = Tensor(rng.standard_normal((n, c)))
    k = Tensor(rng.standard_normal((n, c)))
    v = Tensor(rng.standard_normal((n, c)))
    err = grad_check(lambda ps: tensor_sum(causal_attention(ps[0], ps[1], ps[2], heads)), [q, k, v])
    assert err < 1e-6

    table = Tensor(rng.standard_normal((6, c)))
    ids = [0, 3, 3, 5]
    err = grad_check(lambda ps: tensor_sum(embedding(ps[0], ids)), [table])
    assert err < 1e-6

    pos = np.arange(n)[:, None]
    freqs = 1.0 / (10000.0 ** (np.arange(hd // 2)[None, :] * 2.0 / hd))
    cos, sin = np.cos(pos * freqs), np.sin(pos * freqs)
    err = grad_check(lambda ps: tensor_sum(rope(ps[0], cos, sin, heads)), [q])
    assert err < 1e-6

    logits = Tensor(rng.standard_normal((4, 6)))
    targets = [2, -1, 0, 5]
    err = grad_check(
        lambda ps: softmax_cross_entropy(ps[0], targets, ignore_index=-1), [logits]
    )
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_attention_with_fewer_queries_is_the_tail_of_the_square_call(seed):
    rng = derive_rng(seed, "attn-tail")
    n, heads, c = 7, 2, 8
    q, k, v = (Tensor(rng.standard_normal((n, c))) for _ in range(3))
    square = causal_attention(q, k, v, heads).array
    for m in range(1, n + 1):
        tail = causal_attention(Tensor(q.array[n - m:]), k, v, heads).array
        assert np.abs(tail - square[n - m:]).max() <= 1e-12
    with pytest.raises(ShapeError):
        causal_attention(q, Tensor(k.array[:3]), Tensor(v.array[:3]), heads)


@pytest.mark.parametrize("seed", range(3))
def test_backward_attention_fewer_queries_and_concat_rows(seed):
    rng = derive_rng(seed, "attn-tail-gc")
    m, n, heads = 2, 5, 2
    q = Tensor(rng.standard_normal((m, 8)))
    k = Tensor(rng.standard_normal((n, 8)))
    v = Tensor(rng.standard_normal((n, 8)))
    err = grad_check(lambda ps: tensor_sum(causal_attention(ps[0], ps[1], ps[2], heads)), [q, k, v])
    assert err < 1e-6

    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((2, 4)))
    w = Tensor(rng.standard_normal((5, 4)))
    err = grad_check(lambda ps: tensor_sum(mul(concat_rows(ps[0], ps[1]), w)), [a, b])
    assert err < 1e-6
    with pytest.raises(ShapeError):
        concat_rows(a, Tensor(rng.standard_normal((2, 3))))


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_tape_accumulates_reused_tensor():
    x = Tensor([[2.0]])
    with Tape() as tape:
        y = mul(x, x)  # x used twice; dy/dx = 2x
        loss = tensor_sum(y)
    g = tape.grad(loss, [x])
    assert abs(g[0][0, 0] - 4.0) < 1e-12

    rng = derive_rng(0, "reuse")
    a = Tensor(rng.standard_normal((3, 3)))
    w = Tensor(rng.standard_normal((3, 3)))
    for op in (add, mul, matmul):
        with Tape() as tape:
            loss = tensor_sum(mul(op(a, a), w))
        _assert_same_bits(tape.grad(loss, [a]), unpruned_grad(tape, loss, [a]))


def test_grad_for_unused_param_is_zero():
    x = Tensor([[2.0]])
    u = Tensor([[3.0]])
    with Tape() as tape:
        loss = tensor_sum(mul(x, x))
    g = tape.grad(loss, [u])
    assert np.array_equal(g[0], np.zeros((1, 1)))
    _assert_same_bits(tape.grad(loss, [u, x]), unpruned_grad(tape, loss, [u, x]))


def _multi_input_cases(rng):
    """Primitives with several differentiable inputs, each read out nonlinearly."""
    a, c = (Tensor(rng.standard_normal((3, 4))) for _ in range(2))
    b = Tensor(rng.standard_normal((4, 5)))
    row = Tensor(rng.standard_normal((1, 4)))
    q = Tensor(rng.standard_normal((2, 4)))
    k, v = (Tensor(rng.standard_normal((5, 4))) for _ in range(2))
    q_all = Tensor(rng.standard_normal((5, 4)))
    return {
        "matmul": (lambda ps: matmul(ps[0], ps[1]), [a, b]),
        "matmul_row": (lambda ps: matmul(ps[0], ps[1]), [row, b]),
        "add": (lambda ps: add(ps[0], ps[1]), [a, row]),
        "mul": (lambda ps: mul(ps[0], ps[1]), [a, Tensor([[0.7]])]),
        "rmsnorm": (lambda ps: rmsnorm(ps[0], ps[1]), [a, Tensor(np.abs(row.array))]),
        "attention": (lambda ps: causal_attention(ps[0], ps[1], ps[2], 2), [q, k, v]),
        "attention_square": (lambda ps: causal_attention(ps[0], ps[1], ps[2], 2), [q_all, k, v]),
        "concat_rows": (lambda ps: concat_rows(ps[0], ps[1]), [a, c]),
    }


@pytest.mark.parametrize("name", ["matmul", "matmul_row", "add", "mul", "rmsnorm", "attention",
                                  "attention_square", "concat_rows"])
def test_pruned_grad_matches_unpruned_replay_for_every_input_subset(name):
    f, inputs = _multi_input_cases(derive_rng(1, "prune", name))[name]
    with Tape() as tape:
        out = f(inputs)
        loss = tensor_sum(mul(out, out))
    for r in range(1, len(inputs) + 1):
        for subset in itertools.combinations(inputs, r):
            _assert_same_bits(tape.grad(loss, subset), unpruned_grad(tape, loss, subset))


def test_derive_rng_is_stable():
    a = derive_rng(42, "x").standard_normal(4)
    b = derive_rng(42, "x").standard_normal(4)
    c = derive_rng(42, "y").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
