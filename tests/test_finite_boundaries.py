"""A NaN placed in front of any primitive or kernel is caught where values leave.

Primitive and kernel outputs are not checked for NaN or Inf. These tests
plant a NaN in one input of one call, built with ``Tensor(..., _checked=True)``
or as a plain array so nothing rejects it on the way in, and assert that the
computation still ends in the boundary's error: NonFiniteError from
lm_forward's logits, DivergenceError naming the step the NaN was planted in,
or GradCheckError. A tape-free forward calls tensor.py's kernels on arrays
instead of the primitives, so generation is probed at the kernel each
primitive computes with; concat_rows, which a tape-free forward replaces by
writing the new keys and values into the cache's buffers, is probed at that
write (lm._write_rows).
"""

import numpy as np
import pytest

from bindlm import bind as bind_module
from bindlm import lm as lm_module
from bindlm import peft, tensor, train
from bindlm.bind import BindConfig, bind_init
from bindlm.encoders import JointEmbedding, Modality
from bindlm.lm import GenerationParams, LMConfig, generate, lm_init
from bindlm.tensor import GradCheckError, NonFiniteError, Tensor, grad_check
from bindlm.train import DivergenceError, run_stage

from test_train import TINY_BIND, TINY_LM, _tiny_plan, write_tiny_dataset

PRIMITIVES = ("matmul", "transpose", "add", "mul", "scale", "silu", "rmsnorm", "embedding",
              "causal_attention", "concat_rows", "rope", "tensor_sum",
              "softmax_cross_entropy")
_MODULES = (tensor, lm_module, peft, bind_module, train)


def _poisoned(name, args):
    """args with a NaN in the first input, a Tensor or an array, where the
    primitive or kernel reads it."""
    first = args[0]
    arr = getattr(first, "array", first).copy()
    if name in ("embedding", "_gather"):
        arr[np.arange(len(arr))[args[1]][0]] = np.nan  # the first gathered row
    else:
        arr.reshape(-1)[0] = np.nan  # for softmax_cross_entropy, row 0 is a prompt row
    return (Tensor(arr, _checked=True) if isinstance(first, Tensor) else arr,) + tuple(args[1:])


class Planter:
    """Replaces one primitive or kernel, a tensor one or peft.lora_forward, in
    every module that calls it.

    Calls are counted while armed() holds; call number ``at`` gets a NaN
    in front of it (None plants nothing and only counts).
    """

    def __init__(self, monkeypatch, name, at=None, armed=lambda: True):
        self.calls = 0
        real = next(getattr(module, name) for module in _MODULES if hasattr(module, name))

        def planted(*args, **kwargs):
            if armed():
                self.calls += 1
                if self.calls == at:
                    args = _poisoned(name, args)
            return real(*args, **kwargs)

        for module in _MODULES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, planted)


def _decoder(positions):
    config = LMConfig(vocab_size=420, dim=16, layers=2, heads=2, max_seq=40,
                      positions=positions, ffn_hidden=24)
    lm = lm_init(config, 0)
    peft.apply_peft(lm, rank=2, seed=0)
    rng = np.random.default_rng(5)
    for name in list(lm.params):
        if name.endswith(".lora_b") or name.startswith("gates."):
            lm.params[name] = Tensor(rng.uniform(-0.5, 0.5, lm.params[name].shape))
    bind = bind_init(BindConfig(dim_joint=8, dim_lm=16, dim_hidden=12), 0)
    emb = JointEmbedding.of(rng.standard_normal(8), Modality.IMAGE, "probe")
    return lm, bind, emb


def _generate(lm, bind, emb):
    return generate(lm, bind, emb, [7, 8, 9, 10], GenerationParams(max_new_tokens=3))


# the kernel each primitive computes with, for every kind of operation a
# tape-free decode runs, the bind network's included; concat_rows maps to the
# K/V cache's write, which takes its place there
_GENERATE_KERNELS = {"matmul": "_matmul", "add": "_add", "mul": "_mul", "silu": "_silu",
                     "rmsnorm": "_rmsnorm", "embedding": "_gather",
                     "causal_attention": "_attention", "concat_rows": "_write_rows",
                     "rope": "_rope"}


@pytest.mark.parametrize("positions,name",
                         [("learned", n) for n in _GENERATE_KERNELS if n != "rope"]
                         + [("rope", n) for n in _GENERATE_KERNELS])
def test_nan_in_front_of_a_primitive_reaches_the_logits(monkeypatch, positions, name):
    kernel = _GENERATE_KERNELS[name]
    lm, bind, emb = _decoder(positions)
    with monkeypatch.context() as m:
        counter = Planter(m, kernel)
        _generate(lm, bind, emb)
    assert counter.calls > 1
    for at in (1, counter.calls // 2, counter.calls):  # bind network side to head side
        with monkeypatch.context() as m:
            Planter(m, kernel, at=at)
            with pytest.raises(NonFiniteError):
                _generate(lm, bind, emb)


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    data = write_tiny_dataset(tmp_path_factory.mktemp("finite"))
    ckpt = run_stage(_tiny_plan("pretrain", data, epochs=1),
                     lm_config=TINY_LM, bind_config=TINY_BIND)
    return data, ckpt


_PRETRAIN_PRIMITIVES = ("matmul", "add", "mul", "scale", "silu", "rmsnorm", "embedding",
                        "causal_attention", "softmax_cross_entropy")


@pytest.mark.parametrize("stage,name",
                         [("pretrain", n) for n in _PRETRAIN_PRIMITIVES]
                         + [("instruct", n) for n in ("lora_forward", "scale", "matmul", "add")])
def test_nan_in_front_of_a_primitive_diverges_at_its_step(monkeypatch, pretrained, stage, name):
    data, pre = pretrained
    history = []
    plant_step = 2  # counted within the stage; 0 is its first step
    planter = Planter(monkeypatch, name, at=1, armed=lambda: len(history) == plant_step)
    ckpt_in = pre if stage == "instruct" else None
    with pytest.raises(DivergenceError) as info:
        run_stage(_tiny_plan(stage, data, epochs=1), checkpoint_in=ckpt_in,
                  lm_config=TINY_LM, bind_config=TINY_BIND, history=history)
    assert planter.calls >= 1
    assert info.value.step == plant_step + 1 + (pre.step if ckpt_in else 0)
    assert len(history) == plant_step


_Q = np.array([[0.3, -0.2, 0.5, 0.1], [-0.4, 0.6, 0.2, -0.3]])
_GRAD_CHECK_CASES = {
    "matmul": lambda p: tensor.tensor_sum(tensor.matmul(p, Tensor(_Q.T))),
    "transpose": lambda p: tensor.tensor_sum(tensor.transpose(p)),
    "add": lambda p: tensor.tensor_sum(tensor.add(p, Tensor(_Q))),
    "mul": lambda p: tensor.tensor_sum(tensor.mul(p, Tensor(_Q))),
    "scale": lambda p: tensor.tensor_sum(tensor.scale(p, 0.5)),
    "silu": lambda p: tensor.tensor_sum(tensor.silu(p)),
    "rmsnorm": lambda p: tensor.tensor_sum(tensor.rmsnorm(p, Tensor(np.ones((1, 4))))),
    "embedding": lambda p: tensor.tensor_sum(tensor.embedding(p, [1, 0])),
    "causal_attention": lambda p: tensor.tensor_sum(tensor.causal_attention(p, p, p, 2)),
    "concat_rows": lambda p: tensor.tensor_sum(tensor.concat_rows(p, p)),
    "rope": lambda p: tensor.tensor_sum(
        tensor.rope(p, np.cos([[0.0], [1.0]]), np.sin([[0.0], [1.0]]), 2)),
    "tensor_sum": lambda p: tensor.tensor_sum(p),
    # row 0 is ignored, and its NaN would drop out of the loss and gradient
    "softmax_cross_entropy": lambda p: tensor.softmax_cross_entropy(p, [-1, 2]),
}


@pytest.mark.parametrize("name", PRIMITIVES)
def test_nan_in_front_of_a_primitive_fails_grad_check(monkeypatch, name):
    f = _GRAD_CHECK_CASES[name]
    Planter(monkeypatch, name, at=1)
    with pytest.raises(GradCheckError, match="at the given params"):
        grad_check(lambda ps: f(ps[0]), [Tensor(_Q)])


def test_nan_in_an_ignored_row_still_raises():
    logits = np.zeros((3, 5))
    logits[1, 2] = np.nan
    with pytest.raises(NonFiniteError, match=r"index \(1, 2\) in logits"):
        tensor.softmax_cross_entropy(Tensor(logits, _checked=True), [0, -1, 4])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("lr,step", [(1e160, 2), (1e40, 4), (1e20, 4)])
def test_divergence_step_is_the_one_per_op_checks_gave(pretrained, lr, step):
    # the step numbers checking every primitive output gave, on this plan
    data, _ = pretrained
    with pytest.raises(DivergenceError) as info:
        run_stage(_tiny_plan("pretrain", data, lr=lr), lm_config=TINY_LM, bind_config=TINY_BIND)
    assert info.value.step == step


def test_primitive_outputs_are_not_checked():
    with np.errstate(over="ignore"):
        out = tensor.scale(Tensor([[1e308]]), 10.0)
    assert np.isinf(out.array).all()
