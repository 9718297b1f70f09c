"""Training plans, the optimizer, and the staged training loop.

Three passes: "pretrain" teaches caption generation conditioned on image
embeddings (the toy LM trains jointly here since there is no pretrained
checkpoint to start from), "instruct" tunes instruction following with LoRA
plus bias-norm updates on a mixture of visual and language-only records, and
"hq_instruct" is an optional extra pass of the same shape on a small
high-quality description set.

The optimizer keeps first/second moments per parameter, bias-corrected, with
betas (0.9, 0.95); weight decay is 0 on gates and on the LM's norm gains and
biases, and 0.01 on every other tensor, the bind network's norm gains
included. The learning rate ramps linearly over the warmup epochs, then
follows a cosine down to 10% of the peak. Gates get a fixed
learning-rate multiplier: they are a handful of scalars that start at zero
and everything conditioned has to wait for them, so at desk scale they move
faster than the bulk parameters.

AdamW takes Kingma and Ba's folded step (arXiv 1412.6980, section 2): the
bias corrections go into the step's lr and epsilon, one division per scalar.
Its cost is per numpy call as much as per scalar, so it updates in passes,
not tensor by tensor: a tensor above SMALL_TENSOR scalars (a dense weight)
is a pass of its own on its own arrays, and the small tensors (LoRA
factors, biases, norm gains, gates) share one pass per (learning-rate
multiplier, decay) pair over their concatenation. The elementwise operations
are the same either way, so every element gets the same bits. Handed back
the Tensors it returned, a pass over several reads its last result instead
of concatenating them again.

The passes fall into two shares of about equal scalar count. With two CPUs,
and a lighter share of at least half the heavier one's scalars (pretrain's;
not instruct's one LoRA bucket against a few thousand other scalars), one
worker thread, the only thread bindlm starts, runs share 1 while the caller
runs share 0; numpy releases the GIL inside each pass. The shares write no
common array and every element goes through the same operations in the same
order, so no bit depends on the worker.

When no bind.* name trains (instruct and hq_instruct by default), run_stage
computes each example's condition once per stage, tape-free (the taped
bits), and the steps record only the LM; a trained bind network runs under
each step's Tape.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import binfmt, peft
from .bind import BindConfig, bind_forward, bind_init
from .checkpoint import Checkpoint
from .data import (
    CAPTION_INSTRUCTION,
    MANIFEST_NAME,
    CaptionRecord,
    DatasetManifest,
    IngestError,
    InstructionRecord,
    ingest,
)
from .encoders import JointEmbedding, Modality, encode, placeholder_embedding
from .lm import LMConfig, caption_loss, lm_init, prompt_template, yesno_prompt
from .tensor import (DataError, NonFiniteError, ShapeError, Tape, Tensor, add, check_fields,
                     check_finite, derive_rng, scale)
from .tokenizer import EOS, Tokenizer, default_tokenizer


class PipelineError(DataError):
    """Stage ordering or plan validation failure."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss. step numbers the failing step as
    the history numbers its steps: from 1, after the input checkpoint's."""

    def __init__(self, step: int, message: str):
        super().__init__(f"divergence at step {step}: {message}")
        self.step = step


# stage -> (its plan defaults, the stage whose checkpoint it starts from)
_STAGES = {
    "pretrain": (dict(epochs=3, batch_size=1, lr=4e-4, warmup_epochs=0), None),
    "instruct": (dict(epochs=4, batch_size=1, lr=2e-3, warmup_epochs=1), "pretrain"),
    "hq_instruct": (dict(epochs=2, batch_size=1, lr=2e-3, warmup_epochs=1), "instruct"),
}
STAGES = tuple(_STAGES)


@dataclass(frozen=True)
class TrainPlan:
    stage: str
    data: str
    epochs: int
    batch_size: int
    lr: float
    warmup_epochs: int
    trainable: frozenset
    seed: int = 0
    lora_rank: int = peft.DEFAULT_RANK

    def __post_init__(self):
        if self.stage not in STAGES:
            raise PipelineError(f"unknown stage {self.stage!r}")
        check_fields(self, PipelineError, epochs=1, batch_size=1, warmup_epochs=0, lora_rank=1)
        if not self.lr > 0:
            raise PipelineError(f"lr {self.lr!r}, which is not above 0")
        if not self.trainable:
            raise PipelineError("trainable names no parameter group")
        with binfmt.naming("trainable", peft.ConfigurationError, PipelineError):
            peft.check_groups(self.trainable)


def default_plan(stage: str, data: str, seed: int = 0, **overrides) -> TrainPlan:
    if stage not in _STAGES:
        raise PipelineError(f"unknown stage {stage!r}")
    defaults, _ = _STAGES[stage]
    return TrainPlan(stage=stage, data=data, seed=seed,
                     **{**defaults, "trainable": peft.STAGE_TRAINABLE[stage], **overrides})


def _parse_scalar(raw: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def read_plan_file(path) -> dict:
    """Flat key = value plan format; '#' starts a comment."""
    values: dict = {}
    for lineno, line in enumerate(binfmt.read_text(path, PipelineError).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PipelineError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        values[key.strip()] = _parse_scalar(raw)
    return values


# What a plan file may set; the stage and the data come from the command line.
PLAN_KEYS = frozenset(f.name for f in fields(TrainPlan)) - {"stage", "data"}


def plan_from_file(path, stage: str, data: str, seed: int) -> TrainPlan:
    """The stage's default plan with the file's values; a bad key or value
    raises PipelineError naming the file and the key."""
    values = read_plan_file(path)
    # only instruct attaches adapters, so no other stage reads lora_rank
    allowed = PLAN_KEYS if stage == "instruct" else PLAN_KEYS - {"lora_rank"}
    binfmt.keys(values, f"{path}: stage {stage}", (), allowed, PipelineError)
    seed = values.pop("seed", seed)
    if "trainable" in values:
        values["trainable"] = frozenset(
            g.strip() for g in str(values["trainable"]).split(",") if g.strip()
        )
    with binfmt.naming(path, PipelineError, PipelineError):
        return default_plan(stage, data, seed=seed, **values)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


GATE_LR_MULT = 25.0
ADAM_BETAS = (0.9, 0.95)
ADAM_EPS = 1e-8
LR_FLOOR_FRAC = 0.1
# A tensor with at most this many scalars is updated in one pass with the
# other small tensors of its (lr multiplier, decay) group: a pass costs about
# 15 numpy calls of ~2 us each, against ~5 ns per scalar.
SMALL_TENSOR = 4096


class _Bucket:
    """Tensors updated in one pass: their positions in the step's name list,
    shapes and slices of the concatenation, their shared lr multiplier and
    decay, the moments of the concatenation, the pass's view of its share's
    scratch array (as float64 and as bool), and for several tensors the last
    step's result (see AdamW.step)."""

    __slots__ = ("index", "shapes", "slices", "mult", "decay", "m", "v", "scratch", "flags", "last")

    def __init__(self, mult: float, decay: float):
        self.index: list[int] = []
        self.shapes: list[tuple[int, ...]] = []
        self.slices: list[slice] = []
        self.mult, self.decay = mult, decay
        self.last: tuple[list[Tensor], np.ndarray] | None = None  # returned Tensors, their base

    @property
    def size(self) -> int:
        return self.slices[-1].stop

    def add(self, i: int, shape: tuple[int, ...]) -> None:
        start = self.slices[-1].stop if self.slices else 0
        self.index.append(i)
        self.shapes.append(shape)
        self.slices.append(slice(start, start + math.prod(shape)))


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _use_worker(light: int, heavy: int) -> bool:
    """Whether share 1 runs on the worker thread, given the scalar counts of
    the lighter and the heavier share: only with a second CPU, and only when
    the lighter share holds at least half the heavier one's scalars, since
    moving less saves less than the hand-off costs."""
    return _cpus() >= 2 and 2 * light >= heavy


# process id -> the executor of the one thread bindlm starts, made by the first
# step that uses it; a forked child has no copy of its parent's thread, so it
# makes its own
_WORKERS: dict = {}


def _worker():
    worker = _WORKERS.get(os.getpid())
    if worker is None:
        from concurrent.futures import ThreadPoolExecutor  # only training loads it
        # setdefault is atomic: of two first callers, both use the one kept,
        # and an executor never submitted to starts no thread
        worker = _WORKERS.setdefault(
            os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="bindlm-adamw"))
    return worker


def _update(jobs, lr: float, lr_t: float, eps_t: float, first: bool) -> bool:
    """One share's passes; True when every new value is finite. Each job is
    (bucket, params, grads, out), flat, with out the caller's array for the
    new parameters, -(lr_t*mult) * (m / (sqrt(v) + eps_t)) + p * (1 -
    lr*mult*decay) in that order. Allocates no array: every result goes to
    out, to the moments or to the scratch."""
    b1, b2 = ADAM_BETAS
    finite = True
    for b, p, g, new in jobs:
        if first:
            np.multiply(g, 1.0 - b1, out=b.m)
            np.multiply(g, 1.0 - b2, out=b.v)
            b.v *= g
        else:
            b.m *= b1
            b.m += np.multiply(g, 1.0 - b1, out=new)
            g2 = np.multiply(g, 1.0 - b2, out=new)
            g2 *= g
            b.v *= b2
            b.v += g2
        denom = np.sqrt(b.v, out=b.scratch)
        denom += eps_t
        np.divide(b.m, denom, out=new)
        new *= -(lr_t * b.mult)
        new += np.multiply(p, 1.0 - lr * b.mult * b.decay, out=denom)
        # the scratch's float64 values are spent, so its bytes hold the flags
        finite = finite and bool(np.isfinite(new, out=b.flags).all())
    return finite


class AdamW:
    """Bias-corrected adaptive steps with decoupled, group-aware weight decay."""

    def __init__(self, lr: float = 1e-3, weight_decay: float = 0.01,
                 gate_lr_mult: float = GATE_LR_MULT):
        self.lr = lr
        self.weight_decay = weight_decay
        self.gate_lr_mult = gate_lr_mult
        self.t = 0
        self._names: tuple[str, ...] | None = None
        self._shares: tuple[list[_Bucket], list[_Bucket]] = ([], [])
        self._threaded = False

    def _lr_mult_and_decay(self, name: str) -> tuple[float, float]:
        group = peft._classify(name)
        mult = self.gate_lr_mult if group == "gates" else 1.0
        return mult, 0.0 if group in ("gates", "bias_norm") else self.weight_decay

    def _plan(self, names, params) -> None:
        """A bucket of its own for each tensor above SMALL_TENSOR scalars, and
        one per (lr multiplier, decay) pair for the rest, in names order; the
        buckets then go into two shares balanced by scalar count, largest
        first, each into the lighter share. Each bucket gets its moments, and
        each share one scratch array the size of its largest bucket."""
        buckets, shared = [], {}
        for i, (name, p) in enumerate(zip(names, params)):
            key = self._lr_mult_and_decay(name)
            if p.size > SMALL_TENSOR:
                bucket = _Bucket(*key)
            elif key in shared:
                shared[key].add(i, p.shape)
                continue
            else:
                bucket = shared[key] = _Bucket(*key)
            bucket.add(i, p.shape)
            buckets.append(bucket)
        loads = [0, 0]
        for b in sorted(buckets, key=lambda b: -b.size):
            s = int(loads[1] < loads[0])
            self._shares[s].append(b)
            loads[s] += b.size
        for share in self._shares:
            scratch = np.empty(max((b.size for b in share), default=0))
            for b in share:
                b.m, b.v = np.empty(b.size), np.empty(b.size)
                b.scratch = scratch[:b.size]
                b.flags = scratch.view(np.bool_)[:b.size]
        self._threaded = _use_worker(min(loads), max(loads))

    def step(self, names, params, grads, lr: float | None = None) -> list[Tensor]:
        """New parameter tensors; neither ``params`` nor ``grads`` is written.

        The first call fixes the parameter names; a later call with other
        names raises ValueError. A NaN or Inf in a new parameter, which a
        non-finite gradient always gives through m / sqrt(v), raises
        NonFiniteError naming the first such parameter in names order.

        One pass per bucket (see _plan): a lone tensor on flat views of its
        own arrays, several on the concatenation of their parameters and of
        their gradients, each new parameter then a view of the pass's
        result. When a bucket's parameters are, by identity, the Tensors the
        last step returned for it, that step's result already is their
        concatenation, and the pass reads it instead of concatenating. The
        moments are updated in place, with the float operations of
        m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g in that order, then
        _update's folded step: 15 numpy calls a pass, one a division.
        Share 1 runs on the worker thread when _plan chose it, in a copy of
        the caller's context so that its numpy error state holds there too.
        """
        names = tuple(names)
        if self._names is None:
            self._names = names
            self._plan(names, params)
        elif names != self._names:
            raise ValueError("AdamW.step: the parameter names differ from the first step's")
        lr = self.lr if lr is None else lr
        b1, b2 = ADAM_BETAS
        self.t += 1
        root = math.sqrt(1.0 - b2 ** self.t)  # lr_t and eps_t fold the bias corrections
        scalars = (lr, lr * root / (1.0 - b1 ** self.t), ADAM_EPS * root, self.t == 1)
        jobs: tuple[list, list] = ([], [])
        out: list = [None] * len(names)
        for share, work in zip(self._shares, jobs):
            for b in share:
                if len(b.index) == 1:
                    p, g = params[b.index[0]].array.reshape(-1), grads[b.index[0]].reshape(-1)
                else:
                    if b.last and all(params[i] is t for i, t in zip(b.index, b.last[0])):
                        p = b.last[1]
                    else:
                        p = np.concatenate([params[i].array for i in b.index], axis=None)
                    g = np.concatenate([grads[i] for i in b.index], axis=None)
                new = np.empty(b.size)
                work.append((b, p, g, new))
                # views of new, which the pass fills before step returns them
                views = [Tensor(new[part].reshape(shape), _checked=True)
                         for shape, part in zip(b.shapes, b.slices)]
                for i, t in zip(b.index, views):
                    out[i] = t
                if len(b.index) > 1:
                    b.last = (views, new)
        if self._threaded:
            pending = _worker().submit(contextvars.copy_context().run, _update, jobs[1], *scalars)
            try:
                finite = _update(jobs[0], *scalars)
            finally:
                # the worker writes this step's arrays: return only once it is done
                other = pending.result()
        else:
            finite, other = (_update(work, *scalars) for work in jobs)
        if not (finite and other):
            for name, t in zip(names, out):
                check_finite(t.array, name)
        return out


def lr_at(step: int, total_steps: int, warmup_steps: int, peak: float) -> float:
    """Linear warmup then cosine decay to LR_FLOOR_FRAC * peak."""
    if warmup_steps > 0 and step < warmup_steps:
        return peak * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    floor = peak * LR_FLOOR_FRAC
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# Example preparation
# ---------------------------------------------------------------------------


@dataclass
class PreparedExample:
    prompt_ids: list[int]
    target_ids: list[int]
    embedding: JointEmbedding


def render_instruction_prompt(rec: InstructionRecord) -> str:
    """Yes/no records follow the yes/no prompting protocol; others are plain."""
    if rec.response in ("yes", "no"):
        return yesno_prompt(rec.instruction)
    return prompt_template(rec.instruction)


def prepare_caption(rec: CaptionRecord, tok: Tokenizer, encoders) -> PreparedExample:
    emb = encode(encoders[rec.modality], rec.raw, rec.source_id)
    prompt = tok.encode(prompt_template(CAPTION_INSTRUCTION))
    target = tok.encode(" " + rec.caption) + [EOS]
    return PreparedExample(prompt, target, emb)


def prepare_instruction(rec: InstructionRecord, tok: Tokenizer, encoders) -> PreparedExample:
    if rec.is_language_only:
        emb = placeholder_embedding(
            encoders[Modality.IMAGE].config.dim_joint
        )
    else:
        emb = encode(encoders[rec.modality], rec.raw, rec.source_id)
    prompt = tok.encode(render_instruction_prompt(rec))
    target = tok.encode(" " + rec.response) + [EOS]
    return PreparedExample(prompt, target, emb)


# ---------------------------------------------------------------------------
# Stage runner
# ---------------------------------------------------------------------------

def _check_ordering(plan: TrainPlan, checkpoint_in: Checkpoint | None) -> None:
    _, needed = _STAGES[plan.stage]
    if needed is None:
        if checkpoint_in is not None:
            raise PipelineError("pretrain starts from scratch; no input checkpoint allowed")
        return
    if checkpoint_in is None:
        raise PipelineError(f"stage {plan.stage} requires a {needed} checkpoint")
    last = checkpoint_in.provenance[-1].split(":", 1)[0] if checkpoint_in.provenance else ""
    if last != needed:
        raise PipelineError(
            f"stage {plan.stage} requires a {needed} checkpoint, got {last or 'none'!r}"
        )


def run_stage(
    plan: TrainPlan,
    checkpoint_in: Checkpoint | None = None,
    lm_config: LMConfig | None = None,
    bind_config: BindConfig | None = None,
    history: list | None = None,
    counters: dict | None = None,
) -> Checkpoint:
    """Run one training stage and return the resulting checkpoint.

    history, if given, receives one dict per optimizer step with the loss and
    the gate values; counters, if given, collects instrumentation totals.
    A NaN or Inf in a step's logits, loss or new parameters raises
    DivergenceError naming the step.
    """
    _check_ordering(plan, checkpoint_in)
    manifest = DatasetManifest.load(plan.data)
    encoders = manifest.encoders()

    if checkpoint_in is None:
        lmc = lm_config or LMConfig()
        bc = bind_config or BindConfig(dim_joint=manifest.encoder.dim_joint, dim_lm=lmc.dim)
        lm = lm_init(lmc, plan.seed)
        bind = bind_init(bc, plan.seed)
        tok = default_tokenizer()
    else:
        lm, bind, tok = checkpoint_in.to_models()
    if bind.config.dim_joint != manifest.encoder.dim_joint:
        raise PipelineError(
            f"{Path(plan.data) / MANIFEST_NAME}: encoder dim_joint = {manifest.encoder.dim_joint}"
            f" differs from the bind network's dim_joint = {bind.config.dim_joint}")

    # a stage that starts from a checkpoint tunes adapters on instruction records
    tuning = _STAGES[plan.stage][1] is not None
    with binfmt.naming(f"stage {plan.stage}", peft.ConfigurationError, PipelineError):
        if tuning:
            peft.apply_peft(lm, rank=plan.lora_rank, seed=plan.seed)
        names = peft.trainable_param_names(lm, bind, plan.trainable)

    corpus = Path(plan.data) / manifest.corpus_file(plan.stage)
    records = ingest(corpus, "instruction" if tuning else "caption", manifest.encoder.dim_raw)
    if not records:
        raise PipelineError(f"stage {plan.stage}: corpus is empty")
    prepare = prepare_instruction if tuning else prepare_caption
    with binfmt.naming(corpus, ShapeError, IngestError):
        examples = [prepare(r, tok, encoders) for r in records]
    # caption_loss forwards [BOS] + prompt + target less its last token
    for i, (rec, ex) in enumerate(zip(records, examples), start=1):
        n = len(ex.prompt_ids) + len(ex.target_ids)
        if n > lm.config.max_seq:
            which = f"source {rec.source_id!r}" if rec.source_id else f"language-only record {i}"
            raise PipelineError(
                f"{corpus}: sequence length {n} > max_seq {lm.config.max_seq} for {which}")

    # resolved once: each step's new Tensors replace them here and in the models
    params = [peft.resolve_param(lm, bind, n) for n in names]
    if counters is not None:
        counters["trainable_params"] = sum(p.size for p in params)
        counters["placeholder_records"] = sum(e.embedding.is_placeholder() for e in examples)
    # a frozen bind network gives an example the same condition at every step
    conditions = [None] * len(examples)
    if not any(n.startswith("bind.") for n in names):
        with np.errstate(over="ignore", invalid="ignore"):
            conditions = [bind_forward(bind, ex.embedding) for ex in examples]

    rng = derive_rng(plan.seed, "train", plan.stage)
    opt = AdamW(lr=plan.lr)
    steps_per_epoch = (len(examples) + plan.batch_size - 1) // plan.batch_size
    total_steps = steps_per_epoch * plan.epochs
    warmup_steps = plan.warmup_epochs * steps_per_epoch

    step = checkpoint_in.step if checkpoint_in is not None else 0
    local_step = 0
    for _epoch in range(plan.epochs):
        order = rng.permutation(len(examples))
        for b in range(steps_per_epoch):
            batch = order[b * plan.batch_size:(b + 1) * plan.batch_size]
            # an overflow or NaN anywhere in the step reaches the logits, the
            # loss or a new parameter, whose checks raise, so numpy need not
            # warn of it as well
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    with Tape() as tape:
                        total = None
                        for i in batch:
                            ex = examples[i]
                            li = caption_loss(lm, bind, ex.embedding, ex.prompt_ids,
                                              ex.target_ids, conditions[i])
                            total = li if total is None else add(total, li)
                        loss = scale(total, 1.0 / len(batch))
                    check_finite(loss.array, "loss")
                    grads = tape.grad(loss, params)
                    params = opt.step(names, params, grads,
                                      lr=lr_at(local_step, total_steps, warmup_steps, plan.lr))
            except NonFiniteError as exc:
                raise DivergenceError(step + 1, str(exc)) from exc
            for n, t in zip(names, params):
                peft.set_param(lm, bind, n, t)
            step += 1
            local_step += 1
            if history is not None:
                history.append(
                    {"step": step, "loss": loss.item(), "gates": lm.gate_values()}
                )

    provenance = list(checkpoint_in.provenance) if checkpoint_in is not None else []
    provenance.append(f"{plan.stage}:seed={plan.seed}:steps={local_step}")
    return Checkpoint.from_models(
        lm, bind, tok,
        encoder_config=manifest.encoder,
        rng_state=rng.bit_generator.state,
        step=step,
        provenance=provenance,
    )
