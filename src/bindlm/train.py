"""Training plans, the optimizer, and the staged training loop.

Three passes: "pretrain" teaches caption generation conditioned on image
embeddings (the toy LM trains jointly here since there is no pretrained
checkpoint to start from), "instruct" tunes instruction following with LoRA
plus bias-norm updates on a mixture of visual and language-only records, and
"hq_instruct" is an optional extra pass of the same shape on a small
high-quality description set.

The optimizer keeps bias-corrected first/second moments per parameter with
betas (0.9, 0.95); weight decay is 0.01 on dense weights and 0 on gates,
norm gains and biases. The learning rate ramps linearly over the warmup
epochs, then follows a cosine down to 10% of the peak. Gates get a fixed
learning-rate multiplier: they are a handful of scalars that start at zero
and everything conditioned has to wait for them, so at desk scale they move
faster than the bulk parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import binfmt, peft
from .bind import BindConfig, bind_init
from .checkpoint import Checkpoint
from .data import (
    CAPTION_INSTRUCTION,
    MANIFEST_NAME,
    CaptionRecord,
    DatasetManifest,
    InstructionRecord,
    ingest,
)
from .encoders import Modality, encode, placeholder_embedding
from .lm import LMConfig, caption_loss, lm_init, prompt_template, yesno_prompt
from .tensor import NonFiniteError, Tape, Tensor, add, check_finite, derive_rng, scale
from .tokenizer import EOS, Tokenizer, default_tokenizer


class PipelineError(ValueError):
    """Stage ordering or plan validation failure."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str):
        super().__init__(f"divergence at step {step}: {message}")
        self.step = step


STAGES = ("pretrain", "instruct", "hq_instruct")

_STAGE_DEFAULTS = {
    "pretrain": dict(epochs=3, batch_size=1, lr=4e-4, warmup_epochs=0),
    "instruct": dict(epochs=4, batch_size=1, lr=2e-3, warmup_epochs=1),
    "hq_instruct": dict(epochs=2, batch_size=1, lr=2e-3, warmup_epochs=1),
}


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
        for key in ("epochs", "batch_size", "warmup_epochs", "seed", "lora_rank"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PipelineError(f"{key} must be an integer, got {value!r}")
        if (isinstance(self.lr, bool) or not isinstance(self.lr, (int, float))
                or not 0 < self.lr < math.inf):
            raise PipelineError(f"lr must be a finite number > 0, got {self.lr!r}")
        if self.epochs < 1:
            raise PipelineError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise PipelineError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.warmup_epochs < 0:
            raise PipelineError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if not self.trainable:
            raise PipelineError("trainable names no parameter group")
        try:
            peft.check_groups(self.trainable)
        except peft.ConfigurationError as exc:
            raise PipelineError(f"trainable: {exc}") from None


def default_plan(stage: str, data: str, seed: int = 0, **overrides) -> TrainPlan:
    if stage not in STAGES:
        raise PipelineError(f"unknown stage {stage!r}")
    values = dict(_STAGE_DEFAULTS[stage])
    values.update(overrides)
    values.setdefault("trainable", peft.STAGE_TRAINABLE[stage])
    return TrainPlan(stage=stage, data=data, seed=seed, **values)


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
    unknown = sorted(set(values) - PLAN_KEYS)
    if unknown:
        raise PipelineError(f"{path}: unknown plan key {unknown[0]!r};"
                            f" a plan sets {', '.join(sorted(PLAN_KEYS))}")
    seed = values.pop("seed", seed)
    if "trainable" in values:
        values["trainable"] = frozenset(
            g.strip() for g in str(values["trainable"]).split(",") if g.strip()
        )
    try:
        return default_plan(stage, data, seed=seed, **values)
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


GATE_LR_MULT = 25.0
ADAM_BETAS = (0.9, 0.95)
ADAM_EPS = 1e-8
LR_FLOOR_FRAC = 0.1


class AdamW:
    """Bias-corrected adaptive steps with decoupled, group-aware weight decay."""

    def __init__(self, lr: float = 1e-3, weight_decay: float = 0.01,
                 gate_lr_mult: float = GATE_LR_MULT):
        self.lr = lr
        self.weight_decay = weight_decay
        self.gate_lr_mult = gate_lr_mult
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._group: dict[str, tuple[float, float]] = {}

    def _lr_mult_and_decay(self, name: str) -> tuple[float, float]:
        group = peft._classify(name)
        mult = self.gate_lr_mult if group == "gates" else 1.0
        return mult, 0.0 if group in ("gates", "bias_norm") else self.weight_decay

    def step(self, names, params, grads, lr: float | None = None) -> list[Tensor]:
        """New parameter tensors; neither ``params`` nor ``grads`` is written.

        A NaN or Inf in a new parameter, which a non-finite gradient always
        gives through m / sqrt(v), raises NonFiniteError naming it.

        The moments are updated in place, with the float operations of
        m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g in that order.
        """
        lr = self.lr if lr is None else lr
        b1, b2 = ADAM_BETAS
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        out = []
        for name, p, g in zip(names, params, grads):
            if name not in self._group:
                self._group[name] = self._lr_mult_and_decay(name)
            mult, decay = self._group[name]
            m = self._m.get(name)
            if m is None:
                self._m[name] = m = (1.0 - b1) * g
            else:
                m *= b1
                m += (1.0 - b1) * g
            g2 = (1.0 - b2) * g
            g2 *= g
            v = self._v.get(name)
            if v is None:
                self._v[name] = v = g2
            else:
                v *= b2
                v += g2
            eff = lr * mult
            # p - eff * ((m / bc1) / (sqrt(v / bc2) + eps)) - (eff * decay) * p
            new = m / bc1
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            new /= denom
            new *= eff
            np.subtract(p.array, new, out=new)
            new -= np.multiply(p.array, eff * decay, out=denom)
            check_finite(new, name)
            out.append(Tensor(new, _checked=True))
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
    embedding: object  # JointEmbedding or None-like placeholder
    language_only: bool = False


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
    return PreparedExample(prompt, target, emb, language_only=rec.is_language_only)


# ---------------------------------------------------------------------------
# Stage runner
# ---------------------------------------------------------------------------

_REQUIRED_PREDECESSOR = {"instruct": "pretrain", "hq_instruct": "instruct"}


def _check_ordering(plan: TrainPlan, checkpoint_in: Checkpoint | None) -> None:
    needed = _REQUIRED_PREDECESSOR.get(plan.stage)
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

    if plan.stage in ("instruct", "hq_instruct"):
        peft.apply_peft(lm, rank=plan.lora_rank, seed=plan.seed)

    try:
        n_trainable = peft.apply_stage_freeze(lm, bind, plan.trainable)
    except peft.ConfigurationError as exc:
        raise PipelineError(f"stage {plan.stage}: {exc}") from None
    names = peft.trainable_param_names(lm, bind, plan.trainable)

    kind = "caption" if plan.stage == "pretrain" else "instruction"
    records = ingest(Path(plan.data) / manifest.corpus_file(plan.stage), kind)
    if not records:
        raise PipelineError(f"stage {plan.stage}: corpus is empty")
    if kind == "caption":
        examples = [prepare_caption(r, tok, encoders) for r in records]
    else:
        examples = [prepare_instruction(r, tok, encoders) for r in records]

    if counters is not None:
        counters["trainable_params"] = n_trainable
        counters["placeholder_records"] = sum(e.language_only for e in examples)

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
            batch = [examples[i] for i in order[b * plan.batch_size:(b + 1) * plan.batch_size]]
            # an overflow or NaN anywhere in the step reaches the logits, the
            # loss or a new parameter, whose checks raise, so numpy need not
            # warn of it as well
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    with Tape() as tape:
                        total = None
                        for ex in batch:
                            li = caption_loss(lm, bind, ex.embedding, ex.prompt_ids,
                                              ex.target_ids)
                            total = li if total is None else add(total, li)
                        loss = scale(total, 1.0 / len(batch))
                    check_finite(loss.array, "loss")
                    params = [peft.resolve_param(lm, bind, n) for n in names]
                    grads = tape.grad(loss, params)
                    updated = opt.step(names, params, grads,
                                       lr=lr_at(local_step, total_steps, warmup_steps, plan.lr))
            except NonFiniteError as exc:
                raise DivergenceError(step, str(exc)) from exc
            for n, t in zip(names, updated):
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
