"""Straight-line numpy re-implementations used as independent test oracles.

Nothing here calls into bindlm's op layer; every formula is written out
directly so the oracles cannot share bugs with the code under test. There
are three exceptions. unpruned_grad replays a tape's own recorded backward
closures: it is the reference for how Tape.grad chooses what to replay, not
for the closures' arithmetic, which grad_check covers. lora_forward_oracle
is the chain of tensor primitives that peft.lora_forward fuses into one
node: it is the reference for the fused node's bits, forward and backward.
tape_free_forward_oracle is the decoder as tensor primitives with folded
adapters: it is the reference for the bits of lm_forward's tape-free path,
which runs the primitives' kernels on plain arrays; the kernels' own
arithmetic is held to the einsum and textbook oracles here.
taped_stage_oracle is an adapter stage as run_stage ran it before it
computed a frozen bind network's conditions once per example: every step
records the bind network under its Tape. It is the reference for the bits
of that precomputed path, not for the arithmetic of training.
"""

import hashlib
import math
from pathlib import Path

import numpy as np

from bindlm.data import DatasetManifest, ingest
from bindlm.lm import caption_loss
from bindlm.peft import apply_peft, merge, resolve_param, set_param, trainable_param_names
from bindlm.tensor import (Tape, add, causal_attention, concat_rows, derive_rng, embedding,
                           matmul, mul, rmsnorm, rope, scale, silu, transpose)
from bindlm.train import AdamW, lr_at, prepare_instruction


def philox_stream(seed: int, *labels: str) -> np.random.Generator:
    """The Philox generator of (seed, labels): the seed and an 8-byte blake2b
    digest of each label, little-endian, as SeedSequence entropy."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF]
    entropy += [int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "little")
                for label in labels]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def bind_init_oracle(seed: int, dim_joint: int, dim_lm: int, dim_hidden: int) -> dict:
    """The bind network's initial parameters, drawn one by one: w0 from stream
    ("bind", "w0") at bound 1/sqrt(dim_joint); in each of the three blocks, w1
    then w2 from ("bind", "block{i}") at 1/sqrt(dim_lm), w3 zero, norm gain one."""
    rng = philox_stream(seed, "bind", "w0")
    bound = 1.0 / np.sqrt(dim_joint)
    params = {"w0": rng.uniform(-bound, bound, size=(dim_joint, dim_lm))}
    for i in range(3):
        rng = philox_stream(seed, "bind", f"block{i}")
        bound = 1.0 / np.sqrt(dim_lm)
        params[f"blocks.{i}.w1"] = rng.uniform(-bound, bound, size=(dim_lm, dim_hidden))
        params[f"blocks.{i}.w2"] = rng.uniform(-bound, bound, size=(dim_lm, dim_hidden))
        params[f"blocks.{i}.w3"] = np.zeros((dim_hidden, dim_lm))
        params[f"blocks.{i}.norm_gain"] = np.ones((1, dim_lm))
    return params


def bind_oracle(params: dict, f: np.ndarray) -> np.ndarray:
    """f: [1, C_I] -> [1, C] through w0 then three pre-norm gated blocks."""
    x = f @ params["w0"]
    for i in range(3):
        ms = (x * x).mean()
        h = x / np.sqrt(ms + 1e-6) * params[f"blocks.{i}.norm_gain"]
        a = h @ params[f"blocks.{i}.w1"]
        gate = a * (1.0 / (1.0 + np.exp(-a)))
        x = x + ((h @ params[f"blocks.{i}.w2"]) * gate) @ params[f"blocks.{i}.w3"]
    return x


def lm_oracle(params: dict, tokens, condition, n_layers: int, n_heads: int) -> np.ndarray:
    """Plain-numpy injected decoder forward (learned positions); [N, V] logits.

    condition is a [1, C] array or None; gates are params["gates.{l}"] scalars.
    """
    n = len(tokens)
    x = params["tok_emb"][np.asarray(tokens)] + params["pos_emb"][:n]
    c = x.shape[1]
    hd = c // n_heads

    def rms(v, gain):
        ms = (v * v).mean(axis=1, keepdims=True)
        return v / np.sqrt(ms + 1e-6) * gain

    for layer in range(n_layers):
        if condition is not None:
            x = x + condition * params[f"gates.{layer}"][0, 0]
        h = rms(x, params[f"layers.{layer}.attn_norm"])
        q = h @ params[f"layers.{layer}.wq"]
        k = h @ params[f"layers.{layer}.wk"]
        v = h @ params[f"layers.{layer}.wv"]
        outs = []
        for hh in range(n_heads):
            qs = q[:, hh * hd:(hh + 1) * hd]
            ks = k[:, hh * hd:(hh + 1) * hd]
            vs = v[:, hh * hd:(hh + 1) * hd]
            scores = qs @ ks.T / np.sqrt(hd)
            scores = scores + np.triu(np.full((n, n), -1e30), k=1)
            scores = scores - scores.max(axis=1, keepdims=True)
            e = np.exp(scores)
            p = e / e.sum(axis=1, keepdims=True)
            outs.append(p @ vs)
        att = np.concatenate(outs, axis=1) @ params[f"layers.{layer}.wo"]
        x = x + att
        h2 = rms(x, params[f"layers.{layer}.ffn_norm"])
        g = h2 @ params[f"layers.{layer}.w_gate"]
        up = h2 @ params[f"layers.{layer}.w_up"]
        swish = g * (1.0 / (1.0 + np.exp(-g)))
        x = x + (swish * up) @ params[f"layers.{layer}.w_down"]
    x = rms(x, params["final_norm"])
    return x @ params["head"]


def tape_free_forward_oracle(lm, tokens, condition=None, past=None):
    """Logits [N, V] and each layer's keys and values, all Tensors, for tokens
    that follow the positions in past, one tensor primitive per step and every
    adapter folded by peft.merge. past is the (keys, values) an earlier call
    returned, or None to start at position 0."""
    cfg, params = lm.config, lm.params
    start = 0 if past is None else past[0][0].shape[0]
    n = len(tokens)

    def linear(name, x):
        if name not in lm.adapters:
            return matmul(x, params[name])
        folded = merge(params[name], params[name + ".lora_a"], params[name + ".lora_b"],
                       lm.adapters[name].scaling)
        return add(matmul(x, folded), params[name + ".bias"])

    x = embedding(params["tok_emb"], tokens)
    if cfg.positions == "learned":
        x = add(x, embedding(params["pos_emb"], range(start, start + n)))
    keys, values = [], []
    for l in range(cfg.layers):
        if condition is not None:
            x = add(x, mul(params["gates.shared" if cfg.shared_gate else f"gates.{l}"], condition))
        h = rmsnorm(x, params[f"layers.{l}.attn_norm"])
        q, k, v = (linear(f"layers.{l}.{w}", h) for w in ("wq", "wk", "wv"))
        if cfg.positions == "rope":
            cos, sin = lm._rope_cos[start:start + n], lm._rope_sin[start:start + n]
            q, k = rope(q, cos, sin, cfg.heads), rope(k, cos, sin, cfg.heads)
        if past is not None:
            k, v = concat_rows(past[0][l], k), concat_rows(past[1][l], v)
        keys.append(k)
        values.append(v)
        x = add(x, linear(f"layers.{l}.wo", causal_attention(q, k, v, cfg.heads)))
        h2 = rmsnorm(x, params[f"layers.{l}.ffn_norm"])
        gated = mul(silu(linear(f"layers.{l}.w_gate", h2)), linear(f"layers.{l}.w_up", h2))
        x = add(x, linear(f"layers.{l}.w_down", gated))
    return matmul(rmsnorm(x, params["final_norm"]), params["head"]), keys, values


def taped_stage_oracle(plan, checkpoint_in) -> tuple[dict, list[float]]:
    """The trained arrays of plan's trainable names and each step's loss, for
    an adapter stage with one example a step: each step's loss is
    caption_loss of the example's embedding under the step's Tape, so the
    bind network runs and is recorded at every step, then AdamW steps with
    lr_at's rate."""
    assert plan.batch_size == 1
    manifest = DatasetManifest.load(plan.data)
    encoders = manifest.encoders()
    lm, bind, tok = checkpoint_in.to_models()
    apply_peft(lm, rank=plan.lora_rank, seed=plan.seed)
    names = trainable_param_names(lm, bind, plan.trainable)
    records = ingest(Path(plan.data) / manifest.corpus_file(plan.stage), "instruction",
                     manifest.encoder.dim_raw)
    examples = [prepare_instruction(r, tok, encoders) for r in records]
    rng = derive_rng(plan.seed, "train", plan.stage)
    opt = AdamW(lr=plan.lr)
    total, warmup = len(examples) * plan.epochs, len(examples) * plan.warmup_epochs
    losses: list[float] = []
    for _ in range(plan.epochs):
        for i in rng.permutation(len(examples)):
            ex = examples[i]
            with Tape() as tape:
                loss = scale(caption_loss(lm, bind, ex.embedding, ex.prompt_ids, ex.target_ids),
                             1.0)
            params = [resolve_param(lm, bind, n) for n in names]
            new = opt.step(names, params, tape.grad(loss, params),
                           lr=lr_at(len(losses), total, warmup, plan.lr))
            for name, t in zip(names, new):
                set_param(lm, bind, name, t)
            losses.append(loss.item())
    return {n: resolve_param(lm, bind, n).array for n in names}, losses


def einsum_matmul(a, b, g):
    """C = A.B and, for an output gradient g, dA = g.B^T and dB = A^T.g.

    Each is an einsum with optimize=False: a plain loop with the summed
    index innermost that never reaches BLAS.
    """
    return (np.einsum("mk,kn->mn", a, b, optimize=False),
            np.einsum("mn,kn->mk", g, b, optimize=False),
            np.einsum("mk,mn->kn", a, g, optimize=False))


def attention_oracle(q, k, v, n_heads: int, g):
    """Causal attention output and dq, dk, dv for an output gradient g.

    One head at a time on column slices, einsum contractions only; the M
    query rows are the last M of the N key rows.
    """
    m, c = q.shape
    n = k.shape[0]
    hd = c // n_heads
    sc = 1.0 / np.sqrt(hd)
    mask = np.triu(np.full((m, n), -1e30), k=1 + n - m)
    out, dq, dk, dv = (np.zeros(x.shape) for x in (q, q, k, k))
    for h in range(n_heads):
        cols = slice(h * hd, (h + 1) * hd)
        qs, ks, vs, gs = q[:, cols], k[:, cols], v[:, cols], g[:, cols]
        s = np.einsum("id,jd->ij", qs, ks, optimize=False) * sc + mask
        e = np.exp(s - s.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        out[:, cols] = np.einsum("ij,jd->id", p, vs, optimize=False)
        dv[:, cols] = np.einsum("ij,id->jd", p, gs, optimize=False)
        dp = np.einsum("id,jd->ij", gs, vs, optimize=False)
        ds = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        dq[:, cols] = np.einsum("ij,jd->id", ds, ks, optimize=False) * sc
        dk[:, cols] = np.einsum("ij,id->jd", ds, qs, optimize=False) * sc
    return out, dq, dk, dv


def unpruned_grad(tape, loss, params) -> list[np.ndarray]:
    """Reverse-mode gradients from replaying every recorded node in full.

    Every node whose output has a gradient runs its backward with every
    input marked as needed, whether or not a requested param depends on it.
    """
    grads = {id(loss): np.ones_like(loss.array)}
    for node in reversed(tape._nodes):
        g_out = grads.pop(node.out_id, None)
        if g_out is None:
            continue
        need = (True,) * len(node.inputs)
        for t_in, g_in in zip(node.inputs, node.backward(g_out, need)):
            key = id(t_in)
            grads[key] = grads[key] + g_in if key in grads else g_in
    return [grads.get(id(p), np.zeros_like(p.array)) for p in params]


def lora_forward_oracle(x, w, a, b, bias, scaling):
    """x @ W + s * (x @ A^T) @ B^T + bias as eight recorded primitives:
    three matmuls, two transposes, a scale and two adds."""
    y = matmul(x, w)
    delta = matmul(matmul(x, transpose(a)), transpose(b))
    return add(add(y, scale(delta, scaling)), bias)


def adamw_oracle(params, grad_steps, lrs, lr_mults, decays,
                 b1=0.9, b2=0.95, eps=1e-8) -> list[list[np.ndarray]]:
    """Out-of-place AdamW with decoupled decay, per step, in Kingma and Ba's
    folded form (arXiv 1412.6980, section 2): the bias corrections go into the
    step's lr and epsilon, lr_t = lr * sqrt(1 - b2^t) / (1 - b1^t) and
    eps_t = eps * sqrt(1 - b2^t), with the scalar and elementwise operations
    in bindlm.train's order, so the optimizer must give these bits exactly.

    params: starting arrays; grad_steps[t][i] and lrs[t]: the gradient of
    param i and the learning rate at step t; lr_mults[i], decays[i]: the
    per-param learning-rate multiplier and weight decay. Returns the params
    after each step.
    """
    ps = [np.array(p, dtype=np.float64) for p in params]
    ms = [None] * len(ps)
    vs = [None] * len(ps)
    history = []
    for t, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        root = math.sqrt(1.0 - b2 ** t)
        lr_t = lr * root / (1.0 - b1 ** t)
        eps_t = eps * root
        for i, g in enumerate(grads):
            ms[i] = (1.0 - b1) * g if ms[i] is None else b1 * ms[i] + (1.0 - b1) * g
            vs[i] = (1.0 - b2) * g * g if vs[i] is None else b2 * vs[i] + (1.0 - b2) * g * g
            step = -(lr_t * lr_mults[i]) * (ms[i] / (np.sqrt(vs[i]) + eps_t))
            ps[i] = step + ps[i] * (1.0 - lr * lr_mults[i] * decays[i])
        history.append([p.copy() for p in ps])
    return history


def adamw_textbook_oracle(params, grad_steps, lrs, lr_mults, decays,
                          b1=0.9, b2=0.95, eps=1e-8) -> list[list[np.ndarray]]:
    """adamw_oracle's steps written as the AdamW paper (arXiv 1711.05101)
    writes them: bias-corrected moments, eps added to sqrt(v_hat), then the
    decoupled decay. Equal to the folded form in exact arithmetic, so the two
    agree to rounding, not bit for bit."""
    ps = [np.array(p, dtype=np.float64) for p in params]
    ms = [None] * len(ps)
    vs = [None] * len(ps)
    history = []
    for t, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for i, g in enumerate(grads):
            ms[i] = (1.0 - b1) * g if ms[i] is None else b1 * ms[i] + (1.0 - b1) * g
            vs[i] = (1.0 - b2) * g * g if vs[i] is None else b2 * vs[i] + (1.0 - b2) * g * g
            eff = lr * lr_mults[i]
            update = (ms[i] / bc1) / (np.sqrt(vs[i] / bc2) + eps)
            ps[i] = ps[i] - eff * update - eff * decays[i] * ps[i]
        history.append([p.copy() for p in ps])
    return history


def sigmoid_oracle(x: np.ndarray) -> np.ndarray:
    """Sign-split logistic: 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x))
    elsewhere, each branch on its own boolean gather. The kernel in
    bindlm.tensor must give these bits exactly."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rmsnorm_oracle(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Row-wise x / sqrt(mean(x^2) + eps) * gain, with the mean taken by
    ndarray.mean and the operations in bindlm.tensor.rmsnorm's order, so the
    kernel must give these bits exactly."""
    inv = 1.0 / np.sqrt((x * x).mean(axis=1, keepdims=True) + eps)
    return (x * inv) * gain


def kmeans_oracle(keys: np.ndarray, nlist: int, seed: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The rows of each inverted list, ascending, and the final centroids, each
    scaled to unit norm: the assignment of the last of six spherical k-means
    rounds from nlist distinct rows drawn by Philox(seed), each round an argmax
    over keys @ centroids.T, then each non-empty list's normalized mean (a zero
    mean keeps the old centroid)."""
    rng = np.random.Generator(np.random.Philox(seed))
    centroids = keys[rng.choice(len(keys), size=nlist, replace=False)].copy()
    for _ in range(6):
        assign = (keys @ centroids.T).argmax(axis=1)
        for l in range(nlist):
            members = keys[assign == l]
            if len(members):
                c = members.mean(axis=0)
                norm = np.sqrt((c * c).sum())
                if norm > 0:
                    centroids[l] = c / norm
    lists = [np.nonzero(assign == l)[0] for l in range(nlist)]
    return lists, centroids / np.sqrt((centroids * centroids).sum(axis=1, keepdims=True))


def probe_oracle(keys: np.ndarray, q: np.ndarray, k: int, nlist: int, nprobe: int,
                 seed: int) -> tuple[int, int, np.ndarray]:
    """The lists the partitioned probe visits, one at a time: (lists visited,
    rows scanned, the candidate rows). First the lists in descending
    centroid @ q order (stable), until they hold k rows and nprobe of them are
    non-empty; t is the k-th best similarity among their rows. Then the other
    non-empty lists in descending bound order, while the bound is at or above
    t. A list's bound on q . x over its members x is
    |q| (cos(max(0, arccos(cq + e) - arccos(cm - e))) + 1e-6 + e), where cq is
    the cosine of q and the centroid, cm the smallest member-centroid cosine,
    e = (dim + 10) float64 epsilons, cosines are clipped to [-1, 1], and the
    bound is 0 for a zero q."""
    lists, centroids = kmeans_oracle(keys, nlist, seed)
    e = (len(q) + 10) * np.finfo(np.float64).eps
    qn = math.sqrt(float(q @ q))
    visited, rows, nonempty = [], 0, 0
    for l in np.argsort(-(centroids @ q), kind="stable"):
        if rows >= k and nonempty >= nprobe:
            break
        visited.append(l)
        rows += len(lists[l])
        nonempty += len(lists[l]) > 0
    candidates = np.concatenate([lists[l] for l in visited])
    t = np.sort(keys[candidates] @ q)[-k]
    bounds = []
    for l in set(range(nlist)) - set(visited):
        members = keys[lists[l]]
        if not len(members):
            continue
        if qn == 0.0:
            bounds.append((0.0, l))
            continue
        cm = min(float(x @ centroids[l]) / math.sqrt(float(x @ x)) for x in members)
        cq = float(centroids[l] @ q) / qn
        gap = math.acos(min(1.0, cq + e)) - math.acos(max(-1.0, cm - e))
        bounds.append((qn * (math.cos(max(0.0, gap)) + 1e-6 + e), l))
    for bound, l in sorted(bounds, reverse=True):
        if bound < t:
            break
        visited.append(l)
        candidates = np.concatenate((candidates, lists[l]))
    return len(visited), len(candidates), candidates


def topk_oracle(keys: np.ndarray, q: np.ndarray, k: int,
                candidates: np.ndarray | None = None) -> tuple[list[int], np.ndarray]:
    """The cache's top-k as a full sort: a stable argsort of the negated scan,
    which keeps the lower row index first among equals. The scan is keys @ q,
    or the candidate rows gathered in ascending index order; similarities are
    clamped to [-1, 1]."""
    rows = None if candidates is None else np.sort(candidates)
    sims = keys @ q if rows is None else keys[rows] @ q
    order = np.argsort(-sims, kind="stable")[:k]
    picked = order if rows is None else rows[order]
    return picked.tolist(), np.clip(sims[order], -1.0, 1.0)


def rule_topk_oracle(keys: np.ndarray, q: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
    """The cache's top-k by its per-row rule, one row at a time: each row's
    (keys[i] * q).sum(), then a stable argsort of the negated scores, which
    keeps the lower row index first among equals; similarities are clamped to
    [-1, 1]."""
    sims = np.array([(keys[i] * q).sum() for i in range(len(keys))])
    order = np.argsort(-sims, kind="stable")[:k]
    return order.tolist(), np.clip(sims[order], -1.0, 1.0)
