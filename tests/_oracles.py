"""Straight-line numpy re-implementations used as independent test oracles.

Nothing here calls into bindlm's op layer; every formula is written out
directly so the oracles cannot share bugs with the code under test. The one
exception is unpruned_grad, which replays a tape's own recorded backward
closures: it is the reference for how Tape.grad chooses what to replay, not
for the closures' arithmetic, which grad_check covers.
"""

import numpy as np


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


def adamw_oracle(params, grad_steps, lrs, lr_mults, decays,
                 b1=0.9, b2=0.95, eps=1e-8) -> list[list[np.ndarray]]:
    """Out-of-place bias-corrected AdamW with decoupled decay, per step.

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
