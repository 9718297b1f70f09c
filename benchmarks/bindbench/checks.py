"""Output checks, each an independent oracle that returns a failure count.

They run outside the timed region. Every function here is written against
plain numpy or bindlm's public entry points, never against the code path it
judges, so a fast path added later is still checked by the same oracle.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from bindlm.checkpoint import load_checkpoint, save_checkpoint

ENHANCE_TOL = 1e-10
SIM_TOL = 1e-12


def nonfinite_losses(losses) -> int:
    """Steps whose recorded loss is NaN or infinite."""
    return sum(not math.isfinite(x) for x in losses)


def checkpoint_roundtrip_failures(ckpt, workdir: Path) -> tuple[int, int]:
    """(failures, file size): 1 failure unless save -> load -> save
    reproduces the file byte for byte."""
    first, second = workdir / "roundtrip_a.bnk", workdir / "roundtrip_b.bnk"
    save_checkpoint(ckpt, first)
    save_checkpoint(load_checkpoint(first), second)
    raw = first.read_bytes()
    same = raw == second.read_bytes()
    first.unlink()
    second.unlink()
    return (0 if same else 1), len(raw)


def greedy_failures(logits: np.ndarray, first_pos: int, tokens) -> int:
    """Generated tokens that differ from the argmax of a full forward.

    logits are the [N, V] rows of one forward over the whole final sequence;
    row first_pos + j predicts generated token j.
    """
    return sum(int(np.argmax(logits[first_pos + j])) != int(t) for j, t in enumerate(tokens))


def topk_oracle(keys: np.ndarray, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive scan: descending similarity, the lower row index wins ties."""
    sims = keys @ q
    # every row tied with the k-th largest similarity stays a candidate
    cand = np.nonzero(sims >= np.partition(sims, -k)[-k])[0]
    order = cand[np.lexsort((cand, -sims[cand]))][:k]
    return order, sims


def blend(values: np.ndarray, q: np.ndarray, indices, sims: np.ndarray, alpha: float) -> np.ndarray:
    """The enhancement formula written out: clamp, normalize, mix with the query."""
    w = np.maximum(np.asarray(sims, dtype=np.float64), 0.0)
    w = np.full(len(w), 1.0 / len(w)) if w.sum() == 0.0 else w / w.sum()
    return alpha * (w @ values[np.asarray(indices)]) + (1.0 - alpha) * q


def exact_query_failures(keys, values, q, k, alpha, indices, sims, enhanced) -> int:
    """1 if an exact top-k result or its enhanced vector disagrees with the oracle."""
    order, all_sims = topk_oracle(keys, q, k)
    if list(indices) != order.tolist():
        return 1
    return _result_failures(values, q, alpha, indices, sims, enhanced, all_sims)


def approximate_query_failures(keys, values, q, k, alpha, indices, sims, enhanced) -> int:
    """1 if a partitioned result is malformed: wrong size, repeats, bad order,
    similarities that are not the true ones, or a wrong enhanced vector."""
    idx = np.asarray(indices)
    if len(idx) != k or len(set(idx.tolist())) != k or idx.min() < 0 or idx.max() >= len(keys):
        return 1
    return _result_failures(values, q, alpha, indices, sims, enhanced, keys @ q)


def _result_failures(values, q, alpha, indices, sims, enhanced, all_sims) -> int:
    sims = np.asarray(sims, dtype=np.float64).reshape(-1)
    true = np.clip(all_sims[np.asarray(indices)], -1.0, 1.0)
    if np.abs(sims - true).max() > SIM_TOL or np.any(np.diff(true) > SIM_TOL):
        return 1
    expected = blend(values, q, indices, true, alpha)
    return 0 if np.abs(np.asarray(enhanced).reshape(-1) - expected).max() <= ENHANCE_TOL else 1


def recall(found, truth) -> float:
    return len(set(found) & set(truth)) / len(truth)
