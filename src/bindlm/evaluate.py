"""Evaluation suites: perplexity and the yes/no first-token protocol.

Yes/no accuracy is the fraction of records whose first greedily generated
token equals the first token of the reference answer, under the exact prompt
template used in training. Conditions can optionally be cache-enhanced
before the bind network, which is the paired comparison the cross-modal
suite exists for.
"""

from __future__ import annotations

import math

from . import binfmt
from .bind import BindNetwork
from .cache import DEFAULT_ALPHA, DEFAULT_TOP_K, CacheStore, enhance
from .data import InstructionRecord
from .lm import GenerationParams, InjectedLM, caption_loss, generate
from .tensor import EmptyBatchError
from .tokenizer import Tokenizer
from .train import prepare_caption, prepare_instruction


def perplexity_eval(lm: InjectedLM, bind: BindNetwork, tok: Tokenizer,
                    encoders, records: list) -> dict:
    """exp(mean NLL) pooled over every target position of the caption records."""
    if not records:
        raise EmptyBatchError("no records to evaluate")
    total_nll = 0.0
    total_tokens = 0
    for rec in records:
        ex = prepare_caption(rec, tok, encoders)
        loss = caption_loss(lm, bind, ex.embedding, ex.prompt_ids, ex.target_ids)
        total_nll += loss.item() * len(ex.target_ids)
        total_tokens += len(ex.target_ids)
    mean_nll = total_nll / total_tokens
    return {
        "suite": "perplexity",
        "n": len(records),
        "token_count": total_tokens,
        "mean_nll": mean_nll,
        "perplexity": math.exp(mean_nll),
    }


def yesno_eval(lm: InjectedLM, bind: BindNetwork, tok: Tokenizer, encoders,
               records: list[InstructionRecord], cache: CacheStore | None = None,
               k: int = DEFAULT_TOP_K, alpha: float = DEFAULT_ALPHA,
               raw_eq4: bool = False) -> dict:
    if not records:
        raise EmptyBatchError("no records to evaluate")
    items = []
    correct = 0
    for rec in records:
        ex = prepare_instruction(rec, tok, encoders)
        condition_src = ex.embedding
        if cache is not None and not ex.embedding.is_placeholder():
            condition_src = enhance(cache, ex.embedding, k=k, alpha=alpha, raw_eq4=raw_eq4).enhanced
        out = generate(lm, bind, condition_src, ex.prompt_ids, GenerationParams(max_new_tokens=1))
        ok = out[0] == ex.target_ids[0]
        correct += ok
        items.append(
            {
                "source_id": rec.source_id,
                "expected": rec.response,
                "first_token": out[0],
                "answer": tok.decode(out).strip(),
                "ok": ok,
            }
        )
    report = {
        "suite": "yesno",
        "n": len(records),
        "correct": correct,
        "accuracy": correct / len(records),
        "cache": None if cache is None else {"k": k, "alpha": alpha, "raw_eq4": raw_eq4},
        "items": items,
    }
    return report


def write_report(report: dict, path) -> None:
    binfmt.write_json(path, report, indent=1)
