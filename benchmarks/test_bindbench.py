"""The benchmark's own tests: tiny-size smoke runs and planted-fault checks.

Run with ``PYTHONPATH=src python -m pytest benchmarks -q`` from the repo root.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bindbench import checks, harness, hostspeed
from bindbench.harness import END_TO_END, run_workload
from bindbench.workloads import (
    Generate,
    GenerateSizes,
    Instruct,
    Pretrain,
    Retrieve,
    RetrieveSizes,
    TrainSizes,
    WORKLOADS,
)
from bindlm.lm import LMConfig

TINY_LM = LMConfig(vocab_size=512, dim=16, layers=1, heads=2, max_seq=64, ffn_hidden=32)
TINY_TRAIN = TrainSizes(caption_pairs=3, caption_variants=1, instruct_pairs=2,
                        instruct_variants=1, language_records=1, warm_start_pairs=2, lm=TINY_LM)
TINY_GENERATE = GenerateSizes(yesno_per_modality=1, language_only=1, captions_per_modality=1,
                              max_new_tokens=3, cache_objects=4, lm=TINY_LM)
TINY_RETRIEVE = RetrieveSizes(objects=16, variants=4, queries=16, mix_every=4, k=4)

# the workloads and metrics BENCHMARK.json declares
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    # tiny set-ups take milliseconds; the minimum repeat count still applies
    monkeypatch.setattr(harness, "SETUP_MIN_SECONDS", 0.0)


def tiny(name: str):
    return {
        "pretrain": lambda: Pretrain(TINY_TRAIN),
        "instruct": lambda: Instruct(TINY_TRAIN),
        "generate": lambda: Generate(TINY_GENERATE),
        "retrieve": lambda: Retrieve(TINY_RETRIEVE),
    }[name]()


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    result, facts = run_workload(name, 3, 0.01, trace, tmp_path, workload=tiny(name))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(got[m["name"]]["value"])
    if trace:
        assert got["trace.coverage_pct"]["value"] >= 90.0
        assert (tmp_path / facts["spans"]).stat().st_size > 0
    else:
        assert all(got[m]["value"] > 0 for m in END_TO_END)
    assert facts["machine"]["thread_env"] is not None
    assert not (tmp_path / ".bench_work").exists() or not any((tmp_path / ".bench_work").iterdir())


def _state(workload, tmp_path, seed=5):
    inputs = workload.make_inputs(seed, tmp_path / "inputs")
    setup_dir = tmp_path / "setup"
    setup_dir.mkdir(parents=True)
    return workload.setup(inputs, setup_dir)


def test_nonfinite_loss_counts_as_failure(tmp_path):
    wl = Pretrain(TINY_TRAIN)
    state = _state(wl, tmp_path)
    op = wl.run(state, 0, None)
    assert wl.check(state, 0, op) == 0
    history = op.output[0]
    history[1]["loss"] = float("nan")
    fresh = _state(wl, tmp_path / "again")
    assert wl.check(fresh, 0, op) == 1
    assert checks.nonfinite_losses([1.0, float("inf"), float("nan")]) == 2


def test_round_that_differs_from_the_first_counts_as_failure(tmp_path):
    wl = Instruct(TINY_TRAIN)
    state = _state(wl, tmp_path)
    first = wl.run(state, 0, None)
    assert wl.check(state, 0, first) == 0
    second = wl.run(state, 1, None)
    second.output[0][0]["loss"] += 1e-12
    assert wl.check(state, 1, second) == 1


def test_flipped_greedy_token_counts_as_failure(tmp_path):
    wl = Generate(replace(TINY_GENERATE, max_new_tokens=4))
    state = _state(wl, tmp_path)
    idx = next(i for i, r in enumerate(state.requests) if r.kind == "caption")
    op = wl.run(state, idx, None)
    prompt, tokens, text = op.output
    assert wl.check(state, idx, op) == 0
    flipped = list(tokens)
    flipped[0] = (flipped[0] + 1) % 300
    op.output = (prompt, flipped, state.tok.decode(flipped))
    state.verified.clear()
    assert wl.check(state, idx, op) == 1


def test_wrong_yesno_token_counts_as_failure(tmp_path):
    wl = Generate(TINY_GENERATE)
    state = _state(wl, tmp_path)
    idx = next(i for i, r in enumerate(state.requests) if r.kind == "yesno")
    op = wl.run(state, idx, None)
    assert wl.check(state, idx, op) == 0
    op.output = dict(op.output, first_token=(op.output["first_token"] + 1) % 300)
    state.verified.clear()
    assert wl.check(state, idx, op) == 1


@pytest.mark.parametrize("mode", [0, 1], ids=["exact", "partitioned"])
def test_swapped_topk_index_counts_as_failure(mode, tmp_path):
    wl = Retrieve(TINY_RETRIEVE)
    state = _state(wl, tmp_path)
    op = wl.run(state, 0, None)
    assert wl.check(state, 0, op) == 0
    emb, result = op.output[1][mode]
    result.indices[0], result.indices[1] = result.indices[1], result.indices[0]
    state.verified.clear()
    assert wl.check(state, 0, op) == 1


def test_enhanced_vector_off_by_more_than_tolerance_fails(tmp_path):
    wl = Retrieve(TINY_RETRIEVE)
    state = _state(wl, tmp_path)
    op = wl.run(state, 0, None)
    emb, result = op.output[1][0]
    q = emb.vector.array.reshape(-1)
    sims = result.similarities.array.reshape(-1)
    store = state.store
    args = (store.keys, store.values, q, TINY_RETRIEVE.k, TINY_RETRIEVE.alpha, result.indices, sims)
    assert checks.exact_query_failures(*args, result.enhanced.array) == 0
    assert checks.exact_query_failures(*args, result.enhanced.array + 1e-9) == 1


def test_topk_oracle_breaks_ties_by_lower_index():
    keys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.6, 0.8]])
    order, _ = checks.topk_oracle(keys, np.array([1.0, 0.0]), 3)
    assert order.tolist() == [0, 2, 3]


def test_run_fails_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    bench = tmp_path / here.name
    shutil.copytree(here, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "pretrain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rescaling_uses_the_nearest_probes():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S[hostspeed.compute]
    speed.ends = [float(t) for t in range(10)]
    speed.probes = [ref] * 5 + [2 * ref] * 5  # the host halves its speed at t = 5
    assert speed.scale(1.0, 0.3) == pytest.approx(0.3)
    assert speed.scale(9.5, 0.3) == pytest.approx(0.15)
    assert speed.speed() == pytest.approx(2 / 3)
    speed.probe()
    assert len(speed.ends) == 11 and speed.probes[-1] > 0
