"""Run one workload: set up, measure for a time budget, check, report.

The untraced run (``trace=False``) reports the end-to-end metrics, with every
timing rescaled to reference-host seconds by the host speed probed between
operations and between set-ups (see ``hostspeed``); the raw figures go to the
facts line. The traced run alternates blocks of operations untraced and then,
replaying the same operations, with the tracer installed: the ratio of the
two sides is the tracing overhead, and the per-layer metrics come from the
traced side and from traced set-ups.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import hostspeed
from .hostspeed import HostSpeed
from .trace import OP_ROOT, SETUP_ROOT, SpanSummary, Tracer
from . import workloads
from .workloads import WORKLOADS

# Set-up repeats at least this often and until this much time is spent, so
# a 20 ms set-up gets as steady a median as a 1 s one.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 200
SETUP_PROBES = 2  # host speed probes before and after each untraced set-up
COVERAGE_FLOOR_PCT = 90.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> unit; every workload reports every one of them
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "throughput": "items/s",
}

PRIMITIVES = ("matmul", "causal_attention", "rmsnorm", "silu", "add", "mul", "scale",
              "transpose", "embedding", "softmax_cross_entropy")


@dataclass
class Phase:
    """What one measuring loop saw."""

    walls: list = field(default_factory=list)  # raw seconds per operation
    parts: list = field(default_factory=list)  # (end, seconds) of library work
    latencies: list = field(default_factory=list)  # (end, seconds)
    attempted: int = 0
    failed: int = 0
    items: int = 0


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _run_op(workload, state, index: int, phase: Phase, tracer: Tracer | None,
            speed: HostSpeed | None = None) -> None:
    """Run operation ``index``, check it outside the timed region, record it."""
    if tracer is not None:
        tracer.op_id = phase.attempted
        root = tracer.open(OP_ROOT)
    t0 = time.perf_counter()
    try:
        op = workload.run(state, index, tracer, speed)
    except Exception:  # the loop must go on; the operation counts as failed
        traceback.print_exc(file=sys.stderr)
        op = None
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.op_id = -1
    if op is None:
        end = time.perf_counter()
        phase.walls.append(end - t0)
        phase.parts.append((end, end - t0))
        phase.attempted += 1
        phase.failed += 1
    else:
        phase.failed += workload.check(state, index, op)
        phase.walls.append(op.wall)
        phase.parts += op.parts
        phase.latencies += op.latencies
        phase.attempted += op.attempted
        phase.items += op.items
    if workload.cycle(state) == 1:
        gc.collect()  # between whole training rounds, outside the timed region
    if speed is not None:
        speed.maybe_probe()


def _measure(workload, state, seconds: float, speed: HostSpeed) -> Phase:
    """Untraced closed loop: at least one full pass, then up to the budget."""
    phase = Phase()
    gc.collect()
    speed.probe()
    index, spent = 0, 0.0
    while True:
        _run_op(workload, state, index, phase, None, speed)
        index += 1
        spent += phase.walls[-1]
        # stop at the operation boundary closest to the budget
        if index >= workload.cycle(state) and spent + phase.walls[-1] / 2 >= seconds:
            speed.probe()
            return phase


def _measure_paired(workload, state, seconds: float, tracer: Tracer) -> tuple[Phase, Phase]:
    """Blocks of about a tenth of a pass run untraced, then again traced.

    Both sides replay the same operations a second or so apart, so the
    host's drifting speed cancels out of the tracing overhead.
    """
    plain, traced = Phase(), Phase()
    block = max(1, workload.cycle(state) // 10)
    gc.collect()
    index, spent = 0, 0.0
    while True:
        for i in range(index, index + block):
            _run_op(workload, state, i, plain, None)
        tracer.install()
        try:
            for i in range(index, index + block):
                _run_op(workload, state, i, traced, tracer)
        finally:
            tracer.uninstall()
        index += block
        pair = sum(plain.walls[-block:]) + sum(traced.walls[-block:])
        spent += pair
        if spent + pair / 2 >= seconds:
            return plain, traced


def _raw(end: float, seconds: float) -> float:
    return seconds


def _end_to_end(phase: Phase, setups: list, scale=_raw, setup_scale=_raw) -> dict:
    """The end-to-end metrics; the scales map ``(end, seconds)`` to seconds."""
    lat = np.array([scale(*x) for x in phase.latencies]) * 1e3
    return {
        "setup_s": statistics.median(setup_scale(*x) for x in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": float(np.percentile(lat, 50)),
        "op_ms_p90": float(np.percentile(lat, 90)),
        "throughput": phase.items / sum(scale(*x) for x in phase.parts),
    }


def per_layer(setup: SpanSummary, timed: SpanSummary, tracer: Tracer, n_ops: int,
              extras: dict, overhead_pct: float) -> dict:
    """Per-layer metrics: name -> (value, unit).

    Times are shares, in percent, of the traced operations' wall time
    (``self_pct``, ``incl_pct``) or of the traced set-ups' wall time
    (``setup_pct``), so a layer that a workload never calls reads 0.
    """
    per_op = max(n_ops, 1)
    m: dict[str, tuple[float, str]] = {}

    def calls(metric, span):
        m[metric] = (timed.calls(span) / per_op, "count")

    def self_pct(metric, span):
        m[metric] = (timed.pct(timed.self_s(span)), "%")

    def incl_pct(metric, span):
        m[metric] = (timed.pct(timed.incl_s(span)), "%")

    def setup_pct(metric, span):
        m[metric] = (setup.pct(setup.incl_s(span)), "%")

    for p in PRIMITIVES:
        calls(f"tensor.{p}.calls_per_op", f"tensor.{p}")
        self_pct(f"tensor.{p}.self_pct", f"tensor.{p}")
    m["tensor.matmul.flops_per_op"] = (tracer.matmul_flops / per_op, "flop")
    m["tensor.matmul.bytes_per_op"] = (tracer.matmul_bytes / per_op, "B")
    m["tensor.tape.nodes_per_grad"] = (tracer.tape_nodes / max(tracer.grad_calls, 1), "count")
    m["tensor.weight_grad.useful_flop_share"] = (
        tracer.wgrad_useful_flops / tracer.wgrad_flops if tracer.wgrad_flops else 0.0, "ratio")

    incl_pct("train.forward_pct", "lm.caption_loss")
    incl_pct("train.backward_pct", "tensor.Tape.grad")
    incl_pct("train.optimizer_pct", "train.AdamW.step")
    m["train.stage_prep_pct"] = (timed.pct(tracer.stage_prep_s), "%")
    self_pct("train.run_stage.self_pct", "train.run_stage")
    m["train.final_loss"] = (extras.get("final_loss", 0.0), "nats")

    calls("peft.lora_forward.calls_per_op", "peft.lora_forward")
    self_pct("peft.lora_forward.self_pct", "peft.lora_forward")
    m["peft.trainable_scalars"] = (extras.get("trainable_scalars", 0), "count")

    calls("lm.lm_forward.calls_per_op", "lm.lm_forward")
    self_pct("lm.lm_forward.self_pct", "lm.lm_forward")
    m["lm.positions_per_output_token"] = (
        tracer.gen_positions / tracer.gen_tokens if tracer.gen_tokens else 0.0, "count")
    incl_pct("lm.generate.incl_pct", "lm.generate")

    calls("bind.bind_forward.calls_per_op", "bind.bind_forward")
    incl_pct("bind.bind_forward.incl_pct", "bind.bind_forward")

    incl_pct("evaluate.yesno_eval.incl_pct", "evaluate.yesno_eval")

    incl_pct("cache.enhance.incl_pct", "cache.enhance")
    self_pct("cache.topk.self_pct", "cache.topk")
    m["cache.recall_at_16"] = (extras.get("recall_at_16", 0.0), "ratio")
    m["cache.partitioned_over_exact_pct"] = (extras.get("partitioned_over_exact_pct", 0.0), "%")
    setup_pct("cache.cache_build.setup_pct", "cache.cache_build")
    setup_pct("cache.save_cache.setup_pct", "cache.save_cache")
    setup_pct("cache.load_cache.setup_pct", "cache.load_cache")
    setup_pct("cache.build_partitions.setup_pct", "cache.CacheStore.build_partitions")

    calls("encoders.encode.calls_per_op", "encoders.encode")
    self_pct("encoders.encode.self_pct", "encoders.encode")
    self_pct("encoders.mix.self_pct", "encoders.mix")

    setup_pct("checkpoint.save_checkpoint.setup_pct", "checkpoint.save_checkpoint")
    setup_pct("checkpoint.load_checkpoint.setup_pct", "checkpoint.load_checkpoint")
    setup_pct("checkpoint.to_models.setup_pct", "checkpoint.Checkpoint.to_models")
    m["checkpoint.bytes"] = (extras.get("checkpoint_bytes", 0), "B")

    setup_pct("data.gen_data.setup_pct", "data.gen_data")
    setup_pct("data.ingest.setup_pct", "data.ingest")
    self_pct("data.ingest.self_pct", "data.ingest")

    calls("tokenizer.encode.calls_per_op", "tokenizer.Tokenizer.encode")
    self_pct("tokenizer.encode.self_pct", "tokenizer.Tokenizer.encode")
    self_pct("tokenizer.decode.self_pct", "tokenizer.Tokenizer.decode")

    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.coverage_pct"] = (timed.pct(timed.top_level), "%")
    m["trace.spans_per_op"] = (timed.spans / per_op, "count")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 workload=None) -> tuple[dict, dict]:
    """Returns (result line, machine and run facts)."""
    workload = workload or WORKLOADS[name]()
    work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, root: Path, work: Path):
    inputs = workload.make_inputs(seed, work / "inputs")
    setup_tracer = Tracer() if trace else None
    setup_speed = HostSpeed(hostspeed.setup)
    setups = []  # (end, seconds)
    for i in range(SETUP_MAX_REPEATS):
        if i >= SETUP_MIN_REPEATS and sum(x[1] for x in setups) >= SETUP_MIN_SECONDS:
            break
        if i:
            state = None  # let the previous set-up's models go before the next
            shutil.rmtree(work / f"setup{i - 1}")
        gc.collect()
        d = work / f"setup{i}"
        d.mkdir(parents=True)
        if setup_tracer is None:
            for _ in range(SETUP_PROBES):
                setup_speed.probe()
            t0 = time.perf_counter()
            state = workload.setup(inputs, d)
            end = time.perf_counter()
            setups.append((end, end - t0))
            for _ in range(SETUP_PROBES):
                setup_speed.probe()
            continue
        # gen-data runs through the CLI, which is not a traced layer
        setup_tracer.install(extra=[(workloads, "gen_data", "data.gen_data")])
        try:
            setup_tracer.op_id = i
            span = setup_tracer.open(SETUP_ROOT)
            t0 = time.perf_counter()
            state = workload.setup(inputs, d)
            end = time.perf_counter()
            setups.append((end, end - t0))
            setup_tracer.close(span)
        finally:
            setup_tracer.op_id = -1
            setup_tracer.uninstall()

    cycle = workload.cycle(state)
    if not trace:
        speed = HostSpeed()
        phase = _measure(workload, state, seconds, speed)
        rescaled = _end_to_end(phase, setups, speed.scale, setup_speed.scale)
        metrics = {k: (v, END_TO_END[k]) for k, v in rescaled.items()}
        correct = phase.failed == 0
        facts = {"operations": len(phase.latencies), "probes": len(speed.probes),
                 "host_speed": {"operations": speed.speed(), "setup": setup_speed.speed()},
                 "raw": {k: v for k, v in _end_to_end(phase, setups).items()
                         if k != "peak_rss_mb"}}
    else:
        tracer = Tracer()
        plain, traced = _measure_paired(workload, state, seconds, tracer)
        overhead = 100.0 * (sum(traced.walls) / sum(plain.walls) - 1.0)
        timed = SpanSummary(tracer, OP_ROOT)
        metrics = per_layer(SpanSummary(setup_tracer, SETUP_ROOT), timed, tracer,
                            traced.attempted, workload.extras(state), overhead)
        coverage = metrics["trace.coverage_pct"][0]
        phase = Phase(attempted=plain.attempted + traced.attempted,
                      failed=plain.failed + traced.failed)
        correct = phase.failed == 0 and coverage >= COVERAGE_FLOOR_PCT
        if coverage < COVERAGE_FLOOR_PCT:
            print(f"top-level spans cover {coverage:.1f}% of the timed wall, "
                  f"below {COVERAGE_FLOOR_PCT}%", file=sys.stderr)
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{workload.name}-seed{seed}.csv"
        spans_path.write_text("phase,span,name,start_us,end_us,parent,op\n")
        setup_tracer.write_csv(spans_path, "setup")
        tracer.write_csv(spans_path, "timed")
        facts = {"spans": str(spans_path.relative_to(root)), "traced_spans": len(tracer)}

    facts.update({"workload": workload.name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "ops_per_cycle": cycle,
                  "setup_s_all": [seconds for _, seconds in setups],
                  "machine": machine_facts()})
    result = {
        "correct": bool(correct),
        "attempted": int(phase.attempted),
        "failed": int(phase.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, facts


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(description="bindlm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, facts = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0
