"""bindlm's benchmark: workloads, output checks, the span tracer and the harness.

Run it through ``benchmarks/run.py``; see ``benchmarks/README.md``.
"""
