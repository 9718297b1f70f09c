"""Host speed: fixed kernels timed between operations, to rescale timings.

The benchmark runs on shared hosts whose speed drifts within seconds. On a
2-vCPU KVM guest a fixed kernel ran at anywhere from 600 to 2,000 calls/s
over half a minute, and process CPU time tracked wall time throughout, so
the guest never saw the slow spells as steal. Medians of raw seconds taken
minutes apart then differ by more than any change worth measuring.

So the end-to-end timings are reported in reference-host seconds: every raw
interval is multiplied by ``reference / probe``, where ``probe`` is the
median time of a fixed kernel over the probes nearest in time to the
interval's end. The kernels are the benchmark's own code; a change to bindlm
changes the intervals and not the kernels, so it shows in full.

The slow spells do not slow every kind of work alike, so there are two
kernels, each matched to what it rescales:

- ``compute``, for operations: a pure-Python loop plus a numpy scan larger
  than a core's L2, since bindlm's time is interpreter overhead plus small
  BLAS calls and the cache scan streams its store. An untimed scan warms the
  array first, so the time does not depend on how much of the last-level
  cache bindlm's work left to it.
- ``setup``: ``compute`` plus about as long of JSON encoding and ``stat``
  calls, since set-ups also write corpora and call the file system. The
  weight is a compromise: set-ups that mostly synthesize corpora (pretrain,
  generate) track the JSON part, those that mostly train (instruct) track
  ``compute``.

On that guest, within one run, rescaling cut the spread of 4 s window
medians from 0.20 to 0.01 of their median for pretrain steps, from 0.27 to
0.04 for retrieve queries, and from 0.38 to 0.04 and 0.30 to 0.07 for the
pretrain and generate set-ups.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.05  # between operations, at most this often
NEAREST = 5  # probes a rescaling factor takes its median over

_LOOP = 10_000
_SCANS = 2
_SCAN_ROWS, _SCAN_COLS = 4096, 128  # 4 MiB of float64
_FLOATS = 1500
_STATS = 100

_rng = np.random.default_rng(0)
_SCAN = _rng.random((_SCAN_ROWS, _SCAN_COLS))
_QUERY = _rng.random(_SCAN_COLS)
_DOC = {"x": _rng.random(_FLOATS).tolist()}


def compute() -> float:
    """Seconds the compute kernel took."""
    _SCAN @ _QUERY  # warm, untimed
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i
    for _ in range(_SCANS):
        _SCAN @ _QUERY
    return time.perf_counter() - t0


def setup() -> float:
    """Seconds the set-up kernel took."""
    seconds = compute()
    t0 = time.perf_counter()
    json.dumps(_DOC)
    for _ in range(_STATS):
        os.stat(__file__)
    return seconds + time.perf_counter() - t0


# About each kernel's median time on the 2-vCPU guest above; rescaled timings
# read as seconds on a host that runs the kernel in exactly this time.
REFERENCE_S = {compute: 0.8e-3, setup: 2.0e-3}


class HostSpeed:
    """Timings of one kernel with their end times, and the rescaling they imply."""

    def __init__(self, kernel=compute):
        self._kernel = kernel
        self._reference = REFERENCE_S[kernel]
        self.ends: list[float] = []
        self.probes: list[float] = []

    def probe(self) -> None:
        self.probes.append(self._kernel())
        self.ends.append(time.perf_counter())

    def maybe_probe(self) -> None:
        """Probe unless the last probe ended under ``PROBE_EVERY_S`` ago."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, end: float, seconds: float) -> float:
        """``seconds`` that ended at ``end``, in reference-host seconds."""
        i = bisect.bisect_left(self.ends, end)
        lo = max(0, min(i - NEAREST // 2, len(self.ends) - NEAREST))
        return seconds * self._reference / statistics.median(self.probes[lo:lo + NEAREST])

    def speed(self) -> float:
        """The run's median host speed; above 1 on a host faster than the reference."""
        return self._reference / statistics.median(self.probes)
