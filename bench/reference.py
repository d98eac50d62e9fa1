"""Reference kernels that calibrate timings for the host's current speed.

On a shared VM the same pass on the same inputs can run up to twice as
fast at one moment as a few minutes later, because other tenants
contend for the physical cores.  Medians within a 25 s run cannot remove
swings that last minutes.  So each workload has a reference kernel: a
fixed computation, independent of ``umm``, of the same kind as the
layer that dominates the workload at the seed state.  The benchmark
times it beside the work it measures and reports times scaled to the
host speed at which the kernel takes ``NOMINAL_S`` seconds.  A change to
``umm`` moves the passes but not the kernel, so it shows in full.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np
from scipy import sparse

_SEED = 20241017


def _rng() -> np.random.Generator:
    return np.random.default_rng(_SEED)


@functools.cache
def _magnitudes():
    return _rng().standard_normal(300_000).astype(np.float32)


@functools.cache
def _small_tensors():
    rng = _rng()
    tensors = [rng.standard_normal(shape).astype(np.float32) for shape in [(16, 16)] * 4 + [(16,)] * 4]
    header = {f"layers.{i}.weight": {"dtype": "F32", "shape": [16, 16], "data_offsets": [0, 1024]}
              for i in range(12)}
    return tensors, header


@functools.cache
def _surfaces():
    rng = _rng()
    pivot = ["".join(rng.choice(list("abcdefgh"), 3)) for _ in range(240)]
    source = ["".join(rng.choice(list("abcdefgh"), 3)) for _ in range(300)]
    return pivot, source


@functools.cache
def _counts():
    rng = _rng()
    pairs = list(zip(rng.integers(0, 512, 20_000).tolist(), rng.integers(0, 640, 20_000).tolist(),
                     rng.integers(1, 51, 20_000).tolist()))
    return pairs, rng.random((640, 25))


def stable_sort(magnitudes) -> None:
    """Trim's kernel: stable argsort of negated magnitudes."""
    np.argsort(-np.abs(magnitudes), kind="stable")


def tiny_merges(small) -> None:
    """Per-candidate work on a toy model: TIES-style numpy calls on tiny
    tensors plus a container header and payload round trip."""
    tensors, header = small
    for _ in range(150):
        for arr in tensors:
            flat = arr.ravel()
            order = np.argsort(-np.abs(flat), kind="stable")
            mask = np.zeros(flat.size, dtype=bool)
            mask[order[:flat.size // 2]] = True
            kept = np.where(mask, flat, np.float32(0.0))
            sign = np.sign(kept + flat) + np.float32(0.0)
            np.where((np.sign(kept) == sign) & (kept != 0), kept, np.float32(0.0))
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        json.loads(blob)
        payload = b"".join(arr.tobytes() for arr in tensors)
        np.frombuffer(payload[:1024], dtype="<f4").astype(np.float32)


def python_dp(surfaces) -> None:
    """The alignment DP: a pure-Python min-cost recurrence over lists."""
    pivot, source = surfaces
    previous = [float(j) for j in range(len(source) + 1)]
    for i, a in enumerate(pivot, 1):
        current = [float(i)]
        for j, b in enumerate(source, 1):
            current.append(min(previous[j] + 1.0, current[j - 1] + 1.0,
                               previous[j - 1] + (a != b)))
        previous = current


def sparse_transfer(counts) -> None:
    """Projection: sparse count matrices built from Python lists, applied."""
    pairs, dense = counts
    for _ in range(3):
        rows, cols, vals = [], [], []
        for p, s, c in pairs:
            rows.append(p)
            cols.append(s)
            vals.append(float(c))
        matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(512, 640))
        (matrix @ dense).sum()


# workload -> (cached input factory, kernel)
KERNELS = {
    "merge-ties": (_magnitudes, stable_sort),
    "search-toy": (_small_tensors, tiny_merges),
    "align-long": (_surfaces, python_dp),
    "fuse-many": (_counts, sparse_transfer),
}

# median kernel seconds on the 2-vCPU Xeon VM the benchmark was built on;
# they fix the scale of calibrated figures, not their spread
NOMINAL_S = {
    "merge-ties": 0.034,
    "search-toy": 0.021,
    "align-long": 0.018,
    "fuse-many": 0.018,
}


def kernel_seconds(workload: str) -> float:
    """Seconds of one run of the workload's kernel; its input is built
    once per process, outside the timing."""
    build, kernel = KERNELS[workload]
    data = build()
    start = time.perf_counter()
    kernel(data)
    return time.perf_counter() - start


def host_speed(workload: str, samples: list) -> float:
    """Host speed relative to nominal: above 1 when the kernel ran faster."""
    return NOMINAL_S[workload] / statistics.median(samples)
