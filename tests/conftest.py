import errno
import io
import json
import os
import sys

import numpy as np
import pytest

from umm import tensor_store
from umm.tensor_store import Checkpoint, Tensor


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass/fail lines after the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)


def random_checkpoint(rng, max_tensors=20, max_scalars=4096, dtypes=("f32", "f16", "bf16"),
                      metadata=None):
    """Random checkpoint whose values are exactly representable in their
    storage dtype, so save/load round trips are bitwise."""
    n_tensors = int(rng.integers(1, max_tensors + 1))
    tensors = {}
    for i in range(n_tensors):
        name = f"t{i:03d}.{rng.integers(0, 1000)}"
        rank = int(rng.integers(0, 4))
        shape = tuple(int(rng.integers(1, 9)) for _ in range(rank))
        size = int(np.prod(shape)) if shape else 1
        while size > max_scalars:
            shape = shape[:-1]
            size = int(np.prod(shape)) if shape else 1
        values = rng.standard_normal(shape).astype(np.float32) * 3.0
        dtype = str(rng.choice(list(dtypes)))
        tensors[name] = Tensor(data=_snap(values, dtype), dtype=dtype)
    return Checkpoint(tensors=tensors, metadata=dict(metadata or {}))


def _snap(values, dtype):
    """Quantize float32 values onto the storage dtype's grid."""
    if dtype == "f32":
        return values
    if dtype == "f16":
        return values.astype(np.float16).astype(np.float32)
    bits = values.astype("<f4").view(np.uint32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    return (rounded.astype(np.uint32) << np.uint32(16)).view(np.float32).copy()


def checkpoints_bitwise_equal(a, b):
    if a.names() != b.names() or a.metadata != b.metadata:
        return False
    for name in a.names():
        ta, tb = a.tensors[name], b.tensors[name]
        if ta.dtype != tb.dtype or ta.shape != tb.shape:
            return False
        if ta.data.tobytes() != tb.data.tobytes():
            return False
    return True


def fusion_example_obj(ex):
    """A FusionExample as one toy-train corpus line reads it."""
    return {
        "instruction": ex.instruction,
        "gold": ex.gold,
        "pivot_rows": ex.pivot_dist.rows.tolist(),
        "source_aligned_rows": ex.source_dist_aligned.rows.tolist(),
    }


def write_fusion_corpus(corpus, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in corpus:
            fh.write(json.dumps(fusion_example_obj(ex)) + "\n")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def full_disk(monkeypatch):
    """``full_disk(name, room=8)`` makes the temp file of each later output
    named ``name`` take its first ``room`` bytes and then fail a write with
    ENOSPC, as a full disk would, partway through the write."""

    def fail(name, room=8):
        class FullDisk(io.FileIO):
            def write(self, data):
                left = max(room - self.tell(), 0)
                if len(data) > left:
                    super().write(memoryview(data).cast("B")[:left])
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        def fake_open(path, mode="r", *args, **kwargs):
            base = os.path.basename(path)
            if "x" in mode and base.startswith(f"{name}.") and base.endswith(".tmp"):
                return io.BufferedWriter(FullDisk(path, "x"), buffer_size=4)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(tensor_store, "open", fake_open, raising=False)

    return fail


class DrawnTaskVector:
    """Given float32 deltas behind the task-vector interface of a merge
    (``source_id``, ``shapes``, ``delta``), for tests that draw deltas
    directly rather than as the difference of two checkpoints."""

    def __init__(self, deltas: dict, source_id: str = ""):
        self.deltas = deltas
        self.source_id = source_id

    def shapes(self) -> dict:
        return {name: arr.shape for name, arr in self.deltas.items()}

    def delta(self, name: str, base_arr: np.ndarray) -> np.ndarray:
        return self.deltas[name]


def random_ties_instance(rng, n_models=None, integer_mode=None):
    """Small random TIES merge setup plus the ground truth needed by the
    scalar reference: per-tensor group assignment, densities, weights."""
    from umm.merge_core import GroupCoeffs, MergeRecipe, ModelCoeffs

    num_layers = int(rng.integers(1, 5))
    group_size = int(rng.integers(1, 4))
    n_layer_groups = -(-num_layers // group_size)
    n_groups = n_layer_groups + 1
    if n_models is None:
        n_models = int(rng.integers(2, 5))
    if integer_mode is None:
        integer_mode = bool(rng.integers(0, 2))

    names = {}
    for i in range(num_layers):
        names[f"layers.{i}.w"] = i // group_size
    names["embed.w"] = n_layer_groups
    if rng.integers(0, 2):
        names["head.w"] = n_layer_groups

    def draw(shape):
        if integer_mode:
            return rng.integers(-2, 3, size=shape).astype(np.float32)
        return rng.standard_normal(shape).astype(np.float32)

    shapes = {}
    for name in names:
        rank = int(rng.integers(1, 3))
        if rank == 1:
            shapes[name] = (int(rng.integers(1, 17)),)
        else:
            a = int(rng.integers(1, 5))
            b = int(rng.integers(1, 5))
            shapes[name] = (a, b)

    base = Checkpoint(
        tensors={n: Tensor(draw(shapes[n])) for n in names},
        metadata={"layer_pattern": "layers.{i}.", "num_layers": str(num_layers)},
    )

    density_choices = np.array([0.25, 0.5, 1.0])
    per_model = []
    vectors = []
    densities = []
    weight_map = {n: [] for n in names}
    for m in range(n_models):
        groups = []
        for _ in range(n_groups):
            groups.append(
                GroupCoeffs(
                    weight=float(np.round(rng.uniform(0.0, 1.0), 3)),
                    density=float(rng.choice(density_choices)),
                )
            )
        per_model.append(ModelCoeffs(source_id=f"m{m}", groups=groups))
        vectors.append(
            DrawnTaskVector(deltas={n: draw(shapes[n]) for n in names}, source_id=f"m{m}")
        )
        densities.append({n: groups[g].density for n, g in names.items()})
        for n, g in names.items():
            weight_map[n].append(groups[g].weight)

    lam = float(rng.choice(np.array([0.5, 1.0])))
    recipe = MergeRecipe(
        method="ties", group_size=group_size, lambda_scale=lam, per_model=per_model
    )
    base_arrays = {n: base.array(n) for n in names}
    vector_arrays = [{n: v.deltas[n] for n in names} for v in vectors]
    return {
        "base": base,
        "vectors": vectors,
        "recipe": recipe,
        "base_arrays": base_arrays,
        "vector_arrays": vector_arrays,
        "densities": densities,
        "weights": weight_map,
        "lambda": lam,
    }
