"""Parameter-level checkpoint merging.

``merge(base, vectors, recipe)`` is the one driver.  It resolves the
recipe's layer-group schedule, orders the task vectors (float32 deltas
of fine-tuned checkpoints against the base) by recipe model and checks
their layout once.  Then, for each base tensor in name order, it calls
the kernel of ``recipe.method`` with the base array, the M deltas and
that tensor's per-model (weight, density) pairs:

* task_arithmetic: base + lambda * sum of weighted deltas
* ties: trim each delta to its largest-magnitude entries (``ties_trim``),
  elect a per-coordinate consensus sign (``ties_elect``), average the
  sign-agreeing survivors with normalized weights
  (``ties_disjoint_merge``), then add to the base scaled by lambda
* linear: base + (sum of weighted deltas) / (sum of weights); lambda and
  densities are ignored, and a zero weight sum passes the base through

task_arithmetic and ties keep the base bits, -0.0 included, for a tensor
whose scaled contribution is exactly zero.

Coefficients are organized in layer groups: tensors whose names match
the checkpoint's layer-name template with index i share the group
floor(i / group_size); everything else (embeddings, norms, heads) uses
one trailing global group.

Determinism contract: tensors are visited in lexicographic name order,
model contributions are accumulated in recipe order, and all arithmetic
is float32 elementwise, so identical inputs produce identical bits.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from umm.errors import (
    GroupCountMismatch,
    IncompatibleCheckpoints,
    InvalidDensity,
    InvalidWeight,
    MissingLayerMetadata,
    RecipeMethodMismatch,
    RecipeModelMismatch,
)
from umm.jsonl import want_int, want_number, want_str
from umm.tensor_store import Checkpoint, CheckpointReader, Tensor, require_compat

METHODS = ("linear", "task_arithmetic", "ties")


class _FileDeltas(Mapping):
    """finetuned[name] - base[name], read from an open container when asked."""

    def __init__(self, base: Checkpoint, finetuned: CheckpointReader):
        self._base = base
        self._finetuned = finetuned

    def __getitem__(self, name: str) -> np.ndarray:
        return self._finetuned.read(name).data - self._base.array(name)

    def __iter__(self):
        return iter(self._finetuned.names())

    def __len__(self) -> int:
        return len(self._finetuned.names())

    def shapes(self) -> dict:
        return self._finetuned.shapes()


@dataclass
class TaskVector:
    """Per-tensor float32 deltas of one fine-tuned model against a base."""

    deltas: Mapping  # tensor name -> np.ndarray (f32)
    source_id: str = ""

    def shapes(self) -> dict:
        """Tensor name -> delta shape, without computing a lazy delta."""
        if isinstance(self.deltas, _FileDeltas):
            return self.deltas.shapes()
        return {name: arr.shape for name, arr in self.deltas.items()}


@dataclass
class GroupCoeffs:
    weight: float
    density: float = 1.0

    def validate(self) -> None:
        if not (isinstance(self.weight, (int, float)) and math.isfinite(self.weight)
                and 0.0 <= self.weight <= 1.0):
            raise InvalidWeight(f"weight {self.weight!r} not in [0, 1]")
        if not (isinstance(self.density, (int, float)) and math.isfinite(self.density)
                and 0.0 < self.density <= 1.0):
            raise InvalidDensity(f"density {self.density!r} not in (0, 1]")


@dataclass
class ModelCoeffs:
    source_id: str
    groups: list  # list of GroupCoeffs
    path: str = ""


@dataclass
class MergeRecipe:
    method: str
    group_size: int
    lambda_scale: float = 1.0
    per_model: list = field(default_factory=list)  # list of ModelCoeffs

    def validate(self) -> None:
        if self.method not in METHODS:
            raise RecipeMethodMismatch(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not isinstance(self.group_size, int) or self.group_size < 1:
            raise ValueError(f"group_size must be a positive integer, got {self.group_size!r}")
        if not (math.isfinite(self.lambda_scale) and self.lambda_scale >= 0.0):
            raise ValueError(f"lambda_scale must be finite and >= 0, got {self.lambda_scale!r}")
        if not self.per_model:
            raise ValueError("recipe lists no models")
        counts = {len(m.groups) for m in self.per_model}
        if len(counts) != 1:
            raise GroupCountMismatch(f"models disagree on group count: {sorted(counts)}")
        ids = [m.source_id for m in self.per_model]
        if len(set(ids)) != len(ids):
            raise RecipeModelMismatch(f"duplicate source_id in recipe: {ids}")
        for model in self.per_model:
            for g in model.groups:
                g.validate()

    @property
    def num_groups(self) -> int:
        return len(self.per_model[0].groups) if self.per_model else 0

    def to_json_obj(self) -> dict:
        return {
            "method": self.method,
            "group_size": self.group_size,
            "lambda_scale": self.lambda_scale,
            "models": [
                {
                    "source_id": m.source_id,
                    "path": m.path,
                    "groups": [{"weight": g.weight, "density": g.density} for g in m.groups],
                }
                for m in self.per_model
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


def recipe_from_json_obj(obj: dict) -> MergeRecipe:
    if not isinstance(obj, dict):
        raise ValueError("recipe must be a JSON object")
    try:
        models = []
        for i, m in enumerate(obj["models"]):
            where = f"recipe: models[{i}]."
            groups = [
                GroupCoeffs(weight=want_number(g, "weight", where=f"{where}groups[{j}]."),
                            density=want_number(g, "density", 1.0, where=f"{where}groups[{j}]."))
                for j, g in enumerate(m["groups"])
            ]
            models.append(ModelCoeffs(source_id=want_str(m, "source_id", where=where),
                                      path=want_str(m, "path", "", where=where),
                                      groups=groups))
        recipe = MergeRecipe(
            method=want_str(obj, "method", where="recipe: "),
            group_size=want_int(obj, "group_size", where="recipe: "),
            lambda_scale=want_number(obj, "lambda_scale", 1.0, where="recipe: "),
            per_model=models,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"recipe JSON missing or malformed field: {exc}") from exc
    recipe.validate()
    return recipe


def load_recipe(path) -> MergeRecipe:
    with open(path, "r", encoding="utf-8") as fh:
        return recipe_from_json_obj(json.load(fh))


# --- layer-group schedule ----------------------------------------------------

@dataclass
class Schedule:
    """Resolved per-tensor coefficient assignment for one checkpoint."""

    group_index: dict  # tensor name -> group index
    num_layer_groups: int
    num_layers: int
    recipe: MergeRecipe

    def coeffs(self, name: str) -> list:
        """(weight, density) per model, in recipe order."""
        g = self.group_index[name]
        return [(m.groups[g].weight, m.groups[g].density) for m in self.recipe.per_model]

    def group_table(self) -> list:
        rows = []
        for g in range(self.num_layer_groups + 1):
            if g < self.num_layer_groups:
                lo = g * self.recipe.group_size
                hi = min(self.num_layers, lo + self.recipe.group_size) - 1
                span = f"layers {lo}-{hi}"
            else:
                span = "global"
            rows.append(
                {
                    "group": g,
                    "span": span,
                    "models": {
                        m.source_id: {"weight": m.groups[g].weight, "density": m.groups[g].density}
                        for m in self.recipe.per_model
                    },
                }
            )
        return rows


def _layer_regex(pattern: str):
    parts = pattern.split("{i}")
    if len(parts) != 2:
        raise MissingLayerMetadata(
            f"layer_pattern must contain exactly one '{{i}}' placeholder, got {pattern!r}"
        )
    return re.compile(r"(\d+)".join(re.escape(p) for p in parts))


def group_count(meta: dict, group_size: int) -> tuple:
    """(num_layers, recipe group count) from checkpoint metadata: the layers
    fill ceil(num_layers / group_size) groups, plus one global group."""
    if "num_layers" not in meta:
        raise MissingLayerMetadata("checkpoint metadata lacks num_layers")
    try:
        num_layers = int(meta["num_layers"])
    except ValueError as exc:
        raise MissingLayerMetadata(f"num_layers is not an integer: {meta['num_layers']!r}") from exc
    if num_layers < 1:
        raise MissingLayerMetadata(f"num_layers must be positive, got {num_layers}")
    return num_layers, math.ceil(num_layers / group_size) + 1


def expand_schedule(recipe: MergeRecipe, ckpt: Checkpoint) -> Schedule:
    """Assign every tensor of ``ckpt`` a coefficient group.

    Tensor names matching the metadata layer template with index i get
    group floor(i / group_size); all others share the final global group.
    """
    recipe.validate()
    meta = ckpt.metadata
    if "layer_pattern" not in meta:
        raise MissingLayerMetadata("checkpoint metadata lacks layer_pattern")
    num_layers, num_groups = group_count(meta, recipe.group_size)
    regex = _layer_regex(meta["layer_pattern"])
    if recipe.num_groups != num_groups:
        raise GroupCountMismatch(
            f"recipe has {recipe.num_groups} groups but {num_layers} layers at "
            f"group_size {recipe.group_size} need {num_groups} (including the global group)"
        )
    num_layer_groups = num_groups - 1

    group_index = {}
    for name in ckpt.names():
        match = regex.search(name)
        if match:
            layer = int(match.group(1))
            if layer >= num_layers:
                raise GroupCountMismatch(
                    f"tensor {name!r} has layer index {layer} >= num_layers {num_layers}"
                )
            group_index[name] = layer // recipe.group_size
        else:
            group_index[name] = num_layer_groups
    return Schedule(group_index, num_layer_groups, num_layers, recipe)


# --- task vectors -------------------------------------------------------------

def compute_task_vector(base: Checkpoint, finetuned, source_id: str = "") -> TaskVector:
    """Elementwise float32 difference finetuned - base.

    From a loaded Checkpoint every delta is computed now, so a search can
    reuse them for each candidate.  From an open CheckpointReader each
    delta is read and computed when a merge asks for it, so a merge holds
    one tensor's deltas at a time; the reader must stay open until then.
    """
    require_compat(base, finetuned, "base vs finetuned")
    if isinstance(finetuned, CheckpointReader):
        return TaskVector(deltas=_FileDeltas(base, finetuned), source_id=source_id)
    deltas = {name: finetuned.array(name) - base.array(name) for name in base.names()}
    return TaskVector(deltas=deltas, source_id=source_id)


def _require_vector_compat(base: Checkpoint, vectors: list) -> None:
    base_shapes = base.shapes()
    for vec in vectors:
        if vec.shapes() != base_shapes:
            raise IncompatibleCheckpoints(
                f"task vector {vec.source_id!r} does not match the base tensor layout"
            )


def _ordered_vectors(recipe: MergeRecipe, vectors: list) -> list:
    """Vectors reordered to recipe model order, matched by source_id."""
    by_id = {}
    for vec in vectors:
        if vec.source_id in by_id:
            raise RecipeModelMismatch(f"duplicate task vector source_id {vec.source_id!r}")
        by_id[vec.source_id] = vec
    recipe_ids = [m.source_id for m in recipe.per_model]
    if sorted(by_id) != sorted(recipe_ids):
        raise RecipeModelMismatch(
            f"recipe models {recipe_ids} do not match task vectors {sorted(by_id)}"
        )
    return [by_id[sid] for sid in recipe_ids]


# --- TIES steps (one tensor each) -------------------------------------------------

def _trim_count(density: float, n: int) -> int:
    # ceil(density * n); the 1e-9 slack absorbs binary representation
    # error in products like 0.1 * 30 that are mathematically integral
    return max(1, math.ceil(density * n - 1e-9))


def ties_trim(delta: np.ndarray, density: float) -> np.ndarray:
    """Zero all but the ceil(density*n) largest-magnitude entries.

    Magnitude ties keep the lower flat index.  Linear time: a partition
    finds the k-th largest magnitude, every larger one is kept, and the
    first entries tied at it fill the remaining places.  ``delta`` holds
    no NaN: a difference of finite checkpoints cannot.
    """
    if not (isinstance(density, (int, float)) and math.isfinite(density) and 0.0 < density <= 1.0):
        raise InvalidDensity(f"density {density!r} not in (0, 1]")
    flat = delta.ravel()
    n = flat.size
    k = _trim_count(float(density), n)
    if k >= n:
        return delta.copy()
    mag = np.abs(flat)
    kth = np.partition(mag, n - k)[n - k]
    keep = mag > kth
    need = k - np.count_nonzero(keep)
    keep[np.flatnonzero(mag == kth)[:need]] = True
    del mag
    return np.where(keep, flat, np.float32(0.0)).reshape(delta.shape)


def ties_elect(trimmed: list) -> np.ndarray:
    """Per-coordinate sign, in {-1, 0, +1}, of the model-order sum."""
    if not trimmed:
        raise IncompatibleCheckpoints("cannot elect signs from zero task vectors")
    acc = np.zeros_like(trimmed[0])
    for delta in trimmed:
        acc += delta
    # np.sign is several times slower in place than into a new array
    gamma = np.sign(acc)
    # + 0.0 normalizes any -0.0 produced by np.sign
    gamma += np.float32(0.0)
    return gamma


def ties_disjoint_merge(trimmed: list, gamma: np.ndarray, weights: list) -> np.ndarray:
    """Weight-normalized average over models agreeing with the elected sign.

    ``weights`` is one float per model, in the order of ``trimmed``, and
    ``gamma`` is ``ties_elect(trimmed)``.  Coordinates whose elected sign
    is zero, or where no model agrees, or where agreeing weights sum to
    zero, come out exactly 0.
    """
    num = np.zeros_like(gamma)
    den = np.zeros_like(gamma)
    buf = np.empty_like(gamma)
    for v, weight in zip(trimmed, weights, strict=True):
        w32 = np.float32(weight)
        # gamma is -1, +0.0 or +1, so v * gamma is exact, and it is > 0
        # where v is nonzero with the elected sign
        np.multiply(v, gamma, out=buf)
        np.multiply(buf > 0, w32, out=buf)
        den += buf
        # Where v does not agree, buf * v is a zero of either sign, which
        # adds the same: num never holds -0.0, because it starts at +0.0
        # and a sum is -0.0 only when both terms are.  (An infinite v
        # disagrees only where gamma is NaN, and those come out 0.)
        buf *= v
        num += buf
    del buf
    valid = (gamma != 0) & (den > 0)
    np.divide(num, den, out=num, where=valid)
    np.copyto(num, np.float32(0.0), where=~valid)
    return num


# --- per-tensor kernels: (base, deltas, coeffs, lambda) -> merged f32 array ---------

def _add_scaled(base: np.ndarray, delta: np.ndarray, lam: float) -> np.ndarray:
    """base + lam * delta; an exact-zero contribution keeps the base bits."""
    scaled = np.float32(lam) * delta
    if not scaled.any():
        # avoids flipping -0.0 in the base to +0.0
        return base.copy()
    return base + scaled


def _weighted_sum(base, deltas, coeffs) -> np.ndarray:
    acc = np.zeros_like(base)
    for delta, (weight, _) in zip(deltas, coeffs):
        acc = acc + np.float32(weight) * delta
    return acc


def _task_arithmetic_kernel(base, deltas, coeffs, lam):
    return _add_scaled(base, _weighted_sum(base, deltas, coeffs), lam)


def _ties_kernel(base, deltas, coeffs, lam):
    # the steps are looked up at call time so they can be rebound
    trimmed = [ties_trim(delta, density) for delta, (_, density) in zip(deltas, coeffs)]
    gamma = ties_elect(trimmed)
    merged = ties_disjoint_merge(trimmed, gamma, [weight for weight, _ in coeffs])
    return _add_scaled(base, merged, lam)


def _linear_kernel(base, deltas, coeffs, lam):
    # lambda is ignored: the weights are normalized instead
    total = np.float32(0.0)
    for weight, _ in coeffs:
        total = total + np.float32(weight)
    if total == 0:
        return base.copy()
    return base + _weighted_sum(base, deltas, coeffs) / total


_KERNELS = {
    "linear": _linear_kernel,
    "task_arithmetic": _task_arithmetic_kernel,
    "ties": _ties_kernel,
}


def merge(base: Checkpoint, vectors: list, recipe: MergeRecipe) -> Checkpoint:
    """Merge task vectors onto ``base`` by ``recipe.method``, one tensor at a time.

    ``vectors`` holds one TaskVector per recipe model, in any order.  The
    output has the base's tensor names and metadata, every tensor f32.
    """
    schedule = expand_schedule(recipe, base)
    ordered = _ordered_vectors(recipe, vectors)
    _require_vector_compat(base, ordered)
    kernel = _KERNELS[recipe.method]
    tensors = {}
    # an overflow leaves Inf or NaN in the output, which saving reports
    # as NonFiniteValue, so numpy's own warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for name, tensor in base.items():
            # the deltas live only for this call: lazy ones are read per tensor
            merged = kernel(tensor.data, [vec.deltas[name] for vec in ordered],
                            schedule.coeffs(name), recipe.lambda_scale)
            tensors[name] = Tensor(merged, dtype="f32")
    return Checkpoint(tensors=tensors, metadata=dict(base.metadata))
