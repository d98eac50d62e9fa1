"""Parameter-level checkpoint merging.

``merge(base, vectors, recipe)`` is the one driver.  The base is a
loaded Checkpoint or an open CheckpointReader.  ``merge`` resolves the
recipe's layer-group schedule, orders the task vectors (float32 deltas
of fine-tuned checkpoints against the base) by recipe model and checks
their layout once, all from names and shapes.  Then it walks the base
tensors in name order as spans: consecutive tensors laid end to end, up
to ``_BLOCK`` entries (which fit in L2) in all, or one larger tensor
alone.  A span decodes its base tensors when it is built, so a base
reader decodes each tensor once and a merge holds the output plus one
span's base, deltas and working arrays.  Each span's
contribution comes from the rule of ``recipe.method``, with every
tensor's per-model (weight, density) pairs:

* task_arithmetic: base + lambda * sum of weighted deltas
* ties: trim each delta whole to its largest-magnitude entries
  (``ties_trim``) as it is read, elect a per-coordinate consensus sign
  (``ties_elect``), average the sign-agreeing survivors with normalized
  weights (``ties_disjoint_merge``), then add to the base scaled by
  lambda
* linear: base + (sum of weighted deltas) / (sum of weights); lambda and
  densities are ignored, and a tensor whose weights sum to zero passes
  its base through

Everything after the trim runs once per block of a span, so many small
tensors cost one set of numpy calls, and a large tensor is finished in
``_BLOCK``-entry blocks.  A span over several layer groups gets a
per-entry float32 weight array per model.  Lazy deltas are read one
tensor and model at a time, each against the span's decoded base, so a
merge holds only the current span's deltas.
task_arithmetic and ties keep a tensor's base bits, -0.0 included, when
its scaled contribution is exactly zero.

Coefficients are organized in layer groups: tensors whose names match
the checkpoint's layer-name template with index i share the group
floor(i / group_size); everything else (embeddings, norms, heads) uses
one trailing global group.

Determinism contract: tensors are visited in lexicographic name order,
model contributions are accumulated in recipe order, and all arithmetic
is float32 elementwise, so identical inputs produce identical bits.
"""

from __future__ import annotations

import itertools
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
from umm.jsonl import want_int, want_number, want_objects, want_str
from umm.tensor_store import Checkpoint, CheckpointReader, Tensor, require_compat

METHODS = ("linear", "task_arithmetic", "ties")


class _FileDeltas(Mapping):
    """finetuned[name] - base[name], read from an open container when asked."""

    def __init__(self, base, finetuned: CheckpointReader):
        self._base = base
        self._finetuned = finetuned

    def __getitem__(self, name: str) -> np.ndarray:
        return self.minus(name, self._base.array(name))

    def minus(self, name: str, base_arr: np.ndarray) -> np.ndarray:
        """finetuned[name] - base_arr, for a base tensor already decoded."""
        # read returns a new array, so the difference can overwrite it
        delta = self._finetuned.read(name).data
        delta -= base_arr
        return delta

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

    def delta(self, name: str, base_arr: np.ndarray) -> np.ndarray:
        """The delta of tensor ``name``; a lazy one is computed against
        ``base_arr``, the base tensor the caller has decoded."""
        if isinstance(self.deltas, _FileDeltas):
            return self.deltas.minus(name, base_arr)
        return self.deltas[name]


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
    models = []
    for i, m in enumerate(want_objects(obj, "models", where="recipe: ")):
        where = f"recipe: models[{i}]."
        groups = [
            GroupCoeffs(weight=want_number(g, "weight", where=f"{where}groups[{j}]."),
                        density=want_number(g, "density", 1.0, where=f"{where}groups[{j}]."))
            for j, g in enumerate(want_objects(m, "groups", where=where))
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
    delta is read and computed when a merge asks for it, against the base
    tensor the merge has decoded, so a merge holds one tensor's deltas at
    a time; the reader must stay open until then.  ``base`` is a
    Checkpoint or an open CheckpointReader.
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


# float width in bytes -> the native unsigned integer type of that width
_UINT_OF_WIDTH = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def _uint_type(values: np.ndarray) -> type:
    """The unsigned integer type as wide as ``values``' float type."""
    dtype = values.dtype
    if dtype.kind != "f" or dtype.itemsize not in _UINT_OF_WIDTH:
        raise TypeError(f"TIES steps take float16, float32 or float64 arrays, not {dtype}")
    return _UINT_OF_WIDTH[dtype.itemsize]


def _select(mask: np.ndarray, values: np.ndarray, bits: type) -> np.ndarray:
    """``values`` where ``mask`` is true and +0.0 elsewhere, bit for bit.

    An all-ones or all-zeros word per entry ANDed with the raw bits (in
    any byte order): no branch on the mask, and kept entries, -0.0 and
    NaN included, keep their exact bits.
    """
    # negating an unsigned 1 wraps to all ones
    out = np.negative(mask, dtype=bits)
    out &= values.view(bits)
    return out.view(values.dtype)


# ties in spans this short are listed; longer spans are halved by counting first
_LIST_SPAN = 2048


def _keep_first(keep: np.ndarray, tied: np.ndarray, need: int) -> None:
    """Set ``keep`` at the first ``need`` True entries of ``tied``.

    Listing True indices costs far more per entry than counting them.  So
    while the span is long, its first half is counted: if that half holds
    fewer than ``need`` ties, they are all kept and the search moves on to
    the second half, else into the first.  ``keep`` and ``tied`` narrow as
    views, so every write lands in the caller's ``keep``.
    """
    while tied.size > _LIST_SPAN:
        half = tied.size // 2
        count = np.count_nonzero(tied[:half])
        if count < need:
            keep[:half] |= tied[:half]
            keep, tied, need = keep[half:], tied[half:], need - count
        else:
            keep, tied = keep[:half], tied[:half]
    keep[np.flatnonzero(tied)[:need]] = True


def ties_trim(delta: np.ndarray, density: float) -> np.ndarray:
    """Zero all but the ceil(density*n) largest-magnitude entries.

    Magnitude ties keep the lower flat index.  Linear time: a partition
    finds the k-th largest magnitude, every larger one is kept, and the
    first entries tied at it fill the remaining places.  The ranking runs
    on the bits of ``abs(delta)`` viewed as unsigned integers of the same
    width: non-negative floats order as their bit patterns do, -0.0 ties
    with +0.0, and NaN ranks above +inf.  Kept entries keep their bits,
    dropped ones become +0.0, and the output has ``delta``'s float dtype.
    """
    if not (isinstance(density, (int, float)) and math.isfinite(density) and 0.0 < density <= 1.0):
        raise InvalidDensity(f"density {density!r} not in (0, 1]")
    bits = _uint_type(delta)
    flat = delta.ravel()
    n = flat.size
    k = _trim_count(float(density), n)
    if k >= n:
        return delta.copy()
    # abs returns native byte order, so the native view ranks correctly
    mag = np.abs(flat)
    ranks = mag.view(bits)
    ranks.partition(n - k)
    kth = ranks[n - k]
    # the partition reordered the magnitudes in place: put them back in
    # flat order, rather than partition a second copy
    np.abs(flat, out=mag)
    keep = ranks > kth
    tied = ranks == kth
    del mag, ranks
    _keep_first(keep, tied, k - np.count_nonzero(keep))
    return _select(keep, flat, bits).reshape(delta.shape)


def ties_elect(trimmed: list) -> np.ndarray:
    """Per-coordinate sign, in {-1, 0, +1}, of the model-order sum."""
    if not trimmed:
        raise IncompatibleCheckpoints("cannot elect signs from zero task vectors")
    first = trimmed[0]
    acc = np.zeros(first.shape, first.dtype)
    for delta in trimmed:
        acc += delta
    # np.sign is several times slower in place than into a new array
    gamma = np.sign(acc)
    # + 0.0 normalizes any -0.0 produced by np.sign
    gamma += np.float32(0.0)
    return gamma


def ties_disjoint_merge(trimmed: list, gamma: np.ndarray, weights: list) -> np.ndarray:
    """Weight-normalized average over models agreeing with the elected sign.

    ``weights`` holds one weight per model, in the order of ``trimmed``:
    a float, or a float32 array with one weight per entry, as for a span
    of tensors from several layer groups.  ``gamma`` is
    ``ties_elect(trimmed)``.  Coordinates whose elected sign is zero or
    NaN, or where no model agrees, or where agreeing weights sum to zero,
    come out +0.0: the quotient is taken on every lane and those lanes
    are then cleared by a bitwise AND, so their 0/0 or x/0 raises no
    warning.  Infinite entries give the inf or NaN lanes the
    scalar reference gives, also without a warning.
    """
    bits = _uint_type(gamma)
    num = np.zeros(gamma.shape, gamma.dtype)
    den = np.zeros(gamma.shape, gamma.dtype)
    buf = np.empty(gamma.shape, gamma.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
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
        num /= den
    del den
    return _select(valid, num, bits)


# --- spans: packed tensors, finished one block at a time ------------------------

# entries per block of the TIES finish and the scaled add: the few f32
# working arrays of one block, about 1 MiB in all, fit in a 2 MiB
# per-core L2, which whole multi-MiB tensors do not
_BLOCK = 1 << 15


class _Span:
    """Consecutive base tensors laid end to end as one flat run of entries.

    A span is either tensors of at most ``_BLOCK`` entries in all, so one
    block, or a single larger tensor.  Each tensor keeps its own
    coefficients: a per-model value is one float32 scalar when every
    tensor of the span is in the same layer group, else a float32 array
    with one entry per span entry.
    """

    def __init__(self, names: list, arrays: list, group_index: dict):
        self.names = names
        self.shapes = [arr.shape for arr in arrays]
        self.sizes = [arr.size for arr in arrays]
        self.offsets = list(itertools.accumulate(self.sizes, initial=0))
        self.size = self.offsets[-1]
        # where each tensor starts within the span's one block, or [0]
        # for a lone tensor over many blocks (tensors are never empty)
        self.cuts = np.array(self.offsets[:-1])
        self.one_group = len({group_index[name] for name in names}) == 1
        self.base = self.flat(arrays)

    def flat(self, arrays: list) -> np.ndarray:
        """The span's entries of per-tensor ``arrays``: a lone tensor's
        flat view, or one concatenated copy."""
        if len(arrays) == 1:
            return arrays[0].ravel()
        return np.concatenate(arrays, axis=None)

    def split(self, flat: np.ndarray) -> list:
        """Per-tensor views, in the tensors' shapes, of span-length ``flat``."""
        return [flat[lo:hi].reshape(shape)
                for lo, hi, shape in zip(self.offsets, self.offsets[1:], self.shapes)]

    def per_entry(self, values: list):
        """One value per tensor as a float32 scalar or per-entry array."""
        if self.one_group:
            return np.float32(values[0])
        return np.repeat(np.array(values, np.float32), self.sizes)

    def weights(self, coeffs: list) -> list:
        """Each model's weight, from per-tensor lists of (weight, density)."""
        return [self.per_entry([weight for weight, _ in model]) for model in zip(*coeffs)]

    def finish(self, scaled_block, contributes=None) -> list:
        """base + scaled, one block at a time, as one array per tensor.

        ``scaled_block(lo, hi)`` returns the scaled contribution to span
        entries lo:hi.  A tensor whose scaled contribution is exactly zero
        in every entry keeps its base bits, -0.0 included, unless
        ``contributes`` gives each tensor's flag up front; otherwise every
        entry is base + scaled, so a -0.0 base entry that adds +0.0 comes
        out +0.0.
        """
        out = np.empty_like(self.base)
        flags = np.zeros(len(self.names), bool) if contributes is None else contributes
        for lo in range(0, self.size, _BLOCK):
            hi = lo + _BLOCK
            scaled = scaled_block(lo, hi)
            if contributes is None:
                # only a lone tensor has more than one block, and its cut is 0
                flags |= np.logical_or.reduceat(scaled != 0, self.cuts)
            np.add(self.base[lo:hi], scaled, out=out[lo:hi])
        for t in np.flatnonzero(~flags):
            lo, hi = self.offsets[t], self.offsets[t + 1]
            out[lo:hi] = self.base[lo:hi]
        return self.split(out)


def _spans(base, schedule: Schedule):
    """The base tensors in name order, packed into spans: consecutive
    tensors fill a span up to ``_BLOCK`` entries, and a tensor larger
    than that is a span of its own.  Spans are laid out from the shapes,
    so a base reader decodes each tensor once, as its span is built, and
    no tensor of the next span is decoded before it is asked for."""

    def span(names):
        return _Span(names, [base.array(name) for name in names], schedule.group_index)

    names, size = [], 0
    for name, shape in base.shapes().items():
        if names and size + math.prod(shape) > _BLOCK:
            yield span(names)
            names, size = [], 0
        names.append(name)
        size += math.prod(shape)
    if names:
        yield span(names)


# --- per-method contributions: (span, vectors, coeffs, lambda) -> scaled blocks ------

def _block(value, lo: int, hi: int):
    """Entries lo:hi of a per-entry array; a scalar serves every block."""
    return value if value.ndim == 0 else value[lo:hi]


def _weighted_sum(span, vectors, coeffs) -> np.ndarray:
    acc = np.zeros(span.size, np.float32)
    bases = span.split(span.base)
    for vec, weight in zip(vectors, span.weights(coeffs)):
        acc += weight * span.flat([vec.delta(name, base) for name, base in zip(span.names, bases)])
    return acc


def _task_arithmetic_part(span, vectors, coeffs, lam):
    lam32 = np.float32(lam)
    acc = _weighted_sum(span, vectors, coeffs)
    return lambda lo, hi: lam32 * acc[lo:hi], None


def _ties_part(span, vectors, coeffs, lam):
    # The steps are looked up at call time so they can be rebound.  Each
    # delta is trimmed whole as it is read and then dropped, so one raw
    # delta is alive beside the trimmed ones.  Sign election and the
    # disjoint merge are elementwise, so they run one block at a time.
    trimmed = [[ties_trim(vec.delta(name, base), density)
                for vec, (_, density) in zip(vectors, per_model)]
               for name, base, per_model in zip(span.names, span.split(span.base), coeffs)]
    # one flat run per model
    flats = [span.flat(tensors) for tensors in zip(*trimmed)]
    del trimmed
    weights = span.weights(coeffs)
    lam32 = np.float32(lam)

    def scaled(lo, hi):
        parts = [t[lo:hi] for t in flats]
        return lam32 * ties_disjoint_merge(parts, ties_elect(parts),
                                           [_block(w, lo, hi) for w in weights])

    return scaled, None


def _linear_part(span, vectors, coeffs, lam):
    # lambda is ignored: the weights are normalized instead, and a tensor
    # whose weights sum to zero passes its base through
    totals = []
    for per_model in coeffs:
        total = np.float32(0.0)
        for weight, _ in per_model:
            total = total + np.float32(weight)
        totals.append(total)
    acc = _weighted_sum(span, vectors, coeffs)
    divisor = span.per_entry(totals)
    return lambda lo, hi: acc[lo:hi] / _block(divisor, lo, hi), np.array(totals) != 0


_PARTS = {
    "linear": _linear_part,
    "task_arithmetic": _task_arithmetic_part,
    "ties": _ties_part,
}


def merge(base, vectors: list, recipe: MergeRecipe) -> Checkpoint:
    """Merge task vectors onto ``base`` by ``recipe.method``, one span at a time.

    ``base`` is a Checkpoint or an open CheckpointReader; a reader's
    tensors are decoded once each, as their span is merged.  ``vectors``
    holds one TaskVector per recipe model, in any order.  The output has
    the base's tensor names and metadata, every tensor f32.
    """
    schedule = expand_schedule(recipe, base)
    ordered = _ordered_vectors(recipe, vectors)
    _require_vector_compat(base, ordered)
    part = _PARTS[recipe.method]
    tensors = {}
    # An overflow leaves Inf or NaN in the output, which saving reports
    # as NonFiniteValue, so numpy's own warning would only repeat it.
    # linear divides by a zero weight sum only in tensors that keep the base.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for span in _spans(base, schedule):
            coeffs = [schedule.coeffs(name) for name in span.names]
            merged = span.finish(*part(span, ordered, coeffs, recipe.lambda_scale))
            for name, arr in zip(span.names, merged):
                tensors[name] = Tensor(arr, dtype="f32")
            # drop the span's base before the next span is decoded
            del span
    return Checkpoint(tensors=tensors, metadata=dict(base.metadata))
