import contextlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import umm.merge_core as merge_core
from umm.errors import (
    GroupCountMismatch,
    IncompatibleCheckpoints,
    InvalidDensity,
    InvalidWeight,
    MissingLayerMetadata,
    NonFiniteValue,
    RecipeMethodMismatch,
    RecipeModelMismatch,
)
from umm.merge_core import (
    GroupCoeffs,
    MergeRecipe,
    ModelCoeffs,
    TaskVector,
    compute_task_vector,
    expand_schedule,
    group_count,
    load_recipe,
    merge,
    recipe_from_json_obj,
    ties_disjoint_merge,
    ties_elect,
    ties_trim,
)
from umm.tensor_store import (
    Checkpoint,
    CheckpointReader,
    Tensor,
    checkpoint_digest,
    load_checkpoint,
    save_checkpoint,
)

from conftest import random_ties_instance
from reference_impls import (
    ref_disjoint_merge,
    ref_elect,
    ref_elect_by_magnitude,
    ref_linear_merge,
    ref_task_arithmetic_merge,
    ref_ties_merge,
    ref_trim,
)


def ckpt(metadata=None, **arrays):
    return Checkpoint(
        tensors={k: Tensor(np.asarray(v, np.float32)) for k, v in arrays.items()},
        metadata=metadata or {},
    )


def layered_ckpt(num_layers, extra=("embed.w",), scale=1.0, rng=None):
    arrays = {}
    for i in range(num_layers):
        if rng is None:
            arrays[f"layers.{i}.w"] = np.full(4, float(i) * scale, np.float32)
        else:
            arrays[f"layers.{i}.w"] = rng.standard_normal(4).astype(np.float32) * scale
    for name in extra:
        arrays[name] = (
            np.zeros(3, np.float32) if rng is None
            else rng.standard_normal(3).astype(np.float32) * scale
        )
    meta = {"layer_pattern": "layers.{i}.", "num_layers": str(num_layers)}
    return ckpt(metadata=meta, **arrays)


def simple_recipe(method, group_size, n_groups, n_models=1, weight=1.0, density=1.0, lam=1.0):
    per_model = [
        ModelCoeffs(
            source_id=f"m{m}",
            groups=[GroupCoeffs(weight=weight, density=density) for _ in range(n_groups)],
        )
        for m in range(n_models)
    ]
    return MergeRecipe(method=method, group_size=group_size, lambda_scale=lam, per_model=per_model)


def tv(source_id, **arrays):
    return TaskVector(
        deltas={k: np.asarray(v, np.float32) for k, v in arrays.items()}, source_id=source_id
    )


# --- task vectors ---------------------------------------------------------

def test_task_vector_zero_when_equal():
    a = ckpt(x=[1.0, 2.0])
    vec = compute_task_vector(a, a, "m")
    assert np.array_equal(vec.deltas["x"], [0.0, 0.0])


def test_task_vector_from_zero_base():
    base = ckpt(x=[0.0, 0.0, 0.0])
    ft = ckpt(x=[1.5, -2.0, 3.0])
    vec = compute_task_vector(base, ft)
    assert np.array_equal(vec.deltas["x"], [1.5, -2.0, 3.0])


def test_task_vector_elementwise():
    base = ckpt(x=[1.0, 2.0, 3.0, 4.0])
    ft = ckpt(x=[2.0, 2.0, 2.0, 6.0])
    vec = compute_task_vector(base, ft)
    assert np.array_equal(vec.deltas["x"], [1.0, 0.0, -1.0, 2.0])


def test_task_vector_incompatible():
    with pytest.raises(IncompatibleCheckpoints):
        compute_task_vector(ckpt(x=[1.0]), ckpt(y=[1.0]))


# --- schedule expansion ------------------------------------------------------

def test_schedule_30_layers_group10_table_values():
    base = layered_ckpt(30)
    coder = ModelCoeffs(
        source_id="coder",
        groups=[
            GroupCoeffs(weight=0.45, density=0.90),
            GroupCoeffs(weight=0.083, density=0.73),
            GroupCoeffs(weight=0.52, density=1.0),
            GroupCoeffs(weight=0.50, density=1.0),
        ],
    )
    math_model = ModelCoeffs(
        source_id="math",
        groups=[
            GroupCoeffs(weight=0.58, density=1.0),
            GroupCoeffs(weight=0.78, density=1.0),
            GroupCoeffs(weight=0.78, density=1.0),
            GroupCoeffs(weight=0.70, density=1.0),
        ],
    )
    recipe = MergeRecipe(method="ties", group_size=10, lambda_scale=1.0,
                         per_model=[coder, math_model])
    sched = expand_schedule(recipe, base)
    assert sched.num_layer_groups == 3
    assert sched.group_index["layers.0.w"] == 0
    assert sched.group_index["layers.9.w"] == 0
    assert sched.group_index["layers.10.w"] == 1
    assert sched.group_index["layers.29.w"] == 2
    assert sched.group_index["embed.w"] == 3
    # layers 0-9 of the coder model: weight 0.45, density 0.90
    assert sched.coeffs("layers.3.w")[0] == (0.45, 0.90)
    assert sched.coeffs("layers.15.w")[0] == (0.083, 0.73)
    assert sched.coeffs("layers.22.w")[1] == (0.78, 1.0)
    table = sched.group_table()
    assert len(table) == 4
    assert table[0]["span"] == "layers 0-9"
    assert table[3]["span"] == "global"


def test_schedule_group5_has_seven_groups():
    base = layered_ckpt(30)
    recipe = simple_recipe("task_arithmetic", 5, 7)
    sched = expand_schedule(recipe, base)
    assert sched.num_layer_groups == 6
    assert sched.group_index["layers.29.w"] == 5
    assert sched.group_index["embed.w"] == 6


def test_schedule_degenerate_single_group():
    base = layered_ckpt(4)
    recipe = simple_recipe("task_arithmetic", 100, 2)
    sched = expand_schedule(recipe, base)
    assert sched.num_layer_groups == 1
    assert all(
        sched.group_index[f"layers.{i}.w"] == 0 for i in range(4)
    )
    assert sched.group_index["embed.w"] == 1


def test_schedule_missing_metadata():
    base = ckpt(x=[1.0])
    with pytest.raises(MissingLayerMetadata):
        expand_schedule(simple_recipe("ties", 2, 2), base)


def test_group_count_rule_and_metadata_errors():
    assert group_count({"num_layers": "30"}, 10) == (30, 4)
    assert group_count({"num_layers": "31"}, 10) == (31, 5)
    for meta in ({}, {"num_layers": "two"}, {"num_layers": "0"}):
        with pytest.raises(MissingLayerMetadata):
            group_count(meta, 2)


def test_schedule_group_count_mismatch():
    base = layered_ckpt(30)
    with pytest.raises(GroupCountMismatch):
        expand_schedule(simple_recipe("ties", 10, 3), base)


def test_schedule_layer_index_out_of_range():
    base = layered_ckpt(2)
    base.tensors["layers.7.w"] = Tensor(np.zeros(2, np.float32))
    with pytest.raises(GroupCountMismatch):
        expand_schedule(simple_recipe("ties", 2, 2), base)


def test_schedule_bad_pattern():
    base = ckpt(
        metadata={"layer_pattern": "layers.", "num_layers": "2"},
        **{"layers.0.w": [1.0]},
    )
    with pytest.raises(MissingLayerMetadata):
        expand_schedule(simple_recipe("ties", 2, 2), base)


# --- task arithmetic ------------------------------------------------------------

def test_ta_zero_weights_is_base_bitwise():
    base = layered_ckpt(2)
    # include a negative zero to prove the zero-contribution fast path
    base.tensors["embed.w"] = Tensor(np.array([-0.0, 1.0, 2.0], np.float32))
    vec = compute_task_vector(base, layered_ckpt(2, scale=2.0), "m0")
    recipe = simple_recipe("task_arithmetic", 2, 2, weight=0.0)
    out = merge(base, [vec], recipe)
    for name in base.names():
        assert out.array(name).tobytes() == base.array(name).tobytes()


def test_ta_single_model_identity():
    rng = np.random.default_rng(5)
    base = layered_ckpt(3, rng=rng)
    ft = layered_ckpt(3, rng=rng, scale=1.5)
    vec = compute_task_vector(base, ft, "m0")
    recipe = simple_recipe("task_arithmetic", 3, 2, weight=1.0, lam=1.0)
    out = merge(base, [vec], recipe)
    for name in base.names():
        np.testing.assert_allclose(out.array(name), ft.array(name), rtol=1e-6, atol=1e-7)


def test_ta_hand_example():
    base = ckpt(metadata={"layer_pattern": "layers.{i}.", "num_layers": "1"}, x=[0.0, 0.0])
    v1 = tv("m0", x=[1.0, 2.0])
    v2 = tv("m1", x=[2.0, -2.0])
    recipe = MergeRecipe(
        method="task_arithmetic",
        group_size=1,
        lambda_scale=2.0,
        per_model=[
            ModelCoeffs("m0", [GroupCoeffs(0.5), GroupCoeffs(0.5)]),
            ModelCoeffs("m1", [GroupCoeffs(0.25), GroupCoeffs(0.25)]),
        ],
    )
    out = merge(base, [v1, v2], recipe)
    np.testing.assert_allclose(out.array("x"), [2.0, 1.0], rtol=1e-6)


def test_ta_lambda_linearity(rng):
    base = layered_ckpt(4, rng=rng)
    ft = layered_ckpt(4, rng=rng)
    vec = compute_task_vector(base, ft, "m0")
    r1 = simple_recipe("task_arithmetic", 2, 3, weight=0.7, lam=0.4)
    r2 = simple_recipe("task_arithmetic", 2, 3, weight=0.7, lam=1.2)
    out1 = merge(base, [vec], r1)
    out2 = merge(base, [vec], r2)
    for name in base.names():
        d1 = out1.array(name) - base.array(name)
        d2 = out2.array(name) - base.array(name)
        np.testing.assert_allclose(3.0 * d1, d2, rtol=1e-5, atol=1e-6)


def test_ta_vector_list_order_irrelevant(rng):
    inst = random_ties_instance(rng, n_models=3)
    recipe = inst["recipe"]
    recipe.method = "task_arithmetic"
    out1 = merge(inst["base"], inst["vectors"], recipe)
    out2 = merge(inst["base"], inst["vectors"][::-1], recipe)
    for name in out1.names():
        assert out1.array(name).tobytes() == out2.array(name).tobytes()


def test_ta_unknown_source_id():
    base = layered_ckpt(2)
    vec = compute_task_vector(base, base, "stranger")
    with pytest.raises(RecipeModelMismatch):
        merge(base, [vec], simple_recipe("task_arithmetic", 2, 2))


# --- TIES steps -------------------------------------------------------------------

def arr(values):
    return np.asarray(values, np.float32)


def test_trim_density_one_unchanged():
    x = arr([3.0, -1.0, 0.5, -4.0])
    assert np.array_equal(ties_trim(x, 1.0), x)


def test_trim_half():
    out = ties_trim(arr([3.0, -1.0, 0.5, -4.0]), 0.5)
    assert np.array_equal(out, [3.0, 0.0, 0.0, -4.0])


def test_trim_tie_break_low_index():
    out = ties_trim(arr([1.0, -1.0, 1.0, -1.0]), 0.5)
    assert np.array_equal(out, [1.0, -1.0, 0.0, 0.0])


def test_trim_idempotent(rng):
    once = ties_trim(rng.standard_normal(37).astype(np.float32), 0.4)
    assert np.array_equal(ties_trim(once, 0.4), once)


def test_trim_rejects_bad_density():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidDensity):
            ties_trim(arr([1.0]), bad)


def test_trim_matrix_flat_index_order():
    out = ties_trim(arr([[2.0, 2.0], [2.0, 2.0]]), 0.5)
    assert np.array_equal(out, [[2.0, 2.0], [0.0, 0.0]])


def bf16_grid(values):
    """Truncate float32 values to the bf16 grid: few magnitudes, many ties."""
    return (np.asarray(values, np.float32).view(np.uint32) & np.uint32(0xFFFF0000)).view(np.float32)


def _tie_cases():
    rng = np.random.default_rng(7)
    laplace = bf16_grid(rng.laplace(0.0, 5e-4, 4096))
    zeros = arr([0.0, -0.0, 3.0, 0.0, -0.0, -2.0, -0.0, 0.0, 0.0, -0.0])
    equal = arr([0.5, -0.5] * 6)
    grid_2d = bf16_grid(rng.integers(-3, 4, size=(6, 7)) * np.float32(0.75))
    return {
        "bf16-grid": (laplace, 0.3),
        "kth-zero-signed": (zeros, 0.55),
        "all-equal": (equal, 0.4),
        "k-is-1": (arr([-3.0, 1.0, 3.0, -3.0, 2.0]), 0.2),
        "k-is-n": (arr([-1.0, 0.0, -0.0, 1.0, -1.0]), 1.0),
        "2d": (grid_2d, 0.5),
        "2d-transposed": (grid_2d.T, 0.35),
    }


@pytest.mark.parametrize("case", list(_tie_cases()))
def test_trim_cut_inside_a_tie_group_matches_reference(case):
    values, density = _tie_cases()[case]
    mag = np.abs(values.ravel())
    k = max(1, math.ceil(density * mag.size - 1e-9))
    kth = np.sort(mag)[::-1][k - 1]
    above, at_or_above = int(np.sum(mag > kth)), int(np.sum(mag >= kth))
    if case == "k-is-n":
        assert k == mag.size == at_or_above
    else:
        # the k-th largest magnitude is shared across the cut
        assert above < k < at_or_above, (above, k, at_or_above)
    if case == "kth-zero-signed":
        # both signs of zero on each side: kept +0.0 -0.0 +0.0 -0.0, dropped -0.0 +0.0 +0.0 -0.0
        assert kth == 0 and k - above == 4
    if case == "k-is-1":
        assert k == 1
    out = ties_trim(values, density)
    assert out.shape == values.shape
    assert out.tobytes() == ref_trim(values, density).tobytes()


def _tie_heavy_bf16(n, seed):
    """bf16-grid deltas with one mantissa bit and some signed zeros: few
    distinct magnitudes, so the cut falls inside a large tie group."""
    rng = np.random.default_rng(seed)
    values = bf16_grid(rng.laplace(0.0, 5e-4, n))
    values = (values.view(np.uint32) & np.uint32(0xFFC00000)).view(np.float32)
    zeros = rng.random(n) < 0.1
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, np.float32(-0.0), np.float32(0.0))
    return values


# sizes around and well past numpy's vector widths, so the partition, the
# comparisons and the bit-AND run their vectorized main loops and tails,
# and the tie cut runs its halving loop (spans longer than 2048)
@pytest.mark.parametrize("n", [1, 15, 17, 257, 4099, 65537])
@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
def test_trim_matches_reference_at_vector_sizes(n, density):
    values = _tie_heavy_bf16(n, seed=n)
    out = ties_trim(values, density)
    assert out.dtype == np.float32 and out.shape == values.shape
    assert out.tobytes() == ref_trim(values, density).tobytes()
    if n > 2048:
        mag = np.abs(values)
        k = math.ceil(density * n - 1e-9)
        kth = np.sort(mag)[n - k]
        # the cut splits a tie group
        assert np.sum(mag > kth) < k < np.sum(mag >= kth)


def _argsort_trim(values, density):
    """The sort-based trim, in the input's own dtype."""
    flat = values.ravel()
    k = max(1, math.ceil(density * flat.size - 1e-9))
    top = np.argsort(-np.abs(flat), kind="stable")[:k]
    out = np.zeros_like(flat)
    out[top] = flat[top]
    return out.reshape(values.shape)


@pytest.mark.parametrize("dtype", [np.float16, np.float64, np.dtype(">f4")])
def test_ties_steps_keep_other_float_dtypes(dtype):
    rng = np.random.default_rng(11)
    # ties across the cut, and signed zeros
    values = (rng.integers(-6, 7, size=(33, 31)) * 0.375).astype(dtype)
    values[values == 0] = -0.0
    for density in (0.2, 0.5, 0.8):
        out = ties_trim(values, density)
        assert out.dtype == values.dtype and out.shape == values.shape
        assert out.tobytes() == _argsort_trim(values, density).tobytes()
    # the sum and the sign come out in native byte order
    # small integers and weights 1/2: every step is exact in each dtype,
    # so the result equals the float32 one
    trimmed = [ties_trim(values, p) for p in (0.3, 0.7)]
    gamma = ties_elect(trimmed)
    merged = ties_disjoint_merge(trimmed, gamma, [0.5, 0.5])
    assert merged.dtype == values.dtype.newbyteorder("=") and merged.shape == values.shape
    trimmed32 = [t.astype(np.float32) for t in trimmed]
    want = ties_disjoint_merge(trimmed32, ties_elect(trimmed32), [0.5, 0.5])
    assert merged.astype(np.float32).tobytes() == want.tobytes()


def test_ties_steps_reject_non_float_arrays():
    with pytest.raises(TypeError, match="int32"):
        ties_trim(np.arange(8, dtype=np.int32), 0.5)
    gamma = np.ones(4, np.int64)
    with pytest.raises(TypeError, match="int64"):
        ties_disjoint_merge([gamma], gamma, [1.0])


def _peak_over_input(fn, *args, input_bytes):
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / input_bytes


def test_ties_steps_memory_per_input_size():
    rng = np.random.default_rng(8)
    deltas = [bf16_grid(rng.laplace(0.0, 5e-4, 1 << 20)) for _ in range(3)]
    size = deltas[0].nbytes
    # the magnitudes, partitioned in place, the keep and tie masks, and
    # then the output with the two masks
    assert _peak_over_input(ties_trim, deltas[0], 0.4, input_bytes=size) <= 1.75
    trimmed = [ties_trim(d, p) for d, p in zip(deltas, (0.2, 0.5, 0.8))]
    gamma = ties_elect(trimmed)
    # num, den, one reused buffer and a boolean mask
    assert _peak_over_input(ties_disjoint_merge, trimmed, gamma, [0.3, 0.5, 0.7],
                            input_bytes=size) <= 3.75


def test_elect_example():
    assert np.array_equal(ties_elect([arr([2.0, 3.0]), arr([-3.0, 1.0])]), [-1.0, 1.0])


def test_elect_single_vector():
    assert np.array_equal(ties_elect([arr([2.0, -5.0, 0.0])]), [1.0, -1.0, 0.0])


def test_elect_exact_cancellation():
    assert np.array_equal(ties_elect([arr([1.0]), arr([-1.0])]), [0.0])


def test_elect_matches_magnitude_oracle(rng):
    for _ in range(200):
        n_models = int(rng.integers(1, 5))
        shape = (int(rng.integers(1, 9)),)
        deltas = [rng.integers(-3, 4, size=shape).astype(np.float32) for _ in range(n_models)]
        assert np.array_equal(ties_elect(deltas), ref_elect_by_magnitude(deltas))


def test_steps_bitwise_match_scalar_reference(rng):
    for _ in range(300):
        n_models = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 3))))
        if rng.integers(0, 2):
            deltas = [rng.integers(-2, 3, size=shape).astype(np.float32) for _ in range(n_models)]
        else:
            deltas = [rng.standard_normal(shape).astype(np.float32) for _ in range(n_models)]
        densities = [float(rng.choice([0.1, 0.25, 0.5, 0.73, 1.0])) for _ in range(n_models)]
        weights = [float(rng.choice([0.0, 0.083, 0.5, 1.0])) for _ in range(n_models)]

        trimmed = [ties_trim(d, p) for d, p in zip(deltas, densities)]
        want_trimmed = [ref_trim(d, p) for d, p in zip(deltas, densities)]
        assert [t.tobytes() for t in trimmed] == [t.tobytes() for t in want_trimmed]
        gamma = ties_elect(trimmed)
        assert gamma.tobytes() == ref_elect(trimmed).tobytes()
        merged = ties_disjoint_merge(trimmed, gamma, weights)
        assert merged.tobytes() == ref_disjoint_merge(trimmed, gamma, weights).tobytes()


def test_disjoint_merge_example():
    out = ties_disjoint_merge([arr([2.0, 3.0]), arr([-3.0, 1.0])], arr([-1.0, 1.0]), [1.0, 1.0])
    np.testing.assert_allclose(out, [-3.0, 2.0])


def test_disjoint_merge_identical_vectors(rng):
    x = rng.standard_normal(9).astype(np.float32)
    trimmed = [x.copy(), x.copy()]
    out = ties_disjoint_merge(trimmed, ties_elect(trimmed), [0.5, 0.5])
    np.testing.assert_allclose(out, x, rtol=1e-6)


def test_disjoint_merge_normalized_weights():
    out = ties_disjoint_merge([arr([4.0]), arr([2.0])], arr([1.0]), [0.45, 0.52])
    np.testing.assert_allclose(out, [(0.45 * 4 + 0.52 * 2) / 0.97], rtol=1e-5)
    assert abs(float(out[0]) - 2.9278) < 1e-3


def test_disjoint_merge_zero_weight_sum_gives_zero():
    out = ties_disjoint_merge([arr([4.0])], arr([1.0]), [0.0])
    assert np.array_equal(out, [0.0])


def test_disjoint_merge_lanes_bitwise():
    """Every kind of lane, shuffled across a vector-sized tensor."""
    inf, nzero = np.float32(np.inf), np.float32(-0.0)
    lanes = {
        # (model 0, model 1, model 2); weights below are 0.0, 0.5, 0.7
        "agree": [(1.5, 2.0, 0.25), (-1.0, -3.0, 0.0)],
        "elected-zero": [(0.0, 1.0, -1.0), (2.0, -2.0, 0.0)],
        "only-weight-zero-agrees": [(3.0, 0.0, 0.0), (-0.5, 0.0, 0.0)],
        "opposite-infinities": [(0.0, inf, -inf), (inf, -inf, 1.0)],
        "one-infinity": [(0.0, inf, 1.0), (0.0, 0.0, -inf)],
        "negative-zeros": [(nzero, 2.0, nzero), (nzero, nzero, -1.0), (nzero, nzero, nzero)],
    }
    rows = [(kind, row) for kind, kind_rows in lanes.items() for row in kind_rows]
    rng = np.random.default_rng(12)
    pick = rng.integers(0, len(rows), 4099)
    trimmed = [np.array([rows[i][1][m] for i in pick], np.float32) for m in range(3)]
    kinds = np.array([rows[i][0] for i in pick])
    weights = [0.0, 0.5, 0.7]
    with np.errstate(invalid="ignore"):
        # inf + -inf: the elected sign is NaN
        gamma = ties_elect(trimmed)
        want = ref_disjoint_merge(trimmed, gamma, weights)
    assert np.isnan(gamma[kinds == "opposite-infinities"]).all()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = ties_disjoint_merge(trimmed, gamma, weights)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert out.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()
    cleared = np.isin(kinds, ["elected-zero", "only-weight-zero-agrees", "opposite-infinities"])
    cleared |= (kinds == "negative-zeros") & (gamma == 0)
    assert (out.view(np.uint32)[cleared] == 0).all()
    assert np.isinf(out[kinds == "one-infinity"]).all()


def test_disjoint_merge_convexity(rng):
    for _ in range(50):
        n_models = int(rng.integers(2, 5))
        trimmed = [rng.standard_normal(8).astype(np.float32) for _ in range(n_models)]
        weights = [float(rng.uniform(0.01, 1.0)) for _ in range(n_models)]
        out = ties_disjoint_merge(trimmed, ties_elect(trimmed), weights)
        bound = np.abs(np.stack(trimmed)).max(axis=0)
        assert np.all(np.abs(out) <= bound + 1e-6)


# --- full TIES merge ------------------------------------------------------------------

def test_ties_single_model_identity(rng):
    base = layered_ckpt(3, rng=rng)
    ft = layered_ckpt(3, rng=rng, scale=2.0)
    vec = compute_task_vector(base, ft, "m0")
    recipe = simple_recipe("ties", 3, 2, weight=1.0, density=1.0, lam=1.0)
    out = merge(base, [vec], recipe)
    for name in base.names():
        np.testing.assert_allclose(out.array(name), ft.array(name), rtol=1e-6, atol=1e-7)


def test_ties_identical_vectors_full_density(rng):
    base = layered_ckpt(2, rng=rng)
    delta = {n: rng.standard_normal(base.array(n).shape).astype(np.float32) for n in base.names()}
    v1 = TaskVector(deltas={n: d.copy() for n, d in delta.items()}, source_id="m0")
    v2 = TaskVector(deltas={n: d.copy() for n, d in delta.items()}, source_id="m1")
    lam = 0.5
    recipe = simple_recipe("ties", 2, 2, n_models=2, weight=0.5, density=1.0, lam=lam)
    out = merge(base, [v1, v2], recipe)
    for name in base.names():
        expected = base.array(name) + np.float32(lam) * delta[name]
        assert out.array(name).tobytes() == expected.tobytes()


def test_ties_matches_reference_300(rng):
    for _ in range(300):
        inst = random_ties_instance(rng)
        out = merge(inst["base"], inst["vectors"], inst["recipe"])
        want = ref_ties_merge(
            inst["base_arrays"],
            inst["vector_arrays"],
            inst["densities"],
            inst["weights"],
            inst["lambda"],
        )
        for name in inst["base"].names():
            assert out.array(name).tobytes() == want[name].tobytes(), name


def test_ties_model_order_invariance(rng):
    inst = random_ties_instance(rng, n_models=3)
    out1 = merge(inst["base"], inst["vectors"], inst["recipe"])
    out2 = merge(inst["base"], inst["vectors"][::-1], inst["recipe"])
    for name in out1.names():
        assert out1.array(name).tobytes() == out2.array(name).tobytes()


_BLOCK = merge_core._BLOCK
_ONE_LAYER = {"layer_pattern": "layers.{i}.", "num_layers": "1"}
_WEIGHTS = (0.3, 0.5, 0.7)
_DENSITIES = (0.2, 0.5, 0.8)


def _global_recipe(method, lam=1.0):
    """Three models with distinct weights and densities, for a checkpoint
    of one layer whose tensors all fall in the global group."""
    per_model = [ModelCoeffs(source_id=f"m{m}",
                             groups=[GroupCoeffs(weight=w, density=d)] * 2)
                 for m, (w, d) in enumerate(zip(_WEIGHTS, _DENSITIES))]
    return MergeRecipe(method=method, group_size=1, lambda_scale=lam, per_model=per_model)


def _blocked_instance(rng, shapes):
    """Base arrays and three models' deltas of the given shapes on the bf16
    grid, with signed zeros in both."""
    def draw(shape, scale):
        values = np.array(bf16_grid(rng.laplace(0.0, scale, shape)))
        values[rng.random(shape) < 0.1] = -0.0
        return values

    base = {name: draw(shape, 1.0) for name, shape in shapes.items()}
    vectors = [{name: draw(shape, 5e-4) for name, shape in shapes.items()} for _ in _WEIGHTS]
    return base, vectors


def _merge_arrays(method, base, vectors, lam=1.0):
    out = merge(Checkpoint({n: Tensor(a) for n, a in base.items()}, metadata=_ONE_LAYER),
                [TaskVector(deltas=v, source_id=f"m{m}") for m, v in enumerate(vectors)],
                _global_recipe(method, lam))
    return {name: out.array(name) for name in base}


def test_ties_steps_are_called_per_tensor_and_block_through_module_globals(rng, monkeypatch):
    calls = {"trim": [], "elect": [], "disjoint": 0}
    trim, elect, disjoint = (merge_core.ties_trim, merge_core.ties_elect,
                             merge_core.ties_disjoint_merge)

    def counting_trim(delta, density):
        calls["trim"].append(delta.shape)
        return trim(delta, density)

    def counting_elect(trimmed):
        calls["elect"].append(trimmed[0].size)
        return elect(trimmed)

    def counting_disjoint(trimmed, gamma, weights):
        calls["disjoint"] += 1
        return disjoint(trimmed, gamma, weights)

    monkeypatch.setattr(merge_core, "ties_trim", counting_trim)
    monkeypatch.setattr(merge_core, "ties_elect", counting_elect)
    monkeypatch.setattr(merge_core, "ties_disjoint_merge", counting_disjoint)
    shapes = {"a.w": (3, 5), "b.w": (2 * _BLOCK + 7,), "c.w": ()}
    base, vectors = _blocked_instance(rng, shapes)
    _merge_arrays("ties", base, vectors)
    # each delta is trimmed whole, once per model, in name order
    assert calls["trim"] == [shape for shape in shapes.values() for _ in _WEIGHTS]
    # sign election and the disjoint merge run once per block
    assert calls["elect"] == [15, _BLOCK, _BLOCK, 7, 1]
    assert calls["disjoint"] == len(calls["elect"])


_BOUNDARY_SHAPES = {
    "a.one": (1,), "b.below": (_BLOCK - 1,), "c.block": (_BLOCK,), "d.above": (_BLOCK + 1,),
    "e.blocks": (2 * _BLOCK + 7,), "f.scalar": (), "g.tail": (2 * _BLOCK + 7,),
    "h.none": (_BLOCK + 1,),
}


@pytest.mark.parametrize("method", ["ties", "task_arithmetic"])
def test_merge_block_boundaries_bitwise(method):
    rng = np.random.default_rng(31)
    base, vectors = _blocked_instance(rng, _BOUNDARY_SHAPES)
    # g.tail: -0.0 base entries in the first block, and the only nonzero
    # deltas in the last one; h.none: no model contributes anywhere
    base["g.tail"][:_BLOCK:3] = -0.0
    for vec in vectors:
        vec["g.tail"][:-7] = 0.0
        vec["h.none"][:] = np.where(rng.random(_BLOCK + 1) < 0.5, np.float32(-0.0), 0.0)
    lam = 0.75
    out = _merge_arrays(method, base, vectors, lam)
    weights = {name: list(_WEIGHTS) for name in base}
    if method == "ties":
        densities = [{name: d for name in base} for d in _DENSITIES]
        want = ref_ties_merge(base, vectors, densities, weights, lam)
    else:
        want = ref_task_arithmetic_merge(base, vectors, weights, lam)
    for name, shape in _BOUNDARY_SHAPES.items():
        assert out[name].shape == shape, name
        assert np.array_equal(out[name].view(np.uint32), want[name].view(np.uint32)), name
    # a contribution in the last block recomputes the first: -0.0 + 0.0 is +0.0
    assert not out["g.tail"][:_BLOCK:3].view(np.uint32).any()
    assert np.array_equal(out["h.none"].view(np.uint32), base["h.none"].view(np.uint32))
    assert np.signbit(out["h.none"][out["h.none"] == 0]).any()


def test_ties_lambda_overflow_over_blocks_is_nonfinite_without_warning(rng, tmp_path):
    base, vectors = _blocked_instance(rng, {"w": (3 * _BLOCK + 5,)})
    for vec in vectors:
        vec["w"][:] = np.float32(4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _merge_arrays("ties", base, vectors, lam=3e38)["w"]
    # density 0.8 keeps the first 80% of the tied deltas: inf in three blocks
    assert np.isinf(out[:2 * _BLOCK + 1]).all()
    with pytest.raises(NonFiniteValue):
        save_checkpoint(Checkpoint({"w": Tensor(out)}, metadata=_ONE_LAYER), tmp_path / "out.st")


def test_ties_trims_each_lazy_delta_as_it_is_read(tmp_path):
    rng = np.random.default_rng(32)
    shape = (1024, 1024)
    base_arr = bf16_grid(rng.standard_normal(shape, dtype=np.float32))
    base = Checkpoint({"w": Tensor(base_arr, "bf16")}, metadata=_ONE_LAYER)
    for m in range(len(_WEIGHTS)):
        tuned = bf16_grid(base_arr + rng.laplace(0.0, 0.01, shape).astype(np.float32))
        save_checkpoint(Checkpoint({"w": Tensor(tuned, "bf16")}, metadata=_ONE_LAYER),
                        tmp_path / f"m{m}.st")
    recipe = _global_recipe("ties")
    with contextlib.ExitStack() as stack:
        readers = [stack.enter_context(CheckpointReader(tmp_path / f"m{m}.st"))
                   for m in range(len(_WEIGHTS))]
        vectors = [compute_task_vector(base, r, f"m{m}") for m, r in enumerate(readers)]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = merge(base, vectors, recipe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    tensor_bytes = base_arr.nbytes
    # Above the one-tensor output: while the last delta is trimmed, M - 1
    # trimmed deltas, the raw one and the trim's two scratch arrays, before
    # the output exists; while the blocks finish, M trimmed deltas and one
    # block's working arrays.  Holding every raw delta through a
    # whole-tensor finish needs about 3M tensors.
    block_scratch = 16 * _BLOCK * 4
    over_output = peak - before - tensor_bytes
    assert over_output < (len(_WEIGHTS) + 1) * tensor_bytes + block_scratch
    eager = [TaskVector(deltas={"w": load_checkpoint(tmp_path / f"m{m}.st").array("w") - base_arr},
                        source_id=f"m{m}") for m in range(len(_WEIGHTS))]
    assert out.array("w").tobytes() == merge(base, eager, recipe).array("w").tobytes()


# --- packed spans of small tensors ---------------------------------------------------------

# six layers in groups of two, plus the global group; group 2 has zero weights
_SPAN_META = {"layer_pattern": "layers.{i}.", "num_layers": "6"}
_SPAN_WEIGHTS = ((0.3, 0.5, 0.7), (0.6, 0.2, 0.9), (0.0, 0.0, 0.0), (0.25, 0.5, 0.75))
_SPAN_DENSITIES = ((0.2, 0.5, 0.8), (0.7, 0.4, 0.1), (0.5, 0.5, 0.5), (0.9, 0.3, 0.6))

# In name order these pack into spans of exactly _BLOCK entries (a.scalar
# to layers.2.w, over three groups), then layers.2.x and layers.3.w, which
# hold _BLOCK + 1 entries between them and so split, then the large
# layers.3.x alone, then layers.4.w to z.end.
_SPAN_SHAPES = {
    "a.scalar": (), "layers.0.w": (3, 5), "layers.0.x": (7,), "layers.1.w": (1000,),
    "layers.2.w": (_BLOCK - 1023,), "layers.2.x": (_BLOCK // 2,),
    "layers.3.w": (_BLOCK // 2 + 1,), "layers.3.x": (_BLOCK + 3,), "layers.4.w": (6,),
    "z.after": (4, 4), "z.end": (5,),
}
_SPAN_ELECTS = [_BLOCK, _BLOCK // 2, _BLOCK // 2 + 1, _BLOCK, 3, 27]


def _span_group(name):
    match = re.match(r"layers\.(\d+)\.", name)
    return int(match.group(1)) // 2 if match else 3


def _span_recipe(method, lam):
    per_model = [ModelCoeffs(source_id=f"m{m}", groups=[
        GroupCoeffs(weight=_SPAN_WEIGHTS[g][m], density=_SPAN_DENSITIES[g][m]) for g in range(4)])
        for m in range(3)]
    return MergeRecipe(method=method, group_size=2, lambda_scale=lam, per_model=per_model)


@pytest.mark.parametrize("method", ["ties", "task_arithmetic", "linear"])
def test_merge_packed_spans_bitwise(method, monkeypatch):
    rng = np.random.default_rng(33)
    base, vectors = _blocked_instance(rng, _SPAN_SHAPES)
    # layers.0.x adds nothing between neighbours that do, and keeps its -0.0
    # entries; layers.1.w adds exactly zero at its -0.0 entries, which the
    # rest of the tensor makes +0.0; layers.4.w has zero weights
    base["layers.0.x"][::2] = -0.0
    base["layers.1.w"][::3] = -0.0
    base["layers.4.w"][::2] = -0.0
    for vec in vectors:
        vec["layers.0.x"][:] = np.where(rng.random(7) < 0.5, np.float32(-0.0), 0.0)
        vec["layers.1.w"][::3] = 0.0
    elect_sizes = []
    elect = merge_core.ties_elect

    def counting_elect(trimmed):
        elect_sizes.append(trimmed[0].size)
        return elect(trimmed)

    monkeypatch.setattr(merge_core, "ties_elect", counting_elect)
    lam = 0.75
    out = merge(Checkpoint({n: Tensor(a) for n, a in base.items()}, metadata=_SPAN_META),
                [TaskVector(deltas=v, source_id=f"m{m}") for m, v in enumerate(vectors)],
                _span_recipe(method, lam))
    weights = {name: list(_SPAN_WEIGHTS[_span_group(name)]) for name in base}
    if method == "ties":
        assert elect_sizes == _SPAN_ELECTS
        densities = [{name: _SPAN_DENSITIES[_span_group(name)][m] for name in base}
                     for m in range(3)]
        want = ref_ties_merge(base, vectors, densities, weights, lam)
    elif method == "task_arithmetic":
        want = ref_task_arithmetic_merge(base, vectors, weights, lam)
    else:
        want = ref_linear_merge(base, vectors, weights)
    for name, shape in _SPAN_SHAPES.items():
        got = out.array(name)
        assert got.shape == shape, name
        assert np.array_equal(got.view(np.uint32), want[name].view(np.uint32)), name
    assert not out.array("layers.1.w")[::3].view(np.uint32).any()
    # layers.4.w keeps its base bits under every method; layers.0.x too,
    # except under linear, whose weights there do not sum to zero
    for name in ["layers.4.w"] + (["layers.0.x"] if method != "linear" else []):
        got = out.array(name)
        assert np.array_equal(got.view(np.uint32), base[name].view(np.uint32)), name
        assert np.signbit(got[got == 0]).any(), name


def test_ties_steps_run_once_per_packed_span(rng, monkeypatch):
    calls = {"trim": [], "elect": [], "weights": []}
    trim, elect, disjoint = (merge_core.ties_trim, merge_core.ties_elect,
                             merge_core.ties_disjoint_merge)

    def counting_trim(delta, density):
        calls["trim"].append(delta.shape)
        return trim(delta, density)

    def counting_elect(trimmed):
        calls["elect"].append(trimmed[0].size)
        return elect(trimmed)

    def counting_disjoint(trimmed, gamma, weights):
        calls["weights"].append(weights)
        return disjoint(trimmed, gamma, weights)

    monkeypatch.setattr(merge_core, "ties_trim", counting_trim)
    monkeypatch.setattr(merge_core, "ties_elect", counting_elect)
    monkeypatch.setattr(merge_core, "ties_disjoint_merge", counting_disjoint)
    shapes = {"a.w": (2, 3), "layers.0.w": (4,), "layers.1.w": (), "layers.2.w": (3, 3)}
    base, vectors = _blocked_instance(rng, shapes)
    merge(Checkpoint({n: Tensor(a) for n, a in base.items()}, metadata=_SPAN_META),
          [TaskVector(deltas=v, source_id=f"m{m}") for m, v in enumerate(vectors)],
          _span_recipe("ties", 1.0))
    # each delta is still trimmed whole, then the four tensors finish as one
    assert calls["trim"] == [shape for shape in shapes.values() for _ in range(3)]
    assert calls["elect"] == [20]
    # the span crosses groups, so each model's weight is one f32 per entry
    sizes = [6, 4, 1, 9]
    groups = [3, 0, 0, 1]
    for m, weight in enumerate(calls["weights"][0]):
        want = np.repeat(np.array([_SPAN_WEIGHTS[g][m] for g in groups], np.float32), sizes)
        assert weight.dtype == np.float32
        assert np.array_equal(weight, want)


def test_disjoint_merge_per_entry_weights_match_scalar_segments():
    rng = np.random.default_rng(34)
    sizes = [5, 1, 300, 17, 64]
    segment_weights = [(0.3, 0.5, 0.7), (0.0, 0.9, 0.1), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                       (0.25, 0.0, 0.6)]
    n = sum(sizes)
    trimmed = [bf16_grid(rng.laplace(0.0, 1.0, n)) for _ in range(3)]
    for t in trimmed:
        t[rng.random(n) < 0.3] = 0.0
        t[rng.random(n) < 0.1] = -0.0
    trimmed[0][:3] = -trimmed[1][:3]  # elected sign 0 where a pair cancels
    gamma = ties_elect(trimmed)
    weights = [np.repeat(np.array([w[m] for w in segment_weights], np.float32), sizes)
               for m in range(3)]
    got = ties_disjoint_merge(trimmed, gamma, weights)
    edges = np.cumsum([0] + sizes)
    want = np.concatenate([
        ties_disjoint_merge([t[lo:hi] for t in trimmed], gamma[lo:hi], list(w))
        for lo, hi, w in zip(edges, edges[1:], segment_weights)])
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert not got[edges[2]:edges[3]].view(np.uint32).any()


@pytest.mark.parametrize("dtype", ["f32", "f16", "bf16"])
@pytest.mark.parametrize("method", ["ties", "task_arithmetic", "linear"])
def test_merge_from_open_base_matches_loaded_base(method, dtype, tmp_path):
    rng = np.random.default_rng(35)
    base, vectors = _blocked_instance(rng, _SPAN_SHAPES)
    for values in base.values():
        values.reshape(-1)[::5] = -0.0
    save_checkpoint(Checkpoint({n: Tensor(a, dtype) for n, a in base.items()}, metadata=_SPAN_META),
                    tmp_path / "base.st")
    for m, vec in enumerate(vectors):
        tuned = {n: Tensor(base[n] + vec[n], dtype) for n in base}
        # layers.0.x is stored as the base, so it contributes exactly zero
        tuned["layers.0.x"] = Tensor(base["layers.0.x"], dtype)
        save_checkpoint(Checkpoint(tuned, metadata=_SPAN_META), tmp_path / f"m{m}.st")
    recipe = _span_recipe(method, 0.75)

    loaded = load_checkpoint(tmp_path / "base.st")
    eager = merge(loaded, [compute_task_vector(loaded, load_checkpoint(tmp_path / f"m{m}.st"), f"m{m}")
                           for m in range(len(vectors))], recipe)
    with contextlib.ExitStack() as stack:
        reader = stack.enter_context(CheckpointReader(tmp_path / "base.st"))
        readers = [stack.enter_context(CheckpointReader(tmp_path / f"m{m}.st"))
                   for m in range(len(vectors))]
        lazy = merge(reader, [compute_task_vector(reader, r, f"m{m}") for m, r in enumerate(readers)],
                     recipe)
    assert lazy.metadata == eager.metadata == _SPAN_META
    assert checkpoint_digest(lazy) == checkpoint_digest(eager)
    kept = lazy.array("layers.0.x")
    if method != "linear":
        # the tensor that adds nothing keeps its -0.0 base entries
        assert np.array_equal(kept.view(np.uint32), loaded.array("layers.0.x").view(np.uint32))
        assert np.signbit(kept[kept == 0]).any()


# --- linear -------------------------------------------------------------------------------

def test_linear_equal_weights_is_average():
    base = ckpt(metadata={"layer_pattern": "layers.{i}.", "num_layers": "1"}, x=[0.0, 10.0])
    v1 = tv("m0", x=[2.0, -2.0])
    v2 = tv("m1", x=[4.0, 2.0])
    recipe = simple_recipe("linear", 1, 2, n_models=2, weight=0.5)
    out = merge(base, [v1, v2], recipe)
    np.testing.assert_allclose(out.array("x"), [3.0, 10.0])


def test_linear_zero_weights_pass_base():
    base = ckpt(metadata={"layer_pattern": "layers.{i}.", "num_layers": "1"}, x=[7.0])
    v1 = tv("m0", x=[5.0])
    recipe = simple_recipe("linear", 1, 2, weight=0.0)
    out = merge(base, [v1], recipe)
    assert np.array_equal(out.array("x"), [7.0])


# --- bitwise guards for task arithmetic and linear ------------------------------------------

def _group_of(name, group_size, n_groups):
    match = re.match(r"layers\.(\d+)\.", name)
    return int(match.group(1)) // group_size if match else n_groups - 1


def edge_case_instance(rng, method):
    """A random instance with -0.0 base entries, zero-weight groups and
    all-zero deltas, the inputs where the finishing rules differ."""
    inst = random_ties_instance(rng)
    recipe = inst["recipe"]
    recipe.method = method
    n_groups = recipe.num_groups
    dead_group = int(rng.integers(0, n_groups))
    for model in recipe.per_model:
        for g, coeffs in enumerate(model.groups):
            if g == dead_group or rng.uniform() < 0.25:
                coeffs.weight = 0.0
    # base_arrays and vector_arrays alias the arrays that merge reads
    for base_arr in inst["base_arrays"].values():
        base_arr[rng.uniform(size=base_arr.shape) < 0.4] = -0.0
    for vec in inst["vector_arrays"]:
        for delta in vec.values():
            if rng.uniform() < 0.3:
                delta[...] = float(rng.choice([0.0, -0.0]))
    inst["weights"] = {
        name: [m.groups[_group_of(name, recipe.group_size, n_groups)].weight
               for m in recipe.per_model]
        for name in inst["base_arrays"]
    }
    return inst


@pytest.mark.parametrize("method", ["task_arithmetic", "linear"])
def test_merge_bitwise_matches_scalar_reference(rng, method):
    kept = flipped = 0
    for _ in range(300):
        inst = edge_case_instance(rng, method)
        out = merge(inst["base"], inst["vectors"], inst["recipe"])
        if method == "task_arithmetic":
            want = ref_task_arithmetic_merge(inst["base_arrays"], inst["vector_arrays"],
                                             inst["weights"], inst["lambda"])
        else:
            want = ref_linear_merge(inst["base_arrays"], inst["vector_arrays"], inst["weights"])
        for name, base_arr in inst["base_arrays"].items():
            got = out.array(name)
            assert got.tobytes() == want[name].tobytes(), name
            neg_zero = np.signbit(base_arr) & (base_arr == 0)
            kept += int(np.sum(neg_zero & (got == 0) & np.signbit(got)))
            flipped += int(np.sum(neg_zero & (got == 0) & ~np.signbit(got)))
    # the instances reach both sides of the -0.0 rule: kept and flipped to +0.0
    assert kept > 0 and flipped > 0


# --- recipe serialization ---------------------------------------------------------------------

def test_recipe_json_round_trip(tmp_path):
    recipe = MergeRecipe(
        method="ties",
        group_size=10,
        lambda_scale=1.0,
        per_model=[
            ModelCoeffs("coder", [GroupCoeffs(0.45, 0.9), GroupCoeffs(0.5, 1.0)], path="/a"),
            ModelCoeffs("math", [GroupCoeffs(0.58, 1.0), GroupCoeffs(0.7, 1.0)], path="/b"),
        ],
    )
    path = tmp_path / "r.json"
    path.write_text(recipe.dumps())
    loaded = load_recipe(path)
    assert loaded == recipe


def test_recipe_rejects_bad_weight():
    with pytest.raises(InvalidWeight):
        recipe_from_json_obj(
            {
                "method": "ties",
                "group_size": 1,
                "models": [{"source_id": "a", "groups": [{"weight": 1.5, "density": 1.0}]}],
            }
        )


def test_recipe_rejects_bad_density():
    with pytest.raises(InvalidDensity):
        recipe_from_json_obj(
            {
                "method": "ties",
                "group_size": 1,
                "models": [{"source_id": "a", "groups": [{"weight": 0.5, "density": 0.0}]}],
            }
        )


def test_recipe_rejects_unknown_method():
    with pytest.raises(RecipeMethodMismatch):
        recipe_from_json_obj(
            {
                "method": "slerp",
                "group_size": 1,
                "models": [{"source_id": "a", "groups": [{"weight": 0.5}]}],
            }
        )


def test_recipe_rejects_uneven_groups():
    with pytest.raises(GroupCountMismatch):
        recipe_from_json_obj(
            {
                "method": "ties",
                "group_size": 1,
                "models": [
                    {"source_id": "a", "groups": [{"weight": 0.5}]},
                    {"source_id": "b", "groups": [{"weight": 0.5}, {"weight": 0.5}]},
                ],
            }
        )


def test_recipe_rejects_duplicate_ids():
    with pytest.raises(RecipeModelMismatch):
        recipe_from_json_obj(
            {
                "method": "ties",
                "group_size": 1,
                "models": [
                    {"source_id": "a", "groups": [{"weight": 0.5}]},
                    {"source_id": "a", "groups": [{"weight": 0.5}]},
                ],
            }
        )
