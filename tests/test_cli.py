"""End-to-end tests for the command-line surface.

Every test drives main() in process and checks the exit code, the JSON
printed to stdout, the diagnostics printed to stderr, and the files the
command leaves behind.
"""

import collections
import hashlib
import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from umm import errors
from umm.cli import main
from umm.distro_fusion import (
    DistributionMatrix,
    FusionExample,
    example_contexts,
    init_toy_model,
    load_distribution,
    load_fusion_corpus,
    save_toy_model,
)
from umm.merge_core import compute_task_vector, load_recipe, merge
from umm.tensor_store import (
    Checkpoint,
    CheckpointReader,
    Tensor,
    checkpoint_digest,
    load_checkpoint,
    save_checkpoint,
)
from umm.toy_mlp import init_mlp, train_mlp

from conftest import write_fusion_corpus
from reference_impls import ref_sft_train


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def layered_ckpt(rng, num_layers, width=3, extra=("embed.w",)):
    tensors = {
        f"layers.{i}.w": Tensor(rng.standard_normal((width, width)).astype(np.float32))
        for i in range(num_layers)
    }
    for name in extra:
        tensors[name] = Tensor(rng.standard_normal((width,)).astype(np.float32))
    meta = {"layer_pattern": "layers.{i}.", "num_layers": str(num_layers)}
    return Checkpoint(tensors, metadata=meta)


def recipe_obj(method, group_size, num_groups, models, lambda_scale=1.0):
    """models: list of (source_id, path, [(weight, density), ...] or (w, d))."""
    encoded = []
    for source_id, path, groups in models:
        if isinstance(groups, tuple):
            groups = [groups] * num_groups
        encoded.append(
            {
                "source_id": source_id,
                "path": path,
                "groups": [{"weight": w, "density": d} for w, d in groups],
            }
        )
    return {
        "method": method,
        "group_size": group_size,
        "lambda_scale": lambda_scale,
        "models": encoded,
    }


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")


def write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))


def assert_one_located_error(code, err, where):
    """Exit 1 with exactly one ERROR line: a UmmError naming ``where``."""
    assert code == 1
    lines = [line for line in err.splitlines() if line.startswith("ERROR umm: ")]
    assert len(lines) == 1, err
    name = lines[0][len("ERROR umm: "):].split(":")[0]
    assert issubclass(getattr(errors, name), errors.UmmError), lines[0]
    assert where in lines[0], lines[0]


# --- usage errors ----------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "--bogus", "x"])
    assert exc.value.code == 2


def test_model_flag_without_equals_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["merge", "--base", "b", "--recipe", "r", "--out", "o",
              "--model", "no-separator"])
    assert exc.value.code == 2


# --- merge -----------------------------------------------------------------------


def test_merge_zero_weight_recipe_reproduces_base(tmp_path, capsys):
    rng = np.random.default_rng(7)
    base = layered_ckpt(rng, num_layers=2)
    save_checkpoint(base, tmp_path / "base.st")
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "a.st")
    recipe = recipe_obj("task_arithmetic", 1, 3,
                        [("a", str(tmp_path / "a.st"), (0.0, 1.0))])
    write_json(tmp_path / "recipe.json", recipe)

    code, out, _ = run_cli(
        ["--log-level", "warning", "merge",
         "--base", str(tmp_path / "base.st"),
         "--recipe", str(tmp_path / "recipe.json"),
         "--out", str(tmp_path / "merged.st")],
        capsys,
    )
    assert code == 0
    assert out["tensors"] == 3 and out["method"] == "task_arithmetic"

    save_checkpoint(base, tmp_path / "base_again.st")
    assert sha256_file(tmp_path / "merged.st") == sha256_file(tmp_path / "base_again.st")


def test_merge_group_report_lists_layer_spans_and_global(tmp_path, capsys):
    rng = np.random.default_rng(8)
    base = layered_ckpt(rng, num_layers=30, width=2)
    save_checkpoint(base, tmp_path / "base.st")
    save_checkpoint(layered_ckpt(rng, num_layers=30, width=2), tmp_path / "m.st")
    groups = [(0.45, 0.90), (0.083, 0.73), (0.52, 1.0), (0.50, 1.0)]
    recipe = recipe_obj("ties", 10, 4, [("coder", str(tmp_path / "m.st"), groups)])
    write_json(tmp_path / "recipe.json", recipe)

    code, out, _ = run_cli(
        ["--log-level", "warning", "merge",
         "--base", str(tmp_path / "base.st"),
         "--recipe", str(tmp_path / "recipe.json"),
         "--out", str(tmp_path / "merged.st")],
        capsys,
    )
    assert code == 0
    spans = [row["span"] for row in out["groups"]]
    assert spans == ["layers 0-9", "layers 10-19", "layers 20-29", "global"]
    for row, (weight, density) in zip(out["groups"], groups):
        assert row["models"]["coder"] == {"weight": weight, "density": density}


def test_merge_group_count_mismatch_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(9)
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "base.st")
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "a.st")
    # 2 layers at group_size 1 need 2 layer groups + 1 global = 3, not 2
    recipe = recipe_obj("ties", 1, 2, [("a", str(tmp_path / "a.st"), (0.5, 1.0))])
    write_json(tmp_path / "recipe.json", recipe)

    code, _, err = run_cli(
        ["merge", "--base", str(tmp_path / "base.st"),
         "--recipe", str(tmp_path / "recipe.json"),
         "--out", str(tmp_path / "merged.st")],
        capsys,
    )
    assert code == 1
    assert "GroupCountMismatch" in err
    assert not (tmp_path / "merged.st").exists()


def test_merge_model_flag_supplies_missing_path(tmp_path, capsys):
    rng = np.random.default_rng(10)
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "base.st")
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "a.st")
    recipe = recipe_obj("task_arithmetic", 1, 3, [("a", "", (0.3, 1.0))])
    write_json(tmp_path / "recipe.json", recipe)
    args = ["--log-level", "warning", "merge",
            "--base", str(tmp_path / "base.st"),
            "--recipe", str(tmp_path / "recipe.json"),
            "--out", str(tmp_path / "merged.st")]

    code, _, err = run_cli(args, capsys)
    assert code == 1 and "no checkpoint path" in err

    code, out, _ = run_cli(args + ["--model", f"a={tmp_path / 'a.st'}"], capsys)
    assert code == 0 and out["tensors"] == 3


def test_merge_unknown_model_flag_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(11)
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "base.st")
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "a.st")
    recipe = recipe_obj("ties", 1, 3, [("a", str(tmp_path / "a.st"), (0.5, 1.0))])
    write_json(tmp_path / "recipe.json", recipe)

    code, _, err = run_cli(
        ["merge", "--base", str(tmp_path / "base.st"),
         "--recipe", str(tmp_path / "recipe.json"),
         "--out", str(tmp_path / "merged.st"),
         "--model", f"zz={tmp_path / 'a.st'}"],
        capsys,
    )
    assert code == 1 and "zz" in err


def set_field(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@pytest.mark.parametrize("path,value", [
    (("group_size",), 1.7), (("lambda_scale",), "1"), (("lambda_scale",), True),
    (("models", 0, "groups", 1, "weight"), "0.5"), (("models", 0, "source_id"), 7),
], ids=["group-size-float", "lambda-string", "lambda-bool", "weight-string", "source-id-int"])
def test_merge_wrong_typed_recipe_field_exits_1(tmp_path, capsys, path, value):
    rng = np.random.default_rng(12)
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "base.st")
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "a.st")
    recipe = recipe_obj("task_arithmetic", 1, 3, [("a", str(tmp_path / "a.st"), (0.5, 1.0))])
    set_field(recipe, path, value)
    write_json(tmp_path / "recipe.json", recipe)

    code, _, err = run_cli(
        ["merge", "--base", str(tmp_path / "base.st"),
         "--recipe", str(tmp_path / "recipe.json"),
         "--out", str(tmp_path / "merged.st")],
        capsys,
    )
    assert code == 1
    lines = [line for line in err.splitlines() if line.startswith("ERROR umm: ")]
    assert len(lines) == 1 and path[-1] in lines[0], err
    assert not (tmp_path / "merged.st").exists()


def _nan_in_last_tensor(path):
    # the last tensor in name order ends the data region
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([np.nan], "<f4").tobytes()
    path.write_bytes(bytes(raw))
    return f"NonFiniteValue: {path}: tensor 'layers.1.w' contains NaN or Inf"


def _header_past_eof(path):
    path.write_bytes((1 << 40).to_bytes(8, "little") + b"{}")
    return f"MalformedHeader: {path}: header length {1 << 40} exceeds file size 10"


def _truncated_data(path):
    raw = path.read_bytes()
    data_len = len(raw) - 8 - int.from_bytes(raw[:8], "little")
    path.write_bytes(raw[:-4])
    return (f"OffsetOverlap: {path}: data region is {data_len - 4} bytes "
            f"but offsets cover {data_len}")


@pytest.mark.parametrize("corrupt", [_nan_in_last_tensor, _header_past_eof, _truncated_data],
                         ids=["nan-last-tensor", "header-past-eof", "truncated-data"])
def test_merge_bad_finetuned_file_exits_1_before_writing(tmp_path, capsys, corrupt):
    rng = np.random.default_rng(13)
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "base.st")
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "a.st")
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "b.st")
    message = corrupt(tmp_path / "b.st")
    recipe = recipe_obj("ties", 1, 3, [("a", str(tmp_path / "a.st"), (0.5, 0.5)),
                                       ("b", str(tmp_path / "b.st"), (0.5, 0.5))])
    write_json(tmp_path / "recipe.json", recipe)

    code, _, err = run_cli(
        ["merge", "--base", str(tmp_path / "base.st"),
         "--recipe", str(tmp_path / "recipe.json"),
         "--out", str(tmp_path / "merged.st")],
        capsys,
    )
    assert_one_located_error(code, err, message)
    assert not (tmp_path / "merged.st").exists()


def test_merge_overflowing_output_exits_1_before_writing(tmp_path, capsys):
    rng = np.random.default_rng(14)
    base = layered_ckpt(rng, num_layers=2)
    save_checkpoint(base, tmp_path / "base.st")
    tuned = Checkpoint({name: Tensor(t.data + np.float32(2.0)) for name, t in base.items()},
                       metadata=base.metadata)
    save_checkpoint(tuned, tmp_path / "a.st")
    recipe = recipe_obj("task_arithmetic", 1, 3, [("a", str(tmp_path / "a.st"), (1.0, 1.0))],
                        lambda_scale=3e38)
    write_json(tmp_path / "recipe.json", recipe)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            ["merge", "--base", str(tmp_path / "base.st"),
             "--recipe", str(tmp_path / "recipe.json"),
             "--out", str(tmp_path / "merged.st")],
            capsys,
        )
    # the overflow is reported once, by the error, and not as a numpy warning
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert_one_located_error(code, err, "NonFiniteValue: tensor 'embed.w' contains NaN or Inf")
    assert not (tmp_path / "merged.st").exists()


def test_merge_holds_one_tensors_deltas_at_a_time(tmp_path, capsys):
    rng = np.random.default_rng(15)
    num_layers, width, num_models = 12, 256, 3
    meta = {"layer_pattern": "layers.{i}.", "num_layers": str(num_layers)}
    arrays = {f"layers.{i}.w": rng.standard_normal((width, width), dtype=np.float32)
              for i in range(num_layers)}
    # the largest tensor comes last, when the output is nearly whole
    arrays["out.w"] = rng.standard_normal((2 * width, width), dtype=np.float32)
    base = Checkpoint({n: Tensor(a, "bf16") for n, a in arrays.items()}, metadata=meta)
    save_checkpoint(base, tmp_path / "base.st")
    models = []
    for m in range(num_models):
        tuned = Checkpoint({n: Tensor(a + rng.laplace(0.0, 0.01, a.shape).astype(np.float32), "bf16")
                            for n, a in arrays.items()}, metadata=meta)
        save_checkpoint(tuned, tmp_path / f"m{m}.st")
        models.append((f"m{m}", str(tmp_path / f"m{m}.st"), (0.3 + 0.2 * m, 0.2 + 0.3 * m)))
    write_json(tmp_path / "recipe.json", recipe_obj("ties", 4, 4, models))
    argv = ["--log-level", "warning", "merge", "--base", str(tmp_path / "base.st"),
            "--recipe", str(tmp_path / "recipe.json"), "--out", str(tmp_path / "merged.st")]

    tracemalloc.start()
    try:
        code, out, _ = run_cli(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out["tensors"] == num_layers + 1
    model_bytes = sum(a.nbytes for a in arrays.values())
    largest = max(a.nbytes for a in arrays.values())
    bound = model_bytes + (2 * num_models + 4) * largest
    assert peak < bound, (peak, bound)

    # the same bytes as a merge of eagerly loaded task vectors
    loaded = load_checkpoint(tmp_path / "base.st")
    vectors = [compute_task_vector(loaded, load_checkpoint(path), sid) for sid, path, _ in models]
    eager = merge(loaded, vectors, load_recipe(tmp_path / "recipe.json"))
    assert sha256_file(tmp_path / "merged.st") == checkpoint_digest(eager)


def _merge_inputs(tmp_path, method="ties"):
    """A base with one tensor larger than a span block, two fine-tuned
    models and a recipe; returns the merge argv without ``--out``."""
    rng = np.random.default_rng(16)
    base = layered_ckpt(rng, num_layers=3)
    base.tensors["layers.2.w"] = Tensor(rng.standard_normal((200, 200)).astype(np.float32), "bf16")
    save_checkpoint(base, tmp_path / "base.st")
    models = []
    for m, sid in enumerate("ab"):
        tuned = Checkpoint({n: Tensor(t.data + rng.laplace(0.0, 0.01, t.shape).astype(np.float32),
                                      t.dtype) for n, t in base.items()}, metadata=base.metadata)
        save_checkpoint(tuned, tmp_path / f"{sid}.st")
        models.append((sid, str(tmp_path / f"{sid}.st"), (0.4 + 0.2 * m, 0.3 + 0.4 * m)))
    write_json(tmp_path / "recipe.json", recipe_obj(method, 1, 4, models, lambda_scale=0.9))
    return base.names(), ["merge", "--base", str(tmp_path / "base.st"),
                          "--recipe", str(tmp_path / "recipe.json")]


@pytest.mark.parametrize("method", ["ties", "task_arithmetic", "linear"])
def test_merge_reads_each_input_tensor_once(method, tmp_path, capsys, monkeypatch):
    names, argv = _merge_inputs(tmp_path, method)
    reads = collections.Counter()
    read = CheckpointReader.read

    def counting_read(self, name):
        reads[(Path(self.path).name, name)] += 1
        return read(self, name)

    monkeypatch.setattr(CheckpointReader, "read", counting_read)
    code, out, _ = run_cli(argv + ["--out", str(tmp_path / "merged.st")], capsys)
    assert code == 0 and out["tensors"] == len(names)
    # the base once, not once more per model, and each model's tensor once
    assert reads == {(f"{sid}.st", name): 1 for sid in ("base", "a", "b") for name in names}


@pytest.mark.parametrize("target", ["base.st", "a.st"])
def test_merge_out_onto_an_input_file_writes_the_same_bytes(target, tmp_path, capsys):
    _, argv = _merge_inputs(tmp_path)
    code, _, _ = run_cli(argv + ["--out", str(tmp_path / "fresh.st")], capsys)
    assert code == 0
    code, _, _ = run_cli(argv + ["--out", str(tmp_path / target)], capsys)
    assert code == 0
    assert sha256_file(tmp_path / target) == sha256_file(tmp_path / "fresh.st")


# --- search ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def expert_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("experts")
    xs = np.linspace(-2.0, 2.0, 64)
    base = init_mlp(seed=0)
    save_checkpoint(base, tmp / "base.st")
    for sid, values in (("sin", np.sin(2.5 * xs)), ("cos", np.cos(1.5 * xs))):
        expert = train_mlp(base, xs, values, lr=0.01, steps=150)
        save_checkpoint(expert, tmp / f"{sid}.st")
    return tmp


def search_config_obj(expert_dir, models=("cos", "sin"), iterations=2, seed=0,
                      threads=1, evaluator=None):
    if evaluator is None:
        evaluator = {"builtin": "toy-regression",
                     "targets": [["sin", 2.5], ["cos", 1.5]]}
    return {
        "method": "ties",
        "group_size": 3,
        "base_path": str(expert_dir / "base.st"),
        "models": [{"source_id": sid, "path": str(expert_dir / f"{sid}.st")}
                   for sid in models],
        "evaluator": evaluator,
        "iterations": iterations,
        "seed": seed,
        "threads": threads,
    }


def test_search_outputs_deterministic_across_runs_and_threads(tmp_path, expert_dir, capsys):
    write_json(tmp_path / "config.json", search_config_obj(expert_dir))
    results = []
    for name, threads in (("run_a", None), ("run_b", 4), ("run_c", None)):
        argv = ["--log-level", "warning"]
        if threads is not None:
            argv += ["--threads", str(threads)]
        argv += ["search", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / name)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        results.append((name, out))

    (_, first), *rest = results
    for name, out in rest:
        assert out == first, f"{name} diverged"
    recipe_a = (tmp_path / "run_a" / "best_recipe.json").read_bytes()
    for name in ("run_b", "run_c"):
        assert (tmp_path / name / "best_recipe.json").read_bytes() == recipe_a
        assert ((tmp_path / name / "history.csv").read_bytes()
                == (tmp_path / "run_a" / "history.csv").read_bytes())
    history = (tmp_path / "run_a" / "history.csv").read_text().splitlines()
    assert history[0] == "generation,best,best_so_far"
    assert len(history) == 1 + len(first["history"])


def test_search_seed_flag_overrides_config(tmp_path, expert_dir, capsys):
    write_json(tmp_path / "config.json",
               search_config_obj(expert_dir, iterations=1))
    base_args = ["--log-level", "warning"]
    tail = ["search", "--config", str(tmp_path / "config.json")]
    code, out0, _ = run_cli(base_args + tail + ["--out", str(tmp_path / "s0")], capsys)
    assert code == 0
    code, out1, _ = run_cli(base_args + ["--seed", "1"] + tail
                            + ["--out", str(tmp_path / "s1")], capsys)
    assert code == 0
    assert out0["best_genome"] != out1["best_genome"]


def test_search_bad_config_exits_1(tmp_path, capsys):
    write_json(tmp_path / "config.json", {"method": "ties"})
    code, _, err = run_cli(
        ["search", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 1 and "missing or malformed" in err


def test_search_zero_group_size_exits_1(tmp_path, expert_dir, capsys):
    config = search_config_obj(expert_dir)
    config["group_size"] = 0
    write_json(tmp_path / "config.json", config)
    code, _, err = run_cli(
        ["search", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 1
    lines = [line for line in err.splitlines() if line.startswith("ERROR umm: ")]
    assert len(lines) == 1 and "group_size" in lines[0], err


@pytest.mark.parametrize("field,value", [
    ("pop_size", "12"), ("pop_size", 2.5), ("pop_size", 0), ("pop_size", 1),
    ("pop_size", True), ("cache_dir", 5),
], ids=["pop-string", "pop-float", "pop-zero", "pop-one", "pop-bool", "cache-dir-int"])
def test_search_bad_pop_size_or_cache_dir_exits_1(tmp_path, expert_dir, capsys, field, value):
    config = search_config_obj(expert_dir)
    config[field] = value
    write_json(tmp_path / "config.json", config)
    code, _, err = run_cli(
        ["search", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 1
    lines = [line for line in err.splitlines() if line.startswith("ERROR umm: ")]
    assert len(lines) == 1 and field in lines[0], err


@pytest.mark.parametrize("field,value", [
    ("retries", 0.5), ("retries", -3), ("seed", True), ("threads", 1.9), ("iterations", "3"),
    ("evaluator", [["builtin", "toy-regression"]]),
], ids=["retries-float", "retries-negative", "seed-bool", "threads-float", "iterations-string",
        "evaluator-pairs"])
def test_search_wrong_typed_or_negative_field_exits_1(tmp_path, expert_dir, capsys, field, value):
    config = search_config_obj(expert_dir)
    config[field] = value
    write_json(tmp_path / "config.json", config)
    code, _, err = run_cli(
        ["search", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 1
    lines = [line for line in err.splitlines() if line.startswith("ERROR umm: ")]
    assert len(lines) == 1 and field in lines[0], err


@pytest.mark.parametrize("top_level", [[], "x", 5], ids=["list", "string", "int"])
def test_search_seed_and_threads_flags_on_a_non_object_config_exit_1(tmp_path, capsys,
                                                                    top_level):
    write_json(tmp_path / "config.json", top_level)
    code, _, err = run_cli(
        ["--seed", "1", "--threads", "2", "search", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert_one_located_error(code, err, "search config: expected a JSON object")


COMMAND_SPEC = {"command": "evaluate {checkpoint}"}
TOY_SPEC = {"builtin": "toy-regression"}


@pytest.mark.parametrize("spec,field,value", [
    (COMMAND_SPEC, "command", 5),
    (COMMAND_SPEC, "timeout", True),
    ({"builtin": "l2-to-target", "target_path": "target.st"}, "target_path", 0),
    (TOY_SPEC, "points", True),
    (TOY_SPEC, "points", "64"),
    (TOY_SPEC, "points", 0),
    (TOY_SPEC, "targets", [["sin", "2.5"]]),
], ids=["command-int", "timeout-bool", "target-path-int", "points-bool", "points-string",
        "points-zero", "frequency-string"])
def test_search_bad_evaluator_field_exits_1(tmp_path, expert_dir, capsys, spec, field, value):
    evaluator = dict(spec, **{field: value})
    write_json(tmp_path / "config.json",
               search_config_obj(expert_dir, iterations=0, evaluator=evaluator))
    code, _, err = run_cli(
        ["search", "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 1
    lines = [line for line in err.splitlines() if line.startswith("ERROR umm: ")]
    assert len(lines) == 1 and field in lines[0], err


CRASHY_EVALUATOR = """\
import hashlib, json, os, sys

ckpt, counter_path, fail_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
count = 0
if os.path.exists(counter_path):
    with open(counter_path) as fh:
        count = int(fh.read())
count += 1
with open(counter_path, "w") as fh:
    fh.write(str(count))
if fail_at <= count < fail_at + 2:
    sys.exit(3)
with open(ckpt, "rb") as fh:
    digest = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps({"fitness": int(digest[:8], 16) / 2.0 ** 32}))
"""


def test_search_resume_after_crash_matches_uninterrupted(tmp_path, expert_dir, capsys):
    script = tmp_path / "eval.py"
    script.write_text(CRASHY_EVALUATOR)

    def config_path(name, counter, fail_at):
        command = f"{sys.executable} -S {script} {{checkpoint}} {counter} {fail_at}"
        obj = search_config_obj(
            expert_dir, models=("sin",), iterations=3,
            evaluator={"command": command, "timeout": 60.0},
        )
        path = tmp_path / name
        write_json(path, obj)
        return path

    # reference run never crashes
    ref_config = config_path("ref.json", tmp_path / "ref_count.txt", 10_000)
    code, ref_out, _ = run_cli(
        ["--log-level", "warning", "search", "--config", str(ref_config),
         "--out", str(tmp_path / "ref")],
        capsys,
    )
    assert code == 0

    # crashing run dies partway through, after at least one generation persisted
    crash_config = config_path("crash.json", tmp_path / "crash_count.txt", 12)
    crash_args = ["--log-level", "warning", "search", "--config", str(crash_config),
                  "--out", str(tmp_path / "crash")]
    code, _, err = run_cli(crash_args, capsys)
    assert code == 1 and "EvaluatorFailed" in err
    assert (tmp_path / "crash" / "search_state.json").exists()

    code, resumed_out, _ = run_cli(crash_args + ["--resume"], capsys)
    assert code == 0

    # invocation counts differ (the crashed generation ran twice); all else matches
    ref_out.pop("evaluator_invocations")
    resumed_out.pop("evaluator_invocations")
    assert resumed_out == ref_out
    assert ((tmp_path / "crash" / "best_recipe.json").read_bytes()
            == (tmp_path / "ref" / "best_recipe.json").read_bytes())
    assert ((tmp_path / "crash" / "history.csv").read_bytes()
            == (tmp_path / "ref" / "history.csv").read_bytes())


# --- align-stats -----------------------------------------------------------------


def token_lines_identical():
    return [
        {"ids": [0, 1, 2], "surfaces": ["▁the", "▁cat", "."]},
        {"ids": [1, 2], "surfaces": ["▁cat", "."]},
        {"ids": [3, 0, 1], "surfaces": ["▁a", "▁the", "▁cat"]},
    ]


def test_align_stats_identical_files_are_all_one_one(tmp_path, capsys):
    lines = token_lines_identical()
    write_jsonl(tmp_path / "pivot.jsonl", lines)
    write_jsonl(tmp_path / "source.jsonl", lines)
    code, out, _ = run_cli(
        ["--log-level", "warning", "align-stats",
         "--pivot", str(tmp_path / "pivot.jsonl"),
         "--source", str(tmp_path / "source.jsonl"),
         "--out", str(tmp_path / "stats.jsonl")],
        capsys,
    )
    assert code == 0
    total_tokens = sum(len(line["ids"]) for line in lines)
    assert out["kinds"] == {"one_one": total_tokens, "one_many": 0,
                            "many_one": 0, "many_many": 0}
    assert out["total_count"] == total_tokens


def test_align_stats_split_fixture_is_all_many_one(tmp_path, capsys):
    # each source word is split into pieces on the pivot side, so every
    # line aligns as exactly one block of several pivot tokens to one
    # source token
    words = [
        (["hel", "lo"], "hello"),
        (["ca", "t"], "cat"),
        (["wal", "k", "ing"], "walking"),
        (["mer", "ge"], "merge"),
    ]
    pivot_lines = []
    source_lines = []
    next_id = 0
    for pieces, whole in words:
        pivot_lines.append(
            {"ids": list(range(next_id, next_id + len(pieces))), "surfaces": pieces}
        )
        source_lines.append({"ids": [next_id], "surfaces": [whole]})
        next_id += len(pieces)
    write_jsonl(tmp_path / "pivot.jsonl", pivot_lines)
    write_jsonl(tmp_path / "source.jsonl", source_lines)

    code, out, _ = run_cli(
        ["--log-level", "warning", "align-stats",
         "--pivot", str(tmp_path / "pivot.jsonl"),
         "--source", str(tmp_path / "source.jsonl"),
         "--out", str(tmp_path / "stats.jsonl")],
        capsys,
    )
    assert code == 0
    assert out["kinds"] == {"one_one": 0, "one_many": 0,
                            "many_one": len(words), "many_many": 0}


def test_align_stats_empty_input_exits_1(tmp_path, capsys):
    (tmp_path / "pivot.jsonl").write_text("")
    write_jsonl(tmp_path / "source.jsonl", token_lines_identical())
    code, _, err = run_cli(
        ["align-stats", "--pivot", str(tmp_path / "pivot.jsonl"),
         "--source", str(tmp_path / "source.jsonl"),
         "--out", str(tmp_path / "stats.jsonl")],
        capsys,
    )
    assert code == 1 and "EmptySequence" in err


def test_align_stats_mismatched_line_counts_exit_1(tmp_path, capsys):
    lines = token_lines_identical()
    write_jsonl(tmp_path / "pivot.jsonl", lines)
    write_jsonl(tmp_path / "source.jsonl", lines[:2])
    code, _, err = run_cli(
        ["align-stats", "--pivot", str(tmp_path / "pivot.jsonl"),
         "--source", str(tmp_path / "source.jsonl"),
         "--out", str(tmp_path / "stats.jsonl")],
        capsys,
    )
    assert code == 1 and "LengthMismatch" in err


@pytest.mark.parametrize("bad_line", [
    {"ids": 5, "surfaces": ["a"]},
    {"ids": [1, "x"], "surfaces": ["a", "b"]},
    {"ids": [1, 2], "surfaces": "ab"},
    {"ids": [1, True], "surfaces": ["a", "b"]},
    {"ids": [1.0], "surfaces": ["a"]},
    {"ids": [1], "surfaces": [None]},
    {"ids": [1]},
    [[1], ["a"]],
    None,
], ids=["ids-scalar", "ids-not-int", "surfaces-string", "ids-bool", "ids-float", "surfaces-null",
        "surfaces-missing", "line-list", "line-null"])
def test_align_stats_wrong_shaped_line_names_path_and_line(tmp_path, capsys, bad_line):
    lines = token_lines_identical()
    write_jsonl(tmp_path / "pivot.jsonl", [lines[0], bad_line, lines[2]])
    write_jsonl(tmp_path / "source.jsonl", lines)
    code, _, err = run_cli(
        ["align-stats", "--pivot", str(tmp_path / "pivot.jsonl"),
         "--source", str(tmp_path / "source.jsonl"),
         "--out", str(tmp_path / "stats.jsonl")],
        capsys,
    )
    assert_one_located_error(code, err, f"{tmp_path / 'pivot.jsonl'}:2:")


def test_align_stats_empty_sequence_names_the_pair(tmp_path, capsys):
    lines = token_lines_identical()
    write_jsonl(tmp_path / "pivot.jsonl", [lines[0], {"ids": [], "surfaces": []}, lines[2]])
    write_jsonl(tmp_path / "source.jsonl", lines)
    code, _, err = run_cli(
        ["align-stats", "--pivot", str(tmp_path / "pivot.jsonl"),
         "--source", str(tmp_path / "source.jsonl"),
         "--out", str(tmp_path / "stats.jsonl")],
        capsys,
    )
    assert_one_located_error(code, err, "EmptySequence: pair 1: ")


# --- fuse-targets ----------------------------------------------------------------


def fuse_fixture(tmp_path, capsys, source_rows_for):
    """Write paired token files, run align-stats, then build raw examples
    whose source rows come from source_rows_for(ids)."""
    lines = token_lines_identical()
    write_jsonl(tmp_path / "pivot.jsonl", lines)
    write_jsonl(tmp_path / "source.jsonl", lines)
    code, _, _ = run_cli(
        ["--log-level", "warning", "align-stats",
         "--pivot", str(tmp_path / "pivot.jsonl"),
         "--source", str(tmp_path / "source.jsonl"),
         "--pivot-vocab", "4", "--source-vocab", "4",
         "--out", str(tmp_path / "stats.jsonl")],
        capsys,
    )
    assert code == 0
    raw = []
    for line in lines:
        ids = line["ids"]
        uniform = [[0.25] * 4 for _ in ids]
        raw.append(
            {
                "pivot": {"ids": ids, "surfaces": line["surfaces"]},
                "source": {"ids": ids, "surfaces": line["surfaces"]},
                "instruction": [0],
                "pivot_rows": uniform,
                "source_rows": source_rows_for(ids),
            }
        )
    write_jsonl(tmp_path / "raw.jsonl", raw)
    return raw


def fuse_args(tmp_path):
    return ["--log-level", "warning", "fuse-targets",
            "--examples", str(tmp_path / "raw.jsonl"),
            "--stats", str(tmp_path / "stats.jsonl"),
            "--pivot-vocab", "4", "--source-vocab", "4",
            "--out-dir", str(tmp_path / "fused")]


def test_fuse_targets_tie_keeps_pivot_rows(tmp_path, capsys):
    raw = fuse_fixture(tmp_path, capsys,
                       source_rows_for=lambda ids: [[0.25] * 4 for _ in ids])
    code, out, _ = run_cli(fuse_args(tmp_path), capsys)
    assert code == 0
    assert out["examples"] == len(raw)
    assert out["picked_pivot"] == len(raw) and out["pivot_ratio"] == 1.0

    dist, gold = load_distribution(tmp_path / "fused" / "example_0000.st")
    assert gold == raw[0]["pivot"]["ids"]
    np.testing.assert_array_equal(dist.rows, np.float64(np.float32(0.25)))


def test_fuse_targets_confident_source_wins(tmp_path, capsys):
    def confident(ids):
        rows = []
        for token in ids:
            row = [0.01] * 4
            row[token] = 0.97
            rows.append(row)
        return rows

    raw = fuse_fixture(tmp_path, capsys, source_rows_for=confident)
    code, out, _ = run_cli(fuse_args(tmp_path), capsys)
    assert code == 0
    assert out["picked_source"] == len(raw) and out["pivot_ratio"] == 0.0

    # identity alignment plus identity mapping keeps the source rows bitwise
    for index, entry in enumerate(raw):
        dist, gold = load_distribution(tmp_path / "fused" / f"example_{index:04d}.st")
        assert gold == entry["pivot"]["ids"]
        expected = np.array(entry["source_rows"], dtype=np.float32).astype(np.float64)
        np.testing.assert_array_equal(dist.rows, expected)


def test_fuse_targets_bad_shape_names_offending_example(tmp_path, capsys):
    raw = fuse_fixture(tmp_path, capsys,
                       source_rows_for=lambda ids: [[0.25] * 4 for _ in ids])
    raw[1]["source_rows"] = raw[1]["source_rows"][:-1]  # drop one row
    write_jsonl(tmp_path / "raw.jsonl", raw)
    code, _, err = run_cli(fuse_args(tmp_path), capsys)
    assert code == 1
    assert "example 1" in err and "ShapeMismatch" in err


def test_fuse_targets_scalar_ids_name_the_example(tmp_path, capsys):
    raw = fuse_fixture(tmp_path, capsys,
                       source_rows_for=lambda ids: [[0.25] * 4 for _ in ids])
    raw[1]["pivot"]["ids"] = 5
    write_jsonl(tmp_path / "raw.jsonl", raw)
    code, _, err = run_cli(fuse_args(tmp_path), capsys)
    assert_one_located_error(code, err, "example 1:")


def test_fuse_targets_scalar_instruction_names_the_example(tmp_path, capsys):
    raw = fuse_fixture(tmp_path, capsys,
                       source_rows_for=lambda ids: [[0.25] * 4 for _ in ids])
    raw[2]["instruction"] = 7
    write_jsonl(tmp_path / "raw.jsonl", raw)
    code, _, err = run_cli(fuse_args(tmp_path), capsys)
    assert_one_located_error(code, err, "example 2:")


@pytest.mark.parametrize("bad_rows", [
    lambda rows: {"a": 1},
    lambda rows: [[0.5, 0.5], [1.0]],
    lambda rows: "x",
    lambda rows: None,
    lambda rows: 1.0,
    # rows of the right shape that sum to 1 once coerced
    lambda rows: [[str(v) for v in row] for row in rows],
    lambda rows: [[True] + [False] * (len(row) - 1) for row in rows],
], ids=["object", "ragged", "string", "null", "number", "numeric-string", "bools"])
def test_fuse_targets_malformed_rows_name_the_example(tmp_path, capsys, bad_rows):
    raw = fuse_fixture(tmp_path, capsys,
                       source_rows_for=lambda ids: [[0.25] * 4 for _ in ids])
    raw[1]["source_rows"] = bad_rows(raw[1]["source_rows"])
    write_jsonl(tmp_path / "raw.jsonl", raw)
    code, _, err = run_cli(fuse_args(tmp_path), capsys)
    assert_one_located_error(code, err, "example 1:")


def test_fuse_targets_missing_field_names_path_line_and_example(tmp_path, capsys):
    raw = fuse_fixture(tmp_path, capsys,
                       source_rows_for=lambda ids: [[0.25] * 4 for _ in ids])
    del raw[2]["source_rows"]
    # a blank second line puts example 2 on line 4
    write_jsonl(tmp_path / "raw.jsonl", raw)
    first, rest = (tmp_path / "raw.jsonl").read_text().split("\n", 1)
    (tmp_path / "raw.jsonl").write_text(first + "\n\n" + rest)
    code, _, err = run_cli(fuse_args(tmp_path), capsys)
    assert_one_located_error(code, err, f"{tmp_path / 'raw.jsonl'}:4: example 2:")


def test_fuse_targets_writes_the_examples_before_a_malformed_line(tmp_path, capsys):
    raw = fuse_fixture(tmp_path, capsys,
                       source_rows_for=lambda ids: [[0.25] * 4 for _ in ids])
    code, _, _ = run_cli(fuse_args(tmp_path), capsys)
    assert code == 0
    fused = tmp_path / "fused"
    clean = {path.name: path.read_bytes() for path in fused.iterdir()}
    assert len(clean) == len(raw)
    for path in fused.iterdir():
        path.unlink()
    raw[2]["pivot"]["ids"] = 5
    write_jsonl(tmp_path / "raw.jsonl", raw)
    code, _, err = run_cli(fuse_args(tmp_path), capsys)
    assert_one_located_error(code, err, f"{tmp_path / 'raw.jsonl'}:3: example 2:")
    assert {path.name: path.read_bytes() for path in fused.iterdir()} == {
        name: clean[name] for name in ("example_0000.st", "example_0001.st")
    }


def test_fuse_targets_empty_examples_file_exits_1(tmp_path, capsys):
    fuse_fixture(tmp_path, capsys, source_rows_for=lambda ids: [[0.25] * 4 for _ in ids])
    (tmp_path / "raw.jsonl").write_text("\n")
    code, _, err = run_cli(fuse_args(tmp_path), capsys)
    assert_one_located_error(code, err, "holds no examples")


def test_fuse_targets_holds_one_parsed_example_at_a_time(tmp_path, capsys):
    """30 examples of 64 positions over a 64-token vocabulary: parsed,
    each example's two row matrices are about 0.3 MiB of Python floats."""
    rng = np.random.default_rng(5)
    vocab, length, count = 64, 64, 30
    write_jsonl(tmp_path / "stats.jsonl", [{"p": i, "s": i, "c": 1} for i in range(vocab)])
    surfaces = [f"t{i}" for i in range(vocab)]
    lines = []
    for _ in range(count):
        ids = rng.integers(0, vocab, size=length).tolist()
        tokens = {"ids": ids, "surfaces": [surfaces[i] for i in ids]}
        lines.append(json.dumps({
            "pivot": tokens, "source": tokens, "instruction": [0],
            "pivot_rows": rng.dirichlet(np.ones(vocab), size=length).tolist(),
            "source_rows": rng.dirichlet(np.ones(vocab), size=length).tolist(),
        }))
    (tmp_path / "raw.jsonl").write_text("\n".join(lines) + "\n")

    tracemalloc.start()
    try:
        parsed = [json.loads(line) for line in lines]
        parsed_size, _ = tracemalloc.get_traced_memory()
        del parsed
        tracemalloc.reset_peak()
        baseline, _ = tracemalloc.get_traced_memory()
        code, out, _ = run_cli(
            ["--log-level", "warning", "fuse-targets",
             "--examples", str(tmp_path / "raw.jsonl"),
             "--stats", str(tmp_path / "stats.jsonl"),
             "--out-dir", str(tmp_path / "fused")],
            capsys,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out["examples"] == count
    assert peak - baseline < parsed_size / 4, (peak - baseline, parsed_size)


# --- toy-train -------------------------------------------------------------------


def small_corpus(vocab=4, seed=3):
    rng = np.random.default_rng(seed)

    def dist(n):
        return DistributionMatrix(rng.dirichlet(np.ones(vocab), size=n))

    return [
        FusionExample([1], [2, 0, 3], dist(3), dist(3)),
        FusionExample([0], [3, 1], dist(2), dist(2)),
    ]


def test_toy_train_lambda_one_matches_gold_only_reference(tmp_path, capsys):
    corpus = small_corpus()
    write_fusion_corpus(corpus, tmp_path / "corpus.jsonl")
    code, out, _ = run_cli(
        ["--log-level", "warning", "toy-train",
         "--corpus", str(tmp_path / "corpus.jsonl"),
         "--lambda", "1.0", "--lr", "0.5", "--steps", "12",
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 0

    rows = (tmp_path / "run" / "history.csv").read_text().splitlines()
    assert rows[0] == "step,combined_loss"
    written = [float(row.split(",")[1]) for row in rows[1:]]

    loaded = load_fusion_corpus(tmp_path / "corpus.jsonl")
    _, expected = ref_sft_train(
        np.zeros((4, 4)),
        [example_contexts(ex) for ex in loaded],
        [ex.gold for ex in loaded],
        lr=0.5, steps=12,
    )
    assert written == expected
    assert out["final_loss"] == expected[-1]


def test_toy_train_zero_steps_keeps_the_initial_model(tmp_path, capsys):
    write_fusion_corpus(small_corpus(), tmp_path / "corpus.jsonl")
    code, out, _ = run_cli(
        ["--log-level", "warning", "toy-train",
         "--corpus", str(tmp_path / "corpus.jsonl"),
         "--lambda", "0.5", "--steps", "0",
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 0 and out["steps"] == 0
    save_toy_model(init_toy_model(4), tmp_path / "zero.st")
    assert sha256_file(tmp_path / "run" / "model.st") == sha256_file(tmp_path / "zero.st")


def test_toy_train_invalid_lambda_exits_1(tmp_path, capsys):
    write_fusion_corpus(small_corpus(), tmp_path / "corpus.jsonl")
    code, _, err = run_cli(
        ["toy-train", "--corpus", str(tmp_path / "corpus.jsonl"),
         "--lambda", "1.5", "--out", str(tmp_path / "run")],
        capsys,
    )
    assert code == 1 and "InvalidLambda" in err


@pytest.mark.parametrize("bad_line", [
    [1], {"instruction": [0], "gold": [1]}, None,
    {"instruction": [0], "gold": [True], "pivot_rows": [[1.0]], "source_aligned_rows": [[1.0]]},
    {"instruction": 0, "gold": [0], "pivot_rows": [[1.0]], "source_aligned_rows": [[1.0]]},
], ids=["not-an-object", "missing-field", "null", "gold-bool", "instruction-scalar"])
def test_toy_train_wrong_shaped_line_names_path_and_line(tmp_path, capsys, bad_line):
    write_fusion_corpus(small_corpus(), tmp_path / "corpus.jsonl")
    with open(tmp_path / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad_line) + "\n")
    code, _, err = run_cli(
        ["toy-train", "--corpus", str(tmp_path / "corpus.jsonl"),
         "--lambda", "0.5", "--out", str(tmp_path / "run")],
        capsys,
    )
    assert_one_located_error(code, err, f"{tmp_path / 'corpus.jsonl'}:3:")


@pytest.mark.parametrize("bad_rows", [{"a": 1}, [[0.5, 0.5], [1.0]], "x", None, 1.0],
                         ids=["object", "ragged", "string", "null", "number"])
def test_toy_train_malformed_rows_name_path_and_line(tmp_path, capsys, bad_rows):
    write_fusion_corpus(small_corpus(), tmp_path / "corpus.jsonl")
    line = json.loads((tmp_path / "corpus.jsonl").read_text().splitlines()[0])
    line["pivot_rows"] = bad_rows
    with open(tmp_path / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    code, _, err = run_cli(
        ["toy-train", "--corpus", str(tmp_path / "corpus.jsonl"),
         "--lambda", "0.5", "--out", str(tmp_path / "run")],
        capsys,
    )
    assert_one_located_error(code, err, f"{tmp_path / 'corpus.jsonl'}:3:")


# --- inspect ---------------------------------------------------------------------


def test_inspect_reports_shape_dtype_and_moments(tmp_path, capsys):
    values = np.array([[1.5, -2.25], [0.5, 4.0]], dtype=np.float32)
    ckpt = Checkpoint({"w": Tensor(values)}, metadata={"note": "fixture"})
    save_checkpoint(ckpt, tmp_path / "c.st")
    code, out, _ = run_cli(["inspect", "--ckpt", str(tmp_path / "c.st")], capsys)
    assert code == 0 and out["count"] == 1
    row = out["tensors"][0]
    assert row["name"] == "w" and row["shape"] == [2, 2] and row["dtype"] == "f32"
    assert row["min"] == float(values.min())
    assert row["max"] == float(values.max())
    assert row["mean"] == float(values.mean())
    assert out["metadata"] == {"note": "fixture"}


def test_inspect_empty_checkpoint_is_fine(tmp_path, capsys):
    save_checkpoint(Checkpoint(), tmp_path / "empty.st")
    code, out, _ = run_cli(["inspect", "--ckpt", str(tmp_path / "empty.st")], capsys)
    assert code == 0
    assert out == {"tensors": [], "count": 0, "metadata": {}}


def test_inspect_truncated_container_exits_1(tmp_path, capsys):
    path = tmp_path / "c.st"
    save_checkpoint(Checkpoint({"w": Tensor(np.ones((4, 4), np.float32))}), path)
    path.write_bytes(path.read_bytes()[:10])
    code, _, err = run_cli(["inspect", "--ckpt", str(path)], capsys)
    assert code == 1 and "MalformedHeader" in err


def test_inspect_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run_cli(["inspect", "--ckpt", str(tmp_path / "nope.st")], capsys)
    assert code == 1 and "IoFailure" in err


# --- every input field, replaced by a value of each JSON type --------------------


WRONG_VALUES = (5, "x", True, None, [], {})


def json_paths(value, path=()):
    """The path of every node of a parsed JSON value, itself included."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def recipe_input(tmp_path):
    rng = np.random.default_rng(16)
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "base.st")
    save_checkpoint(layered_ckpt(rng, num_layers=2), tmp_path / "a.st")
    recipe = recipe_obj("ties", 1, 3, [("a", str(tmp_path / "a.st"), (0.5, 0.5))])
    return "recipe.json", recipe, ["merge", "--base", str(tmp_path / "base.st"),
                                   "--recipe", "recipe.json", "--out", "merged.st"]


def search_input(tmp_path, evaluator):
    for seed, name in enumerate(("base", "a", "b")):
        save_checkpoint(init_mlp(seed, widths=(1, 3, 3, 1)), tmp_path / f"{name}.st")
    config = {
        "method": "ties", "group_size": 2, "base_path": "base.st",
        "models": [{"source_id": "a", "path": "a.st"}, {"source_id": "b", "path": "b.st"}],
        "evaluator": evaluator, "lambda_scale": 1.0, "iterations": 0, "pop_size": None,
        "sigma0": 0.1, "seed": 0, "cache_dir": None, "threads": 1, "retries": 0,
    }
    return "config.json", config, ["--seed", "1", "search", "--config", "config.json",
                                   "--out", "run"]


def search_state_input(tmp_path):
    """A finished search's state file, read back by ``--resume``."""
    _, config, argv = search_input(tmp_path, {
        "builtin": "toy-regression", "targets": [["sin", 2.5]], "points": 4})
    # one layer group and the global one keep the covariance at 8 x 8
    config.update(iterations=1, group_size=4)
    write_json(tmp_path / "config.json", config)
    assert main(["--log-level", "error"] + argv) == 0
    state = json.loads((tmp_path / "run" / "search_state.json").read_text())
    return "run/search_state.json", state, argv + ["--resume"]


def token_input(tmp_path):
    lines = [{"ids": [0, 1], "surfaces": ["▁a", "b"]}, {"ids": [2], "surfaces": ["c"]}]
    write_jsonl(tmp_path / "source.jsonl", lines)
    return "pivot.jsonl", lines, ["align-stats", "--pivot", "pivot.jsonl",
                                  "--source", "source.jsonl", "--out", "stats.jsonl"]


def example_lines():
    tokens = {"ids": [0, 1], "surfaces": ["a", "b"]}
    rows = [[0.5, 0.5], [0.25, 0.75]]
    return [{"pivot": tokens, "source": tokens, "instruction": [1],
             "pivot_rows": rows, "source_rows": rows}]


def fuse_argv():
    return ["fuse-targets", "--examples", "raw.jsonl", "--stats", "stats.jsonl",
            "--pivot-vocab", "2", "--source-vocab", "2", "--out-dir", "fused"]


def stats_input(tmp_path):
    write_jsonl(tmp_path / "raw.jsonl", example_lines())
    return "stats.jsonl", [{"p": 0, "s": 0, "c": 2}, {"p": 1, "s": 1, "c": 1}], fuse_argv()


def example_input(tmp_path):
    write_jsonl(tmp_path / "stats.jsonl", [{"p": 0, "s": 0, "c": 2}, {"p": 1, "s": 1, "c": 1}])
    return "raw.jsonl", example_lines(), fuse_argv()


def corpus_input(tmp_path):
    corpus = [{"instruction": [1], "gold": [0, 1], "pivot_rows": [[0.5, 0.5], [0.25, 0.75]],
               "source_aligned_rows": [[1.0, 0.0], [0.5, 0.5]]}]
    return "corpus.jsonl", corpus, ["toy-train", "--corpus", "corpus.jsonl",
                                    "--lambda", "0.5", "--steps", "1", "--out", "run"]


INPUTS = {
    "recipe": recipe_input,
    "search-builtin": lambda tmp_path: search_input(tmp_path, {
        "builtin": "toy-regression", "targets": [["sin", 2.5], ["cos", 1.5]],
        "lo": -1.0, "hi": 1.0, "points": 8}),
    "search-command": lambda tmp_path: search_input(tmp_path, {
        "command": """sh -c 'echo "{\\"fitness\\": 0.5}"' {checkpoint}""", "timeout": 60}),
    "search-target": lambda tmp_path: search_input(tmp_path, {
        "builtin": "l2-to-target", "target_path": "a.st"}),
    "search-state": search_state_input,
    "tokens": token_input,
    "stats": stats_input,
    "example": example_input,
    "corpus": corpus_input,
}


@pytest.mark.parametrize("name", list(INPUTS))
def test_every_input_field_of_a_wrong_type_exits_0_or_1(tmp_path, monkeypatch, capsys, name):
    """Each node of a valid input, replaced by each JSON type in turn,
    ends in exit 0 or 1 and never in an uncaught exception."""
    monkeypatch.chdir(tmp_path)
    filename, doc, argv = INPUTS[name](tmp_path)
    jsonl = filename.endswith(".jsonl")
    argv = ["--log-level", "error"] + argv
    (write_jsonl if jsonl else write_json)(tmp_path / filename, doc)
    assert main(argv) == 0, capsys.readouterr().err
    for path in json_paths(doc):
        if jsonl and not path:
            continue  # a JSON-lines file is its lines, not one array
        for value in WRONG_VALUES:
            if path:
                changed = json.loads(json.dumps(doc))
                set_field(changed, path, value)
            else:
                changed = value
            (write_jsonl if jsonl else write_json)(tmp_path / filename, changed)
            try:
                code = main(argv)
            except Exception as exc:  # report which input, not just the traceback
                pytest.fail(f"{name}: {path} = {value!r} raised {type(exc).__name__}: {exc}")
            capsys.readouterr()
            assert code in (0, 1), (name, path, value, code)


@pytest.mark.parametrize("path,value,field", [
    ((), [], "search_state.json"),
    (("evaluations",), "5", "evaluations"),
    (("history", 0, "best"), "x", "history[0].best"),
    (("cmaes", "mean"), [0.5], "cmaes.mean"),
    (("cmaes", "rng_state", "bit_generator"), [], "cmaes.rng_state.bit_generator"),
    (("cmaes", "rng_state", "state"), "-1", "cmaes.rng_state.state"),
    (("cmaes", "rng_state", "uinteger"), -1, "cmaes.rng_state"),
])
def test_search_resume_bad_state_field_exits_1(tmp_path, monkeypatch, capsys, path, value, field):
    monkeypatch.chdir(tmp_path)
    filename, state, argv = search_state_input(tmp_path)
    if path:
        set_field(state, path, value)
    else:
        state = value
    write_json(tmp_path / filename, state)
    capsys.readouterr()
    code, _, err = run_cli(argv, capsys)
    assert_one_located_error(code, err, "search_state.json")
    assert "MalformedInput" in err and field in err, err
