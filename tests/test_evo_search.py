import os
import signal
import stat
import sys
import time
import tracemalloc

import numpy as np
import pytest

from umm.errors import (
    EvaluatorFailed,
    EvaluatorProtocol,
    LengthMismatch,
    MissingLayerMetadata,
)
from umm.evo_search import (
    FitnessCache,
    RecipeTemplate,
    build_sources,
    config_from_json_obj,
    decode_genome,
    evaluate_candidate,
    initial_mean,
    load_sources,
    make_evaluator,
    run_search,
)
from umm.tensor_store import Checkpoint, Tensor, load_checkpoint, save_checkpoint
from umm.toy_mlp import init_mlp, mlp_forward, mse, train_mlp


def ties_template(n_models=2, n_groups=3, group_size=3):
    return RecipeTemplate(
        method="ties",
        group_size=group_size,
        num_groups=n_groups,
        source_ids=[f"m{i}" for i in range(n_models)],
    )


def recipe_coefficients(recipe):
    """(weight, density) per group, model-major: the TIES genome layout."""
    return [v for m in recipe.per_model for g in m.groups for v in (g.weight, g.density)]


# --- genome codec ------------------------------------------------------------

def test_decode_all_half():
    template = ties_template()
    recipe = decode_genome(np.full(template.genome_length, 0.5), template)
    for model in recipe.per_model:
        for g in model.groups:
            assert g.weight == 0.5 and g.density == 0.5


def test_decode_clips_weight_floor():
    template = ties_template(n_models=1, n_groups=1)
    recipe = decode_genome([-3.0, 0.8], template)
    assert recipe.per_model[0].groups[0].weight == 0.0


def test_decode_clips_density_floor():
    template = ties_template(n_models=1, n_groups=1)
    recipe = decode_genome([0.5, 0.0], template)
    assert recipe.per_model[0].groups[0].density == 0.05


def test_decode_task_arithmetic_has_no_density_slots():
    template = RecipeTemplate("task_arithmetic", 5, 4, ["a", "b"])
    assert template.genome_length == 8
    recipe = decode_genome(np.linspace(0, 1, 8), template)
    assert all(g.density == 1.0 for m in recipe.per_model for g in m.groups)


def test_decode_length_mismatch():
    with pytest.raises(LengthMismatch):
        decode_genome([0.5] * 5, ties_template())


def test_decode_encode_identity_on_box(rng):
    template = ties_template(n_models=3, n_groups=2)
    genome = np.empty(template.genome_length)
    genome[0::2] = rng.uniform(0.0, 1.0, size=genome[0::2].shape)
    genome[1::2] = rng.uniform(0.05, 1.0, size=genome[1::2].shape)
    recipe = decode_genome(genome, template)
    np.testing.assert_array_equal(recipe_coefficients(recipe), genome)


def test_initial_mean_layout():
    template = ties_template(n_models=2, n_groups=2)
    mean = initial_mean(template)
    np.testing.assert_array_equal(mean, [0.5, 1.0] * 4)
    ta = RecipeTemplate("task_arithmetic", 3, 2, ["a"])
    np.testing.assert_array_equal(initial_mean(ta), [0.5, 0.5])


# --- external evaluator protocol ----------------------------------------------

def write_script(path, body):
    path.write_text("#!/usr/bin/env python3\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


def checkpoint_file(tmp_path, name="c.st"):
    ckpt = init_mlp(0, widths=(1, 4, 1))
    path = tmp_path / name
    save_checkpoint(ckpt, path)
    return path


def test_external_evaluator_parses_last_line(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "import sys\nprint('log line')\nprint('{\"fitness\": 0.73}')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    assert ev.evaluate(checkpoint_file(tmp_path)) == 0.73


def test_external_evaluator_nonzero_exit(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "import sys\nsys.exit(3)\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(EvaluatorFailed):
        ev.evaluate(checkpoint_file(tmp_path))


def test_external_evaluator_garbage_output(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "print('not json at all')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(EvaluatorProtocol):
        ev.evaluate(checkpoint_file(tmp_path))


def test_external_evaluator_missing_key(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "print('{\"score\": 1.0}')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(EvaluatorProtocol):
        ev.evaluate(checkpoint_file(tmp_path))


def test_external_evaluator_nonfinite_fitness(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "print('{\"fitness\": NaN}')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(EvaluatorProtocol):
        ev.evaluate(checkpoint_file(tmp_path))


def test_external_evaluator_timeout(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "import time\ntime.sleep(30)\n")
    ev = make_evaluator(
        {"command": f"{sys.executable} {script} {{checkpoint}}", "timeout": 0.5}
    )
    with pytest.raises(EvaluatorFailed):
        ev.evaluate(checkpoint_file(tmp_path))


def _alive(pid):
    """True while pid runs; a killed process left unreaped counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_external_evaluator_timeout_kills_grandchildren(tmp_path):
    pid_file = tmp_path / "sleep.pid"
    ev = make_evaluator({
        "command": f"sh -c 'sleep 37.25 & echo $! > {pid_file}; wait; echo 1' {{checkpoint}}",
        "timeout": 0.5,
    })
    pid = None
    try:
        with pytest.raises(EvaluatorFailed):
            ev.evaluate(checkpoint_file(tmp_path))
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid), "the shell's sleep outlived the evaluator timeout"
    finally:
        if pid is None and pid_file.exists():
            pid = int(pid_file.read_text())
        if pid is not None and _alive(pid):
            os.kill(pid, signal.SIGKILL)


def test_external_evaluator_requires_placeholder():
    with pytest.raises(ValueError):
        make_evaluator({"command": "echo hi"})


# --- builtin evaluators -----------------------------------------------------------

def test_l2_to_target_zero_at_target(tmp_path):
    base = init_mlp(3)
    base_path = tmp_path / "base.st"
    save_checkpoint(base, base_path)
    ev = make_evaluator({"builtin": "l2-to-target", "target_path": str(base_path)})
    assert ev.evaluate(base_path) == 0.0


def test_l2_to_target_negative_away_from_target(tmp_path):
    base = init_mlp(3)
    other = init_mlp(4)
    base_path, other_path = tmp_path / "b.st", tmp_path / "o.st"
    save_checkpoint(base, base_path)
    save_checkpoint(other, other_path)
    ev = make_evaluator({"builtin": "l2-to-target", "target_path": str(base_path)})
    assert ev.evaluate(other_path) < 0.0


def test_toy_regression_matches_manual_mse(tmp_path):
    xs = np.linspace(-2, 2, 64)
    ckpt = train_mlp(init_mlp(0), xs, np.sin(2.5 * xs), lr=0.01, steps=200)
    path = tmp_path / "m.st"
    save_checkpoint(ckpt, path)
    pred = mlp_forward(ckpt, xs)
    expected = -(
        float(np.mean((pred - np.sin(2.5 * xs)) ** 2))
        + float(np.mean((pred - np.cos(1.5 * xs)) ** 2))
    )
    ev = make_evaluator({"builtin": "toy-regression"})
    assert ev.evaluate(path) == pytest.approx(expected, rel=1e-12)


def test_toy_regression_rejects_unknown_target():
    with pytest.raises(ValueError):
        make_evaluator({"builtin": "toy-regression", "targets": [["square", 2.0]]})


def test_unknown_evaluator_spec():
    with pytest.raises(ValueError):
        make_evaluator({"builtin": "mystery"})


# --- caching -------------------------------------------------------------------------

class CountingEvaluator:
    def __init__(self):
        self.calls = 0

    @property
    def evaluator_id(self):
        return "counting:v1"

    def evaluate(self, path):
        self.calls += 1
        return 1.25


def two_expert_sources(seed=0, steps=300):
    xs = np.linspace(-2, 2, 64)
    base = init_mlp(seed)
    ea = train_mlp(base, xs, np.sin(2.5 * xs), lr=0.01, steps=steps)
    eb = train_mlp(base, xs, np.cos(1.5 * xs), lr=0.01, steps=steps)
    return build_sources(base, {"m0": ea, "m1": eb})


def test_load_sources_holds_one_finetuned_checkpoint_at_a_time(tmp_path):
    rng = np.random.default_rng(9)
    meta = {"layer_pattern": "layers.{i}.", "num_layers": "8"}
    arrays = {f"layers.{i}.w": rng.standard_normal((256, 256), dtype=np.float32) for i in range(8)}
    save_checkpoint(Checkpoint({n: Tensor(a) for n, a in arrays.items()}, metadata=meta),
                    tmp_path / "base.st")
    # listed out of source_id order: vectors and digest follow the sorted ids
    models = []
    for sid in ("m2", "m0", "m1"):
        tuned = {n: Tensor(a + rng.standard_normal(a.shape, dtype=np.float32)) for n, a in arrays.items()}
        save_checkpoint(Checkpoint(tuned, metadata=meta), tmp_path / f"{sid}.st")
        models.append({"source_id": sid, "path": str(tmp_path / f"{sid}.st")})

    tracemalloc.start()
    try:
        sources = load_sources(tmp_path / "base.st", models)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    model_bytes = sum(a.nbytes for a in arrays.values())
    # the base and three vectors stay; besides them, one fine-tuned
    # checkpoint and its digest's working set (all three at once is 3x)
    assert held >= 4 * model_bytes
    assert peak < held + 2 * model_bytes, (peak - held) / model_bytes

    eager = build_sources(load_checkpoint(tmp_path / "base.st"),
                          {m["source_id"]: load_checkpoint(m["path"]) for m in models})
    assert [v.source_id for v in sources.vectors] == ["m0", "m1", "m2"]
    assert sources.digest == eager.digest
    for vec, want in zip(sources.vectors, eager.vectors):
        assert all(vec.deltas[n].tobytes() == want.deltas[n].tobytes() for n in arrays)


def test_cache_second_call_skips_evaluator(tmp_path):
    sources = two_expert_sources()
    template = ties_template()
    recipe = decode_genome(initial_mean(template), template)
    ev = CountingEvaluator()
    cache = FitnessCache()
    f1, invoked1 = evaluate_candidate(recipe, ev, tmp_path, sources, cache=cache)
    f2, invoked2 = evaluate_candidate(recipe, ev, tmp_path, sources, cache=cache)
    assert invoked1 and not invoked2
    assert f1 == f2 and ev.calls == 1


def test_cache_persists_on_disk(tmp_path):
    sources = two_expert_sources()
    template = ties_template()
    recipe = decode_genome(initial_mean(template), template)
    ev = CountingEvaluator()
    cache_dir = tmp_path / "cache"
    f1, _ = evaluate_candidate(recipe, ev, tmp_path, sources, cache=FitnessCache(cache_dir))
    f2, invoked2 = evaluate_candidate(
        recipe, ev, tmp_path, sources, cache=FitnessCache(cache_dir)
    )
    assert not invoked2 and f1 == f2 and ev.calls == 1


def test_cache_put_survives_a_concurrent_put_of_the_same_key(tmp_path, monkeypatch):
    cache = FitnessCache(tmp_path / "cache")
    real_replace = os.replace
    raced = []

    def replace_after_another_writer(src, dst):
        if not raced:
            raced.append(src)
            cache.put("k", 2.0)  # a second writer of the same key lands first
        real_replace(src, dst)

    monkeypatch.setattr("umm.evo_search.os.replace", replace_after_another_writer)
    cache.put("k", 1.0)
    assert raced
    assert FitnessCache(tmp_path / "cache").get("k") == 1.0
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["k.json"]


def test_cache_key_distinguishes_evaluators():
    sources = two_expert_sources()
    template = ties_template()
    recipe = decode_genome(initial_mean(template), template)
    k1 = FitnessCache.key(recipe, sources.digest, "eval-a")
    k2 = FitnessCache.key(recipe, sources.digest, "eval-b")
    assert k1 != k2


def test_evaluate_candidate_retries(tmp_path):
    class FlakyEvaluator:
        def __init__(self):
            self.calls = 0

        @property
        def evaluator_id(self):
            return "flaky:v1"

        def evaluate(self, path):
            self.calls += 1
            if self.calls == 1:
                raise EvaluatorFailed("transient")
            return 2.0

    sources = two_expert_sources()
    template = ties_template()
    recipe = decode_genome(initial_mean(template), template)
    ev = FlakyEvaluator()
    fitness, invoked = evaluate_candidate(recipe, ev, tmp_path, sources, retries=1)
    assert fitness == 2.0 and invoked and ev.calls == 2


# --- run_search ------------------------------------------------------------------------

def search_config(tmp_path, iterations=2, seed=0, threads=1, **over):
    cfg = {
        "method": "ties",
        "group_size": 3,
        "base_path": str(tmp_path / "base.st"),
        "models": [
            {"source_id": "m0", "path": str(tmp_path / "m0.st")},
            {"source_id": "m1", "path": str(tmp_path / "m1.st")},
        ],
        "evaluator": {"builtin": "toy-regression"},
        "iterations": iterations,
        "seed": seed,
        "threads": threads,
    }
    cfg.update(over)
    return config_from_json_obj(cfg)


def test_run_search_zero_iterations(tmp_path):
    sources = two_expert_sources()
    config = search_config(tmp_path, iterations=0)
    result = run_search(config, tmp_path / "w", sources=sources)
    assert result.evaluations == 1
    assert result.generations == 0
    template = ties_template()
    np.testing.assert_array_equal(result.best_genome, initial_mean(template))
    np.testing.assert_array_equal(
        recipe_coefficients(result.best_recipe), initial_mean(template)
    )


def test_run_search_checks_layer_metadata_like_merge(tmp_path):
    sources = two_expert_sources(steps=1)
    sources.base.metadata["num_layers"] = "two"
    with pytest.raises(MissingLayerMetadata):
        run_search(search_config(tmp_path, iterations=0), tmp_path / "w", sources=sources)


def test_run_search_deterministic_across_runs_and_threads(tmp_path):
    sources = two_expert_sources()
    results = []
    for i, threads in enumerate((1, 4, 1)):
        config = search_config(tmp_path, iterations=3, seed=7, threads=threads)
        results.append(run_search(config, tmp_path / f"w{i}", sources=sources))
    a, b, c = results
    assert a.best_fitness == b.best_fitness == c.best_fitness
    np.testing.assert_array_equal(a.best_genome, b.best_genome)
    np.testing.assert_array_equal(a.best_genome, c.best_genome)
    assert a.history == b.history == c.history
    assert a.evaluations == b.evaluations == c.evaluations


def test_run_search_eval_budget_and_history(tmp_path):
    sources = two_expert_sources()
    config = search_config(tmp_path, iterations=3, seed=1)
    result = run_search(config, tmp_path / "w", sources=sources)
    assert result.evaluations == 1 + 3 * result.pop_size
    assert result.evaluator_invocations <= result.evaluations
    assert len(result.history) == 4
    best_so_far = [row["best_so_far"] for row in result.history]
    assert best_so_far == sorted(best_so_far)
    assert result.best_fitness == best_so_far[-1]


def test_run_search_resume_matches_uninterrupted(tmp_path):
    sources = two_expert_sources()
    full = run_search(
        search_config(tmp_path, iterations=6, seed=3), tmp_path / "full", sources=sources
    )
    prefix_dir = tmp_path / "prefix"
    run_search(search_config(tmp_path, iterations=2, seed=3), prefix_dir, sources=sources)
    resumed = run_search(
        search_config(tmp_path, iterations=6, seed=3), prefix_dir,
        resume=True, sources=sources,
    )
    assert resumed.best_fitness == full.best_fitness
    np.testing.assert_array_equal(resumed.best_genome, full.best_genome)
    assert resumed.history == full.history
    assert resumed.evaluations == full.evaluations


def test_run_search_resume_rejects_wrong_config(tmp_path):
    sources = two_expert_sources()
    run_search(search_config(tmp_path, iterations=1, seed=3), tmp_path / "w", sources=sources)
    with pytest.raises(ValueError):
        run_search(
            search_config(tmp_path, iterations=1, seed=4), tmp_path / "w",
            resume=True, sources=sources,
        )


def test_run_search_beats_parents_one_seed(tmp_path):
    xs = np.linspace(-2, 2, 64)
    ya, yb = np.sin(2.5 * xs), np.cos(1.5 * xs)
    base = init_mlp(0)
    ea = train_mlp(base, xs, ya, lr=0.01, steps=1500)
    eb = train_mlp(base, xs, yb, lr=0.01, steps=1500)
    sources = build_sources(base, {"m0": ea, "m1": eb})
    parent = min(mse(ea, xs, ya) + mse(ea, xs, yb), mse(eb, xs, ya) + mse(eb, xs, yb))
    config = search_config(tmp_path, iterations=30, seed=0)
    result = run_search(config, tmp_path / "w", sources=sources)
    assert -result.best_fitness <= 0.9 * parent


def test_config_json_round_trip():
    obj = {
        "method": "task_arithmetic",
        "group_size": 5,
        "base_path": "/b.st",
        "models": [{"source_id": "x", "path": "/x.st"}],
        "evaluator": {"command": "run {checkpoint}"},
        "iterations": 12,
        "sigma0": 0.2,
        "seed": 9,
    }
    config = config_from_json_obj(obj)
    assert config.iterations == 12 and config.sigma0 == 0.2


def test_config_rejects_bad_method():
    with pytest.raises(ValueError):
        config_from_json_obj(
            {
                "method": "average",
                "group_size": 1,
                "base_path": "/b",
                "models": [{"source_id": "x", "path": "/x"}],
                "evaluator": {"builtin": "toy-regression"},
            }
        )
