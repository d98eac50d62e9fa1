import hashlib
import os
import signal
import stat
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from umm.errors import (
    EvaluatorFailed,
    EvaluatorProtocol,
    IoFailure,
    LengthMismatch,
    MalformedInput,
    MissingLayerMetadata,
)
from umm.evo_search import (
    DENSITY_HI,
    DENSITY_LO,
    WEIGHT_HI,
    WEIGHT_LO,
    FitnessCache,
    config_from_json_obj,
    decode_genome,
    encode_genome,
    evaluate_candidate,
    load_sources,
    make_evaluator,
    run_search,
)
from umm.merge_core import GroupCoeffs, MergeRecipe, ModelCoeffs, compute_task_vector
from umm.tensor_store import (
    Checkpoint,
    Tensor,
    checkpoint_digest,
    load_checkpoint,
    save_checkpoint,
)
from umm.toy_mlp import init_mlp, mlp_forward, mse, train_mlp


def start_recipe(method, group_size, num_groups, source_ids):
    """A recipe where a search starts: every weight 0.5, every density 1.0."""
    return MergeRecipe(method, group_size, 1.0, [
        ModelCoeffs(sid, [GroupCoeffs(0.5) for _ in range(num_groups)]) for sid in source_ids])


def ties_recipe(n_models=2, n_groups=3, group_size=3):
    return start_recipe("ties", group_size, n_groups, [f"m{i}" for i in range(n_models)])


def recipe_coefficients(recipe):
    """(weight, density) per group, model-major: the TIES genome layout."""
    return [v for m in recipe.per_model for g in m.groups for v in (g.weight, g.density)]


# --- genome codec ------------------------------------------------------------

def test_decode_all_half():
    like = ties_recipe()
    recipe = decode_genome(np.full(encode_genome(like).size, 0.5), like)
    for model in recipe.per_model:
        for g in model.groups:
            assert g.weight == 0.5 and g.density == 0.5


def test_decode_clips_weight_floor():
    like = ties_recipe(n_models=1, n_groups=1)
    recipe = decode_genome([-3.0, 0.8], like)
    assert recipe.per_model[0].groups[0].weight == 0.0


def test_decode_clips_density_floor():
    like = ties_recipe(n_models=1, n_groups=1)
    recipe = decode_genome([0.5, 0.0], like)
    assert recipe.per_model[0].groups[0].density == 0.05


def test_decode_task_arithmetic_has_no_density_slots():
    like = start_recipe("task_arithmetic", 5, 4, ["a", "b"])
    assert encode_genome(like).size == 8
    recipe = decode_genome(np.linspace(0, 1, 8), like)
    assert all(g.density == 1.0 for m in recipe.per_model for g in m.groups)


def test_decode_length_mismatch():
    with pytest.raises(LengthMismatch):
        decode_genome([0.5] * 5, ties_recipe())


def test_decode_encode_identity_on_box(rng):
    like = ties_recipe(n_models=3, n_groups=2)
    genome = np.empty(encode_genome(like).size)
    genome[0::2] = rng.uniform(0.0, 1.0, size=genome[0::2].shape)
    genome[1::2] = rng.uniform(0.05, 1.0, size=genome[1::2].shape)
    recipe = decode_genome(genome, like)
    np.testing.assert_array_equal(recipe_coefficients(recipe), genome)


def scalar_decoded_coefficients(genome, like):
    """(weight, density) per group, model-major, clipped one value at a time."""
    values = np.asarray(genome, dtype=np.float64).reshape(-1)
    coefficients = []
    idx = 0
    for _ in like.per_model:
        for _ in range(like.num_groups):
            weight = float(np.clip(values[idx], WEIGHT_LO, WEIGHT_HI))
            idx += 1
            density = 1.0
            if like.method == "ties":
                density = float(np.clip(values[idx], DENSITY_LO, DENSITY_HI))
                idx += 1
            coefficients.append((weight, density))
    return coefficients


@pytest.mark.parametrize("method", ["ties", "task_arithmetic"])
def test_decode_matches_scalar_clips_bitwise(rng, method):
    like = start_recipe(method, 2, 4, ["a", "b", "c"])
    edges = [-0.0, 0.0, -1e-300, 1.0, np.nextafter(1.0, 2.0), DENSITY_LO, -np.inf, np.inf, np.nan]
    for _ in range(200):
        genome = rng.uniform(-0.5, 1.5, encode_genome(like).size)
        genome[rng.random(genome.size) < 0.2] = rng.choice(edges)
        recipe = decode_genome(genome, like)
        got = [(g.weight, g.density) for m in recipe.per_model for g in m.groups]
        want = scalar_decoded_coefficients(genome, like)
        assert all(type(v) is float for pair in got for v in pair)
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_initial_mean_layout():
    mean = encode_genome(ties_recipe(n_models=2, n_groups=2))
    np.testing.assert_array_equal(mean, [0.5, 1.0] * 4)
    ta = start_recipe("task_arithmetic", 3, 2, ["a"])
    np.testing.assert_array_equal(encode_genome(ta), [0.5, 0.5])


@pytest.mark.parametrize("method", ["ties", "task_arithmetic", "linear"])
def test_a_recipe_in_its_boxes_decodes_from_its_genome_unchanged(rng, method):
    for _ in range(100):
        num_groups = int(rng.integers(1, 5))
        recipe = MergeRecipe(method, int(rng.integers(1, 4)), float(rng.uniform(0.0, 2.0)), [
            ModelCoeffs(f"m{i}", [
                GroupCoeffs(float(rng.uniform(WEIGHT_LO, WEIGHT_HI)),
                            float(rng.uniform(DENSITY_LO, DENSITY_HI)) if method == "ties" else 1.0)
                for _ in range(num_groups)], path=f"m{i}.st")
            for i in range(int(rng.integers(1, 4)))])
        genome = encode_genome(recipe)
        coefficients = recipe_coefficients(recipe)
        want = coefficients if method == "ties" else coefficients[0::2]
        assert genome.dtype == np.float64
        np.testing.assert_array_equal(genome, want)
        assert decode_genome(genome, recipe).dumps() == recipe.dumps()


# --- external evaluator protocol ----------------------------------------------

def write_script(path, body):
    path.write_text("#!/usr/bin/env python3\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


def checkpoint_file(tmp_path, name="c.st"):
    """(checkpoint, path it was saved to): the two arguments of ``evaluate``."""
    ckpt = init_mlp(0, widths=(1, 4, 1))
    path = tmp_path / name
    save_checkpoint(ckpt, path)
    return ckpt, path


def test_external_evaluator_parses_last_line(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "import sys\nprint('log line')\nprint('{\"fitness\": 0.73}')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    assert ev.evaluate(*checkpoint_file(tmp_path)) == 0.73


def test_external_evaluator_nonzero_exit(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "import sys\nsys.exit(3)\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(EvaluatorFailed):
        ev.evaluate(*checkpoint_file(tmp_path))


def test_external_evaluator_garbage_output(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "print('not json at all')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(EvaluatorProtocol):
        ev.evaluate(*checkpoint_file(tmp_path))


@pytest.mark.parametrize("stream,code,states", [
    ("stdout", 0, "Expecting value"), ("stderr", 3, "evaluator exited 3: "),
])
def test_external_evaluator_errors_quote_a_bounded_excerpt(tmp_path, stream, code, states):
    script = tmp_path / "eval.py"
    write_script(script, f"import sys\nprint('x' * 100_000, file=sys.{stream})\nsys.exit({code})\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises((EvaluatorFailed, EvaluatorProtocol)) as info:
        ev.evaluate(*checkpoint_file(tmp_path))
    message = str(info.value)
    assert states in message and "xxx...xxx" in message
    assert len(message.encode()) < 1024


def test_external_evaluator_missing_key(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "print('{\"score\": 1.0}')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(EvaluatorProtocol):
        ev.evaluate(*checkpoint_file(tmp_path))


def test_external_evaluator_nonfinite_fitness(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "print('{\"fitness\": NaN}')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(EvaluatorProtocol):
        ev.evaluate(*checkpoint_file(tmp_path))


def test_external_evaluator_timeout(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "import time\ntime.sleep(30)\n")
    ev = make_evaluator(
        {"command": f"{sys.executable} {script} {{checkpoint}}", "timeout": 0.5}
    )
    with pytest.raises(EvaluatorFailed):
        ev.evaluate(*checkpoint_file(tmp_path))


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
            ev.evaluate(*checkpoint_file(tmp_path))
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


def test_external_evaluator_command_must_split_into_words():
    with pytest.raises(ValueError, match="evaluator.command .*No closing quotation"):
        make_evaluator({"command": 'python3 -c "print(1) {checkpoint}'})


@pytest.mark.parametrize("stream,code,error,states", [
    ("stdout", 0, EvaluatorProtocol, "last stdout line "),
    ("stderr", 3, EvaluatorFailed, "evaluator exited 3: "),
], ids=["stdout", "stderr"])
def test_external_evaluator_output_that_is_not_utf8_is_quoted(tmp_path, stream, code, error,
                                                               states):
    script = tmp_path / "eval.py"
    write_script(script, f"import sys\nsys.{stream}.buffer.write(b'\\xff\\n')\nsys.exit({code})\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    with pytest.raises(error) as info:
        ev.evaluate(*checkpoint_file(tmp_path))
    assert states + repr("\\xff") in str(info.value)


def test_external_evaluator_reads_past_a_line_that_is_not_utf8(tmp_path):
    script = tmp_path / "eval.py"
    write_script(script, "import sys\n"
                         "sys.stdout.buffer.write(b'log \\xff\\n{\"fitness\": 0.25}\\n')\n")
    ev = make_evaluator({"command": f"{sys.executable} {script} {{checkpoint}}"})
    assert ev.evaluate(*checkpoint_file(tmp_path)) == 0.25


# --- builtin evaluators -----------------------------------------------------------

def test_l2_to_target_zero_at_target(tmp_path):
    base = init_mlp(3)
    base_path = tmp_path / "base.st"
    save_checkpoint(base, base_path)
    ev = make_evaluator({"builtin": "l2-to-target", "target_path": str(base_path)})
    assert ev.evaluate(base, base_path) == 0.0


def test_l2_to_target_negative_away_from_target(tmp_path):
    base = init_mlp(3)
    other = init_mlp(4)
    base_path = tmp_path / "b.st"
    save_checkpoint(base, base_path)
    ev = make_evaluator({"builtin": "l2-to-target", "target_path": str(base_path)})
    assert ev.evaluate(other, None) < 0.0  # a builtin does not read the path


def test_toy_regression_matches_manual_mse():
    xs = np.linspace(-2, 2, 64)
    ckpt = train_mlp(init_mlp(0), xs, np.sin(2.5 * xs), lr=0.01, steps=200)
    pred = mlp_forward(ckpt, xs)
    expected = -(
        float(np.mean((pred - np.sin(2.5 * xs)) ** 2))
        + float(np.mean((pred - np.cos(1.5 * xs)) ** 2))
    )
    ev = make_evaluator({"builtin": "toy-regression"})
    assert ev.evaluate(ckpt, None) == pytest.approx(expected, rel=1e-12)


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

    def evaluate(self, merged, path):
        self.calls += 1
        return 1.25


def save_two_experts(tmp_path, seed=0, steps=300, metadata=None):
    """A base and its sin and cos experts as m0 and m1, saved under
    ``tmp_path`` at the paths ``search_config(tmp_path)`` names; returns
    the two experts as trained."""
    xs = np.linspace(-2, 2, 64)
    base = init_mlp(seed)
    experts = [train_mlp(base, xs, np.sin(2.5 * xs), lr=0.01, steps=steps),
               train_mlp(base, xs, np.cos(1.5 * xs), lr=0.01, steps=steps)]
    for name, ckpt in zip(("base", "m0", "m1"), [base] + experts):
        ckpt.metadata.update(metadata or {})
        save_checkpoint(ckpt, tmp_path / f"{name}.st")
    return experts


def two_expert_sources(tmp_path, **kwargs):
    save_two_experts(tmp_path, **kwargs)
    config = search_config(tmp_path)
    return load_sources(config.base_path, config.models)


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
    # the base and the three fine-tuned checkpoints the vectors hold stay;
    # besides them, one checkpoint's digest working set (all three at once is 3x)
    assert held >= 4 * model_bytes
    assert peak < held + 2 * model_bytes, (peak - held) / model_bytes

    base = load_checkpoint(tmp_path / "base.st")
    digests = [checkpoint_digest(base)]
    assert [v.source_id for v in sources.vectors] == ["m0", "m1", "m2"]
    for vec in sources.vectors:
        tuned = load_checkpoint(tmp_path / f"{vec.source_id}.st")
        digests.append(f"{vec.source_id}:{checkpoint_digest(tuned)}")
        want = compute_task_vector(base, tuned, vec.source_id)
        assert all(vec.delta(n, base.array(n)).tobytes() == want.delta(n, base.array(n)).tobytes()
                   for n in arrays)
    assert sources.digest == hashlib.sha256("|".join(digests).encode()).hexdigest()


def test_cache_second_call_skips_evaluator(tmp_path):
    sources = two_expert_sources(tmp_path)
    recipe = ties_recipe()
    ev = CountingEvaluator()
    cache = FitnessCache()
    f1, invoked1 = evaluate_candidate(recipe, ev, tmp_path, sources, cache=cache)
    f2, invoked2 = evaluate_candidate(recipe, ev, tmp_path, sources, cache=cache)
    assert invoked1 and not invoked2
    assert f1 == f2 and ev.calls == 1


def test_cache_persists_on_disk(tmp_path):
    sources = two_expert_sources(tmp_path)
    recipe = ties_recipe()
    ev = CountingEvaluator()
    cache_dir = tmp_path / "cache"
    f1, _ = evaluate_candidate(recipe, ev, tmp_path, sources, cache=FitnessCache(cache_dir))
    f2, invoked2 = evaluate_candidate(
        recipe, ev, tmp_path, sources, cache=FitnessCache(cache_dir)
    )
    assert not invoked2 and f1 == f2 and ev.calls == 1


@pytest.mark.parametrize("text", ['{"score": 1.0}', '{"fitness": "1.0"}', "[1.0]",
                                  '{"fitness": NaN}', '{"fitness": -Infinity}'],
                         ids=["missing", "string", "list", "nan", "minus-infinity"])
def test_cache_file_of_the_wrong_shape_is_malformed_input(tmp_path, text):
    (tmp_path / "key.json").write_text(text)
    with pytest.raises(MalformedInput, match="key.json: "):
        FitnessCache(tmp_path).get("key")


def test_cache_put_failing_partway_leaves_the_earlier_entry(tmp_path, full_disk):
    FitnessCache(tmp_path).put("k", 1.0)
    earlier = (tmp_path / "k.json").read_bytes()
    full_disk("k.json")
    with pytest.raises(IoFailure, match="k.json: .*No space left on device"):
        FitnessCache(tmp_path).put("k", 2.0)
    assert os.listdir(tmp_path) == ["k.json"]
    assert (tmp_path / "k.json").read_bytes() == earlier


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


def test_cache_key_distinguishes_evaluators(tmp_path):
    sources = two_expert_sources(tmp_path)
    recipe = ties_recipe()
    k1 = FitnessCache.key(recipe, sources.digest, "eval-a")
    k2 = FitnessCache.key(recipe, sources.digest, "eval-b")
    assert k1 != k2


@pytest.mark.parametrize("spec", [{"builtin": "toy-regression"}, "l2-to-target"],
                         ids=["toy-regression", "l2-to-target"])
def test_builtin_evaluator_scores_the_merged_checkpoint_in_memory(tmp_path, monkeypatch, spec):
    sources = two_expert_sources(tmp_path)
    if spec == "l2-to-target":
        spec = {"builtin": spec, "target_path": str(tmp_path / "m0.st")}
    ev = make_evaluator(spec)
    scored = []
    real = type(ev).evaluate
    monkeypatch.setattr(type(ev), "evaluate",
                        lambda self, *args: scored.append(args) or real(self, *args))
    fitness, invoked = evaluate_candidate(ties_recipe(), ev, tmp_path, sources, FitnessCache())
    assert invoked and len(scored) == 1
    merged, path = scored[0]
    assert isinstance(merged, Checkpoint) and path == tmp_path / "candidate.st"
    # the candidate file is still written, and scoring it gives the same bits
    written = load_checkpoint(path)
    assert checkpoint_digest(written) == checkpoint_digest(merged)
    assert real(ev, written, None) == fitness


def test_evaluate_candidate_retries(tmp_path):
    class FlakyEvaluator:
        def __init__(self):
            self.calls = 0

        @property
        def evaluator_id(self):
            return "flaky:v1"

        def evaluate(self, merged, path):
            self.calls += 1
            if self.calls == 1:
                raise EvaluatorFailed("transient")
            return 2.0

    sources = two_expert_sources(tmp_path)
    recipe = ties_recipe()
    ev = FlakyEvaluator()
    fitness, invoked = evaluate_candidate(recipe, ev, tmp_path, sources, FitnessCache(), retries=1)
    assert fitness == 2.0 and invoked and ev.calls == 2


@pytest.mark.parametrize("command,launches", [
    ("{tmp}/no-such-evaluator {{checkpoint}}", 1),
    ("{python} -S -c 'import sys; sys.exit(1)' {{checkpoint}}", 4),
], ids=["cannot-start", "exits-1"])
def test_only_a_command_that_ran_is_retried(tmp_path, monkeypatch, command, launches):
    popen, launched = subprocess.Popen, []

    def counting_popen(*args, **kwargs):
        launched.append(args[0])
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", counting_popen)
    sources = two_expert_sources(tmp_path, steps=1)
    ev = make_evaluator({"command": command.format(tmp=tmp_path, python=sys.executable)})
    with pytest.raises(EvaluatorFailed):
        evaluate_candidate(ties_recipe(), ev, tmp_path, sources, FitnessCache(), retries=3)
    assert len(launched) == launches


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
    save_two_experts(tmp_path)
    config = search_config(tmp_path, iterations=0)
    result = run_search(config, tmp_path / "w")
    assert result.evaluations == 1
    assert result.generations == 0
    mean = encode_genome(ties_recipe())
    np.testing.assert_array_equal(result.best_genome, mean)
    np.testing.assert_array_equal(recipe_coefficients(result.best_recipe), mean)


def test_run_search_checks_layer_metadata_like_merge(tmp_path):
    save_two_experts(tmp_path, steps=1, metadata={"num_layers": "two"})
    with pytest.raises(MissingLayerMetadata):
        run_search(search_config(tmp_path, iterations=0), tmp_path / "w")


def test_run_search_deterministic_across_runs_and_threads(tmp_path):
    save_two_experts(tmp_path)
    results = []
    for i, threads in enumerate((1, 4, 1)):
        config = search_config(tmp_path, iterations=3, seed=7, threads=threads)
        results.append(run_search(config, tmp_path / f"w{i}"))
    a, b, c = results
    assert a.best_fitness == b.best_fitness == c.best_fitness
    np.testing.assert_array_equal(a.best_genome, b.best_genome)
    np.testing.assert_array_equal(a.best_genome, c.best_genome)
    assert a.history == b.history == c.history
    assert a.evaluations == b.evaluations == c.evaluations


def test_run_search_eval_budget_and_history(tmp_path):
    save_two_experts(tmp_path)
    config = search_config(tmp_path, iterations=3, seed=1)
    result = run_search(config, tmp_path / "w")
    assert result.evaluations == 1 + 3 * result.pop_size
    assert result.evaluator_invocations <= result.evaluations
    assert len(result.history) == 4
    best_so_far = [row["best_so_far"] for row in result.history]
    assert best_so_far == sorted(best_so_far)
    assert result.best_fitness == best_so_far[-1]


def test_run_search_resume_matches_uninterrupted(tmp_path):
    save_two_experts(tmp_path)
    full = run_search(search_config(tmp_path, iterations=6, seed=3), tmp_path / "full")
    prefix_dir = tmp_path / "prefix"
    run_search(search_config(tmp_path, iterations=2, seed=3), prefix_dir)
    resumed = run_search(search_config(tmp_path, iterations=6, seed=3), prefix_dir, resume=True)
    assert resumed.best_fitness == full.best_fitness
    np.testing.assert_array_equal(resumed.best_genome, full.best_genome)
    assert resumed.history == full.history
    assert resumed.evaluations == full.evaluations


def test_run_search_resume_rejects_wrong_config(tmp_path):
    save_two_experts(tmp_path)
    run_search(search_config(tmp_path, iterations=1, seed=3), tmp_path / "w")
    with pytest.raises(ValueError):
        run_search(search_config(tmp_path, iterations=1, seed=4), tmp_path / "w", resume=True)


def test_run_search_beats_parents_one_seed(tmp_path):
    xs = np.linspace(-2, 2, 64)
    ya, yb = np.sin(2.5 * xs), np.cos(1.5 * xs)
    ea, eb = save_two_experts(tmp_path, steps=1500)
    parent = min(mse(ea, xs, ya) + mse(ea, xs, yb), mse(eb, xs, ya) + mse(eb, xs, yb))
    config = search_config(tmp_path, iterations=30, seed=0)
    result = run_search(config, tmp_path / "w")
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
