"""Top-level acceptance checks, one numbered pass/fail line each.

Every test here guards one exit property of the toolkit: merge oracles,
search quality, optimizer benchmarks, alignment optimality, fusion math,
container formats, and reproducibility.  The pass/fail lines collect in
ACCEPTANCE_LINES and conftest echoes them after the run, where pytest's
capture cannot hide them.
"""

import itertools
import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from umm.cli import main as cli_main
from umm.cmaes import cmaes_ask, cmaes_init, cmaes_tell
from umm.distro_fusion import (
    DistributionMatrix,
    FusionExample,
    ToyModel,
    combined_loss,
    fusion_loss,
    init_toy_model,
    mince_fuse,
    sequence_cross_entropy,
    sft_loss,
    toy_loss_and_grad,
    toy_train,
)
from umm.evo_search import config_from_json_obj, run_search
from umm.merge_core import (
    GroupCoeffs,
    MergeRecipe,
    ModelCoeffs,
    compute_task_vector,
    expand_schedule,
    load_recipe,
    merge,
)
from umm.tensor_store import Checkpoint, Tensor, load_checkpoint, save_checkpoint
from umm.token_align import (
    AlignStats,
    SurfaceNormalizer,
    TokenSeq,
    align_sequences,
    alignment_cost,
    kind_histogram,
    project_distribution,
    update_stats,
)
from umm.toy_mlp import init_mlp, mse, train_mlp

from conftest import checkpoints_bitwise_equal, random_checkpoint, random_ties_instance
from reference_impls import (
    ref_min_alignment_cost,
    ref_sequence_ce,
    ref_sft_train,
    ref_ties_merge,
)

TOTAL = 11
FIXTURES = Path(__file__).parent / "fixtures"
ACCEPTANCE_LINES = []


def _report(index: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{index:2d}/{TOTAL}] {status} {description}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


@contextmanager
def criterion(index: int, description: str):
    try:
        yield
    except BaseException:
        _report(index, description, False)
        raise
    _report(index, description, True)


# --- 1: TIES oracle ---------------------------------------------------------------


def test_01_ties_bitwise_matches_brute_force_reference():
    rng = np.random.default_rng(20240819)
    with criterion(1, "ties merge bitwise-equals the scalar reference on 1000 random instances"):
        for _ in range(1000):
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


# --- 2: task-arithmetic identities --------------------------------------------------


def _flat_recipe(method, n_models, weight, density=1.0, lambda_scale=1.0):
    """Recipe whose two groups (one layer group + global) share one value."""
    per_model = [
        ModelCoeffs(
            source_id=f"m{i}",
            groups=[GroupCoeffs(weight=weight, density=density)] * 2,
        )
        for i in range(n_models)
    ]
    return MergeRecipe(method=method, group_size=1,
                       lambda_scale=lambda_scale, per_model=per_model)


def test_02_task_arithmetic_identities():
    rng = np.random.default_rng(7)
    meta = {"layer_pattern": "layers.{i}.", "num_layers": "1"}
    with criterion(2, "zero weights reproduce the base; unit weight recovers the fine-tuned model"):
        for _ in range(200):
            base = random_checkpoint(rng, max_tensors=6, max_scalars=128, metadata=meta)
            tuned = Checkpoint(
                tensors={
                    name: Tensor(base.array(name)
                                 + rng.standard_normal(base.array(name).shape
                                                       ).astype(np.float32))
                    for name in base.names()
                },
                metadata=dict(meta),
            )
            n_models = int(rng.integers(1, 4))
            vectors = [compute_task_vector(base, tuned, f"m{i}")
                       for i in range(n_models)]

            zeroed = merge(base, vectors, _flat_recipe("task_arithmetic", n_models, 0.0))
            for name in base.names():
                assert zeroed.array(name).tobytes() == base.array(name).tobytes()

            copied = merge(base, vectors[:1], _flat_recipe("task_arithmetic", 1, 1.0))
            for name in base.names():
                merged = copied.array(name)
                f, b = tuned.array(name), base.array(name)
                scale = np.maximum(np.abs(f), np.abs(b))
                assert np.all(np.abs(merged - f) <= 1e-6 * scale), name


# --- 3: desk-scale combinatorial merging --------------------------------------------


def test_03_evolved_merge_beats_both_parents():
    xs = np.linspace(-2.0, 2.0, 64)
    target_a = np.sin(2.5 * xs)
    target_b = np.cos(1.5 * xs)
    wins = 0
    with criterion(3, "searched merge cuts combined error to <= 0.9x the best parent on >= 8/10 seeds"):
        for seed in range(10):
            tmp = Path(tempfile.mkdtemp(prefix="merge_search_"))
            base = init_mlp(seed=seed)
            save_checkpoint(base, tmp / "base.st")
            expert_a = train_mlp(base, xs, target_a, lr=0.01, steps=300)
            expert_b = train_mlp(base, xs, target_b, lr=0.01, steps=300)
            save_checkpoint(expert_a, tmp / "a.st")
            save_checkpoint(expert_b, tmp / "b.st")
            parent_err = min(
                mse(expert_a, xs, target_a) + mse(expert_a, xs, target_b),
                mse(expert_b, xs, target_a) + mse(expert_b, xs, target_b),
            )
            config = config_from_json_obj({
                "method": "ties",
                "group_size": 3,
                "base_path": str(tmp / "base.st"),
                "models": [{"source_id": "a", "path": str(tmp / "a.st")},
                           {"source_id": "b", "path": str(tmp / "b.st")}],
                "evaluator": {"builtin": "toy-regression",
                              "targets": [["sin", 2.5], ["cos", 1.5]]},
                "iterations": 30,
                "seed": seed,
                "threads": 1,
            })
            result = run_search(config, tmp / "run")
            merged_err = -result.best_fitness
            if merged_err <= 0.9 * parent_err:
                wins += 1
        assert wins >= 8, f"only {wins}/10 seeds improved enough"


# --- 4: optimizer benchmarks --------------------------------------------------------


def _sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def _rosenbrock(x):
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _optimize(func, mean0, sigma0, max_evals, seed, target):
    state = cmaes_init(len(mean0), np.asarray(mean0, dtype=float), sigma0, seed=seed)
    evals = 0
    best = float("inf")
    while evals < max_evals:
        genomes = cmaes_ask(state)
        fits = [func(g) for g in genomes]
        evals += len(genomes)
        best = min(best, min(fits))
        if best < target:
            break
        cmaes_tell(state, genomes, fits)
    return best


def test_04_cmaes_benchmark_budgets():
    with criterion(4, "optimizer reaches sphere and Rosenbrock targets within budget"):
        sphere_hits = sum(
            _optimize(_sphere, np.full(10, 3.0), 0.5, 6000, seed, 1e-10) < 1e-10
            for seed in range(10)
        )
        assert sphere_hits >= 9, f"sphere solved on {sphere_hits}/10 seeds"
        rosen_hits = sum(
            _optimize(_rosenbrock, np.zeros(5), 0.5, 30000, seed, 1e-6) < 1e-6
            for seed in range(10)
        )
        assert rosen_hits >= 7, f"rosenbrock solved on {rosen_hits}/10 seeds"


# --- 5: alignment suite -------------------------------------------------------------

ALPHABET = ("ab", "b", "ca")  # pairwise costs are exact binary fractions
NORM = SurfaceNormalizer()


def _seq(symbols):
    return TokenSeq(list(symbols), [ALPHABET[i] for i in symbols])


def _check_optimal(pa, pb):
    pivot, source = _seq(pa), _seq(pb)
    got = alignment_cost(pivot, source, NORM)
    want = ref_min_alignment_cost([ALPHABET[i] for i in pa], [ALPHABET[i] for i in pb])
    assert got == want, (pa, pb, got, want)


def test_05_alignment_identity_split_and_optimality():
    with criterion(5, "identity aligns one_one, split fixture aligns many_one, costs match enumeration"):
        # identical tokenizations: nothing but one_one
        for ids in ([0, 1, 2, 0], [2, 2], [1, 0, 1, 2, 1]):
            seq = _seq(ids)
            kinds = kind_histogram(align_sequences(seq, seq, NORM))
            assert kinds == {"one_one": len(ids), "one_many": 0,
                             "many_one": 0, "many_many": 0}

        # every source token splits into exactly two pivot tokens
        words = [("hel", "lo"), ("ca", "t"), ("mer", "ge"), ("to", "ken")]
        for first, second in words:
            pivot = TokenSeq([0, 1], [first, second])
            source = TokenSeq([0], [first + second])
            kinds = kind_histogram(align_sequences(pivot, source, NORM))
            assert kinds == {"one_one": 0, "one_many": 0,
                             "many_one": 1, "many_many": 0}

        # optimal-cost sweep against alignment enumeration, tolerance 0:
        # every pair with both sides of length <= 4, every pair that
        # involves a length-5 sequence against a length-1 sequence, and
        # 400 seeded random pairs with lengths in {5, 6}
        short = [t for n in range(1, 5) for t in itertools.product(range(3), repeat=n)]
        for pa in short:
            for pb in short:
                _check_optimal(pa, pb)
        ones = list(itertools.product(range(3), repeat=1))
        fives = list(itertools.product(range(3), repeat=5))
        for pa in fives:
            for pb in ones:
                _check_optimal(pa, pb)
                _check_optimal(pb, pa)
        rng = np.random.default_rng(20240819)
        for _ in range(400):
            la, lb = rng.integers(5, 7, size=2)
            _check_optimal(tuple(rng.integers(0, 3, la)), tuple(rng.integers(0, 3, lb)))


# --- 6: projection normalization ----------------------------------------------------

SURFACE_POOL = ("ab", "b", "ca", "abc", "▁ab")


def test_06_projection_rows_normalized_and_identity_exact():
    rng = np.random.default_rng(11)
    pivot_vocab, source_vocab = 6, 5
    rows_checked = 0
    with criterion(6, "projected rows sum to one and identity statistics copy the input"):
        while rows_checked < 1000:
            lp = int(rng.integers(2, 8))
            ls = int(rng.integers(2, 8))
            pivot = TokenSeq(
                rng.integers(0, pivot_vocab, lp).tolist(),
                [SURFACE_POOL[i] for i in rng.integers(0, len(SURFACE_POOL), lp)],
            )
            source = TokenSeq(
                rng.integers(0, source_vocab, ls).tolist(),
                [SURFACE_POOL[i] for i in rng.integers(0, len(SURFACE_POOL), ls)],
            )
            segments = align_sequences(pivot, source, NORM)
            stats = update_stats(AlignStats(pivot_vocab, source_vocab),
                                 segments, pivot, source)
            dist = DistributionMatrix(rng.dirichlet(np.ones(source_vocab), size=ls))
            fallback = DistributionMatrix(rng.dirichlet(np.ones(pivot_vocab), size=lp))
            projected = project_distribution(dist, segments, stats, pivot, source,
                                             pivot_fallback=fallback)
            sums = projected.rows.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-6)
            rows_checked += projected.length

        # aligning a sequence with itself gives identity statistics, and
        # projecting through them must reproduce the input bitwise
        seq = TokenSeq([0, 3, 1, 5, 2, 4], ["ab", "b", "ca", "abc", "b", "ab"])
        segments = align_sequences(seq, seq, NORM)
        stats = update_stats(AlignStats(6, 6), segments, seq, seq)
        dist = DistributionMatrix(rng.dirichlet(np.ones(6), size=len(seq)))
        projected = project_distribution(dist, segments, stats, seq, seq,
                                         pivot_fallback=dist)
        np.testing.assert_array_equal(projected.rows, dist.rows)


# --- 7: fusion selection oracle -----------------------------------------------------


def test_07_mince_matches_argmin_oracle():
    rng = np.random.default_rng(23)
    with criterion(7, "fusion keeps the lower-cross-entropy matrix on 200 random examples"):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            vocab = int(rng.integers(3, 9))
            gold = rng.integers(0, vocab, n).tolist()
            example = FusionExample(
                instruction=[int(rng.integers(0, vocab))],
                gold=gold,
                pivot_dist=DistributionMatrix(rng.dirichlet(np.ones(vocab), size=n)),
                source_dist_aligned=DistributionMatrix(
                    rng.dirichlet(np.ones(vocab), size=n)),
            )
            fused = mince_fuse(example)
            src_ce = ref_sequence_ce(example.source_dist_aligned.rows, gold)
            piv_ce = ref_sequence_ce(example.pivot_dist.rows, gold)
            expected = (example.source_dist_aligned if src_ce < piv_ce
                        else example.pivot_dist)
            assert fused is expected
            fused_ce = sequence_cross_entropy(fused, gold)
            assert fused_ce <= sequence_cross_entropy(example.pivot_dist, gold)
            assert fused_ce <= sequence_cross_entropy(
                example.source_dist_aligned, gold)


# --- 8: gradient check --------------------------------------------------------------


def _random_corpus(rng, vocab, n_examples):
    corpus = []
    for _ in range(n_examples):
        n = int(rng.integers(1, 5))
        corpus.append(FusionExample(
            instruction=[int(rng.integers(0, vocab))],
            gold=rng.integers(0, vocab, n).tolist(),
            pivot_dist=DistributionMatrix(rng.dirichlet(np.ones(vocab), size=n)),
            source_dist_aligned=DistributionMatrix(
                rng.dirichlet(np.ones(vocab), size=n)),
        ))
    return corpus


def test_08_toy_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    h = 1e-3
    lambdas = [0.0, 0.25, 0.5, 0.75, 1.0]
    with criterion(8, "analytic gradient matches central differences on 50 coordinates"):
        for model_index in range(10):
            vocab = int(rng.integers(4, 8))
            model = init_toy_model(vocab, seed=model_index, scale=0.5)
            corpus = _random_corpus(rng, vocab, int(rng.integers(2, 4)))
            lam = lambdas[model_index % len(lambdas)]
            _, grad = toy_loss_and_grad(model, corpus, lam)
            for _ in range(5):
                i = int(rng.integers(0, vocab))
                j = int(rng.integers(0, vocab))
                bumped = model.logits.copy()
                bumped[i, j] += h
                up = toy_loss_and_grad(ToyModel(bumped), corpus, lam)[0].combined
                bumped[i, j] -= 2 * h
                down = toy_loss_and_grad(ToyModel(bumped), corpus, lam)[0].combined
                fd = (up - down) / (2 * h)
                rel = abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-8)
                assert rel < 1e-4, (model_index, i, j, fd, grad[i, j])


# --- 9: loss algebra ----------------------------------------------------------------


def test_09_combined_loss_affine_and_gold_only_bit_identity():
    rng = np.random.default_rng(43)
    with criterion(9, "combined loss is affine in lambda; lambda=1 descent equals gold-only descent"):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            vocab = int(rng.integers(3, 8))
            gold = rng.integers(0, vocab, n).tolist()
            model_dist = DistributionMatrix(rng.dirichlet(np.ones(vocab), size=n))
            fused = DistributionMatrix(rng.dirichlet(np.ones(vocab), size=n))
            l_sft = sft_loss(model_dist, gold)
            l_fus = fusion_loss(fused, model_dist)
            for lam in np.linspace(0.0, 1.0, 11):
                got = combined_loss(l_sft, l_fus, float(lam)).combined
                assert abs(got - (lam * l_sft + (1.0 - lam) * l_fus)) <= 1e-12

        vocab = 5
        corpus = _random_corpus(rng, vocab, 3)
        model = init_toy_model(vocab)
        trained, history = toy_train(model, corpus, lambda_mix=1.0, lr=0.4, steps=25)
        from umm.distro_fusion import example_contexts
        ref_logits, ref_history = ref_sft_train(
            np.zeros((vocab, vocab)),
            [example_contexts(ex) for ex in corpus],
            [ex.gold for ex in corpus],
            lr=0.4, steps=25,
        )
        assert history == ref_history
        np.testing.assert_array_equal(trained.logits, ref_logits)


# --- 10: format round-trip ----------------------------------------------------------


def test_10_container_round_trip_and_recipe_fixture():
    rng = np.random.default_rng(59)
    with criterion(10, "containers round-trip bitwise and the layer-10 recipe expands to its groups"):
        with tempfile.TemporaryDirectory() as tmp:
            for i in range(100):
                ckpt = random_checkpoint(rng, metadata={"step": str(i)})
                path = Path(tmp) / f"c{i:03d}.st"
                save_checkpoint(ckpt, path)
                assert checkpoints_bitwise_equal(load_checkpoint(path), ckpt)

        recipe = load_recipe(FIXTURES / "ties_layer10_recipe.json")
        assert recipe.method == "ties" and recipe.group_size == 10
        dummy = Checkpoint(
            tensors={f"layers.{i}.w": Tensor(np.zeros(2, np.float32))
                     for i in range(30)} | {"embed.w": Tensor(np.zeros(2, np.float32))},
            metadata={"layer_pattern": "layers.{i}.", "num_layers": "30"},
        )
        schedule = expand_schedule(recipe, dummy)
        spans = [row["span"] for row in schedule.group_table()]
        assert spans == ["layers 0-9", "layers 10-19", "layers 20-29", "global"]
        expected = {
            0: [(0.45, 0.9), (0.58, 1.0)],
            1: [(0.083, 0.73), (0.78, 1.0)],
            2: [(0.52, 1.0), (0.78, 1.0)],
        }
        for layer in range(30):
            assert schedule.coeffs(f"layers.{layer}.w") == expected[layer // 10], layer
        assert schedule.coeffs("embed.w") == [(0.5, 1.0), (0.7, 1.0)]


# --- 11: end-to-end reproducibility -------------------------------------------------


def test_11_cli_search_reproducible_across_threads(tmp_path, capsys):
    xs = np.linspace(-2.0, 2.0, 64)
    base = init_mlp(seed=0)
    save_checkpoint(base, tmp_path / "base.st")
    for sid, values in (("sin", np.sin(2.5 * xs)), ("cos", np.cos(1.5 * xs))):
        save_checkpoint(train_mlp(base, xs, values, lr=0.01, steps=120),
                        tmp_path / f"{sid}.st")
    config = {
        "method": "ties",
        "group_size": 3,
        "base_path": str(tmp_path / "base.st"),
        "models": [{"source_id": sid, "path": str(tmp_path / f"{sid}.st")}
                   for sid in ("cos", "sin")],
        "evaluator": {"builtin": "toy-regression",
                      "targets": [["sin", 2.5], ["cos", 1.5]]},
        "iterations": 2,
        "seed": 5,
        "threads": 1,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    with criterion(11, "fixed-seed search results are identical across runs and thread counts"):
        outputs = []
        recipes = []
        for name, threads in (("t1_first", 1), ("t4", 4), ("t1_again", 1)):
            code = cli_main(
                ["--log-level", "warning", "--threads", str(threads),
                 "search", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / name)]
            )
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(json.loads(captured.out))
            recipes.append((tmp_path / name / "best_recipe.json").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert recipes[1] == recipes[0] and recipes[2] == recipes[0]
