import math
import re

import numpy as np
import pytest

from umm.distro_fusion import (
    DistributionMatrix,
    FusionExample,
    ToyModel,
    combined_loss,
    example_contexts,
    example_from_json_obj,
    fusion_loss,
    init_toy_model,
    load_distribution,
    load_fusion_corpus,
    mince_fuse,
    save_distribution,
    save_toy_model,
    sequence_cross_entropy,
    sft_loss,
    toy_forward,
    toy_loss_and_grad,
    toy_train,
)
from umm.errors import (
    EmptySequence,
    InvalidDistribution,
    InvalidLambda,
    IoFailure,
    MalformedInput,
    OutOfVocab,
    ShapeMismatch,
)

from umm.tensor_store import Checkpoint, Tensor, load_checkpoint, save_checkpoint

from conftest import fusion_example_obj, write_fusion_corpus
from reference_impls import ref_sequence_ce, ref_sft_train


def dirichlet_matrix(rng, n, vocab):
    return DistributionMatrix(rng.dirichlet(np.ones(vocab), size=n))


def one_hot_matrix(gold, vocab):
    rows = np.zeros((len(gold), vocab))
    rows[np.arange(len(gold)), gold] = 1.0
    return DistributionMatrix(rows)


def random_example(rng, vocab=6, n=None):
    n = n or int(rng.integers(1, 7))
    gold = [int(rng.integers(0, vocab)) for _ in range(n)]
    instruction = [int(rng.integers(0, vocab))]
    return FusionExample(
        instruction=instruction,
        gold=gold,
        pivot_dist=dirichlet_matrix(rng, n, vocab),
        source_dist_aligned=dirichlet_matrix(rng, n, vocab),
    )


# --- distribution matrix -------------------------------------------------------

def test_matrix_validation():
    DistributionMatrix([[0.5, 0.5]])
    with pytest.raises(InvalidDistribution):
        DistributionMatrix([[0.6, 0.6]])
    with pytest.raises(InvalidDistribution):
        DistributionMatrix([[1.2, -0.2]])
    with pytest.raises(InvalidDistribution):
        DistributionMatrix([[np.nan, 1.0]])
    with pytest.raises(InvalidDistribution):
        DistributionMatrix([0.5, 0.5])
    with pytest.raises(EmptySequence):
        DistributionMatrix(np.zeros((0, 3)))


def test_matrix_row_sum_tolerance():
    DistributionMatrix([[0.5, 0.5 + 5e-7]])
    with pytest.raises(InvalidDistribution):
        DistributionMatrix([[0.5, 0.5 + 5e-6]])


def test_fusion_example_validation(rng):
    vocab, n = 4, 3
    good = FusionExample([1], [0, 1, 2], dirichlet_matrix(rng, n, vocab),
                         dirichlet_matrix(rng, n, vocab))
    assert good.gold == [0, 1, 2]
    with pytest.raises(ShapeMismatch):
        FusionExample([1], [0, 1], dirichlet_matrix(rng, n, vocab),
                      dirichlet_matrix(rng, n, vocab))
    with pytest.raises(ShapeMismatch):
        FusionExample([1], [0, 1, 2], dirichlet_matrix(rng, n, vocab),
                      dirichlet_matrix(rng, n, vocab + 1))


# --- cross entropy --------------------------------------------------------------

def test_ce_one_hot_is_zero():
    gold = [2, 0, 1]
    assert sequence_cross_entropy(one_hot_matrix(gold, 4), gold) == 0.0


def test_ce_uniform():
    dist = DistributionMatrix(np.full((5, 4), 0.25))
    assert sequence_cross_entropy(dist, [0, 1, 2, 3, 0]) == pytest.approx(math.log(4))


def test_ce_hand_example():
    rows = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
    value = sequence_cross_entropy(DistributionMatrix(rows), [0, 2])
    assert value == pytest.approx(-(math.log(0.5) + math.log(0.25)) / 2)
    assert value == pytest.approx(1.0397, abs=1e-4)


def test_ce_floors_zero_probability():
    rows = np.array([[1.0, 0.0]])
    assert sequence_cross_entropy(DistributionMatrix(rows), [1]) == pytest.approx(
        -math.log(1e-12)
    )


def test_ce_errors():
    dist = DistributionMatrix(np.full((2, 4), 0.25))
    with pytest.raises(ShapeMismatch):
        sequence_cross_entropy(dist, [0])
    with pytest.raises(OutOfVocab):
        sequence_cross_entropy(dist, [0, 4])


def test_ce_matches_reference(rng):
    for _ in range(50):
        n, vocab = int(rng.integers(1, 8)), int(rng.integers(2, 9))
        dist = dirichlet_matrix(rng, n, vocab)
        gold = [int(rng.integers(0, vocab)) for _ in range(n)]
        assert sequence_cross_entropy(dist, gold) == pytest.approx(
            ref_sequence_ce(dist.rows, gold), rel=1e-12
        )


# --- fusion --------------------------------------------------------------------

def test_mince_tie_returns_pivot(rng):
    rows = rng.dirichlet(np.ones(4), size=3)
    example = FusionExample(
        [0], [0, 1, 2],
        DistributionMatrix(rows.copy()),
        DistributionMatrix(rows.copy()),
    )
    assert mince_fuse(example) is example.pivot_dist


def test_mince_prefers_one_hot_pivot(rng):
    gold = [1, 3, 0]
    example = FusionExample(
        [0], gold,
        one_hot_matrix(gold, 4),
        DistributionMatrix(np.full((3, 4), 0.25)),
    )
    assert mince_fuse(example) is example.pivot_dist


def test_mince_picks_strictly_better_source(rng):
    gold = [1, 3, 0]
    example = FusionExample(
        [0], gold,
        DistributionMatrix(np.full((3, 4), 0.25)),
        one_hot_matrix(gold, 4),
    )
    assert mince_fuse(example) is example.source_dist_aligned


def test_mince_matches_oracle_200(rng):
    for _ in range(200):
        example = random_example(rng)
        fused = mince_fuse(example)
        pivot_ce = ref_sequence_ce(example.pivot_dist.rows, example.gold)
        source_ce = ref_sequence_ce(example.source_dist_aligned.rows, example.gold)
        expected = example.source_dist_aligned if source_ce < pivot_ce else example.pivot_dist
        assert fused is expected


def test_mince_ce_optimality_exact(rng):
    for _ in range(50):
        example = random_example(rng)
        fused_ce = sequence_cross_entropy(mince_fuse(example), example.gold)
        assert fused_ce == min(
            sequence_cross_entropy(example.pivot_dist, example.gold),
            sequence_cross_entropy(example.source_dist_aligned, example.gold),
        )


def test_sft_loss_is_same_formula(rng):
    dist = dirichlet_matrix(rng, 4, 5)
    gold = [0, 1, 2, 3]
    assert sft_loss(dist, gold) == sequence_cross_entropy(dist, gold)


# --- fusion loss -----------------------------------------------------------------

def test_fusion_loss_self_is_entropy(rng):
    dist = dirichlet_matrix(rng, 3, 5)
    expected = float(np.mean((-dist.rows * np.log(dist.rows)).sum(axis=1)))
    assert fusion_loss(dist, dist) == pytest.approx(expected, rel=1e-12)


def test_fusion_loss_one_hot_reduces_to_ce(rng):
    gold = [2, 0, 1]
    fused = one_hot_matrix(gold, 4)
    model = dirichlet_matrix(rng, 3, 4)
    assert fusion_loss(fused, model) == pytest.approx(
        sequence_cross_entropy(model, gold), rel=1e-12
    )


def test_fusion_loss_hand_example():
    fused = DistributionMatrix(np.array([[0.7, 0.3]]))
    model = DistributionMatrix(np.array([[0.5, 0.5]]))
    assert fusion_loss(fused, model) == pytest.approx(math.log(2), rel=1e-12)


def test_fusion_loss_gibbs_inequality(rng):
    for _ in range(100):
        vocab = int(rng.integers(2, 8))
        fused = dirichlet_matrix(rng, 2, vocab)
        other = dirichlet_matrix(rng, 2, vocab)
        assert fusion_loss(fused, fused) <= fusion_loss(fused, other) + 1e-12


def test_fusion_loss_shape_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        fusion_loss(dirichlet_matrix(rng, 2, 4), dirichlet_matrix(rng, 2, 5))


# --- combined loss ---------------------------------------------------------------

def test_combined_loss_endpoints():
    assert combined_loss(2.5, 4.0, 1.0).combined == 2.5
    assert combined_loss(2.5, 4.0, 0.0).combined == 4.0
    assert combined_loss(2.0, 4.0, 0.25).combined == 3.5


def test_combined_loss_affine_grid():
    for lam in np.linspace(0, 1, 11):
        breakdown = combined_loss(1.7, 0.3, float(lam))
        assert abs(breakdown.combined - (lam * 1.7 + (1 - lam) * 0.3)) < 1e-12


def test_combined_loss_invalid_lambda():
    for lam in (-0.1, 1.1, float("nan")):
        with pytest.raises(InvalidLambda):
            combined_loss(1.0, 1.0, lam)


# --- toy model --------------------------------------------------------------------

def test_toy_model_validation():
    with pytest.raises(ShapeMismatch):
        ToyModel(np.zeros(4))
    with pytest.raises(InvalidDistribution):
        ToyModel(np.array([[np.inf, 0.0]]))


def test_toy_forward_uniform_for_zero_logits():
    model = init_toy_model(4)
    dist = toy_forward(model, [0, 1, 2])
    np.testing.assert_allclose(dist.rows, np.full((3, 4), 0.25), atol=1e-15)


def test_toy_forward_large_logit_is_near_one_hot():
    vocab = 16
    logits = np.zeros((3, vocab))
    logits[1, 0] = 10.0
    dist = toy_forward(ToyModel(logits), [1])
    # each off-target entry is e^0 / (e^10 + 15) < 1e-4; the top entry
    # gives up exactly the sum of those
    assert np.all(dist.rows[0, 1:] < 1e-4)
    assert dist.rows[0, 0] > 1.0 - (vocab - 1) * 1e-4


def test_toy_forward_rows_sum_to_one(rng):
    model = init_toy_model(8, seed=5, scale=3.0)
    ctx = [int(rng.integers(0, 8)) for _ in range(20)]
    dist = toy_forward(model, ctx)
    np.testing.assert_allclose(dist.rows.sum(axis=1), 1.0, atol=1e-12)


def test_toy_forward_errors():
    model = init_toy_model(4)
    with pytest.raises(OutOfVocab):
        toy_forward(model, [4])
    with pytest.raises(EmptySequence):
        toy_forward(model, [])


def test_example_contexts(rng):
    example = FusionExample(
        [5, 2], [1, 3, 0],
        dirichlet_matrix(rng, 3, 6),
        dirichlet_matrix(rng, 3, 6),
    )
    np.testing.assert_array_equal(example_contexts(example), [2, 1, 3])
    empty = FusionExample(
        [], [1], dirichlet_matrix(rng, 1, 6), dirichlet_matrix(rng, 1, 6)
    )
    with pytest.raises(EmptySequence):
        example_contexts(empty)


# --- training ------------------------------------------------------------------

def make_corpus(rng, vocab=6, size=4):
    return [random_example(rng, vocab=vocab) for _ in range(size)]


def test_gradient_matches_finite_differences(rng):
    corpus = make_corpus(rng, vocab=5, size=3)
    model = init_toy_model(5, seed=11)
    lam = 0.4
    breakdown, grad = toy_loss_and_grad(model, corpus, lam)

    def loss_at(logits):
        value, _ = toy_loss_and_grad(ToyModel(logits), corpus, lam)
        return value.combined

    h = 1e-3
    for _ in range(50):
        c = int(rng.integers(0, 5))
        v = int(rng.integers(0, 5))
        up = model.logits.copy()
        up[c, v] += h
        down = model.logits.copy()
        down[c, v] -= h
        fd = (loss_at(up) - loss_at(down)) / (2 * h)
        scale = max(abs(fd), abs(grad[c, v]), 1e-8)
        assert abs(fd - grad[c, v]) / scale < 1e-4


def test_loss_breakdown_consistency(rng):
    corpus = make_corpus(rng, vocab=5, size=3)
    model = init_toy_model(5, seed=2)
    breakdown, _ = toy_loss_and_grad(model, corpus, 0.3)
    fused = [mince_fuse(ex) for ex in corpus]
    sft_values = []
    fusion_values = []
    for example, fused_dist in zip(corpus, fused):
        model_dist = toy_forward(model, example_contexts(example))
        sft_values.append(sft_loss(model_dist, example.gold))
        fusion_values.append(fusion_loss(fused_dist, model_dist))
    assert breakdown.l_sft == pytest.approx(np.mean(sft_values), rel=1e-12)
    assert breakdown.l_fusion == pytest.approx(np.mean(fusion_values), rel=1e-12)
    assert breakdown.combined == pytest.approx(
        0.3 * breakdown.l_sft + 0.7 * breakdown.l_fusion, rel=1e-15
    )


def test_train_lambda_one_matches_pure_sft_run(rng):
    corpus = make_corpus(rng, vocab=5, size=4)
    model = init_toy_model(5, seed=7)
    trained, history = toy_train(model, corpus, lambda_mix=1.0, lr=0.5, steps=25)
    contexts = [example_contexts(ex) for ex in corpus]
    golds = [ex.gold for ex in corpus]
    ref_logits, ref_history = ref_sft_train(model.logits, contexts, golds, 0.5, 25)
    assert history == ref_history
    assert np.array_equal(trained.logits, ref_logits)


def test_train_zero_steps_keeps_model(rng):
    corpus = make_corpus(rng, vocab=4, size=2)
    model = init_toy_model(4, seed=3)
    trained, history = toy_train(model, corpus, 0.5, lr=0.1, steps=0)
    assert len(history) == 1
    assert np.array_equal(trained.logits, model.logits)


def test_train_does_not_mutate_input(rng):
    corpus = make_corpus(rng, vocab=4, size=2)
    model = init_toy_model(4, seed=3)
    before = model.logits.copy()
    toy_train(model, corpus, 0.5, lr=0.5, steps=5)
    assert np.array_equal(model.logits, before)


def test_train_loss_non_increasing(rng):
    corpus = make_corpus(rng, vocab=6, size=4)
    model = init_toy_model(6, seed=9)
    _, history = toy_train(model, corpus, 0.5, lr=0.2, steps=60)
    assert len(history) == 61
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12)
    assert history[-1] < history[0]


def test_train_validates_arguments(rng):
    corpus = make_corpus(rng, vocab=4, size=2)
    model = init_toy_model(4)
    with pytest.raises(ValueError):
        toy_train(model, corpus, 0.5, lr=0.0, steps=5)
    with pytest.raises(ValueError):
        toy_train(model, corpus, 0.5, lr=0.1, steps=-1)
    with pytest.raises(InvalidLambda):
        toy_train(model, corpus, 1.5, lr=0.1, steps=1)
    with pytest.raises(EmptySequence):
        toy_loss_and_grad(model, [], 0.5)


# --- persistence -----------------------------------------------------------------

def test_distribution_container_round_trip(rng, tmp_path):
    dist = dirichlet_matrix(rng, 5, 7)
    gold = [int(rng.integers(0, 7)) for _ in range(5)]
    path = tmp_path / "dist.st"
    save_distribution(dist, gold, path)
    loaded, loaded_gold = load_distribution(path)
    assert loaded_gold == gold
    np.testing.assert_allclose(loaded.rows, dist.rows, atol=1e-7)
    np.testing.assert_array_equal(
        loaded.rows, dist.rows.astype(np.float32).astype(np.float64)
    )


def test_distribution_container_gold_mismatch(rng, tmp_path):
    dist = dirichlet_matrix(rng, 3, 4)
    with pytest.raises(ShapeMismatch):
        save_distribution(dist, [0, 1], tmp_path / "x.st")


def test_load_distribution_requires_fields(rng, tmp_path):
    path = tmp_path / "no_dist.st"
    save_checkpoint(Checkpoint(tensors={"other": Tensor(np.ones((1, 2)))}), path)
    with pytest.raises(IoFailure):
        load_distribution(path)
    path2 = tmp_path / "no_gold.st"
    rows = np.full((1, 2), 0.5, dtype=np.float32)
    save_checkpoint(Checkpoint(tensors={"dist": Tensor(rows)}), path2)
    with pytest.raises(IoFailure):
        load_distribution(path2)


@pytest.mark.parametrize("gold", ["[1.5]", "[true]", '["1"]', "5", '{"a": 1}', "not json",
                                  "[" * 100_000],
                         ids=["float", "bool", "string", "int", "object", "not-json",
                              "nested-too-deeply"])
def test_load_distribution_rejects_malformed_gold(tmp_path, gold):
    path = tmp_path / "bad_gold.st"
    rows = np.full((1, 2), 0.5, dtype=np.float32)
    save_checkpoint(Checkpoint(tensors={"dist": Tensor(rows)}, metadata={"gold": gold}), path)
    with pytest.raises(MalformedInput, match=re.escape(str(path))):
        load_distribution(path)


def test_toy_model_round_trip(tmp_path):
    model = init_toy_model(5, seed=4)
    path = tmp_path / "model.st"
    save_toy_model(model, path)
    np.testing.assert_array_equal(
        load_checkpoint(path).array("logits"), model.logits.astype(np.float32)
    )


def test_corpus_jsonl_round_trip(rng, tmp_path):
    corpus = make_corpus(rng, vocab=4, size=3)
    path = tmp_path / "corpus.jsonl"
    write_fusion_corpus(corpus, path)
    loaded = load_fusion_corpus(path)
    assert len(loaded) == 3
    for original, copy in zip(corpus, loaded):
        assert copy.instruction == original.instruction
        assert copy.gold == original.gold
        np.testing.assert_allclose(copy.pivot_dist.rows, original.pivot_dist.rows)
        np.testing.assert_allclose(
            copy.source_dist_aligned.rows, original.source_dist_aligned.rows
        )


def test_corpus_jsonl_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("nope\n")
    with pytest.raises(IoFailure):
        load_fusion_corpus(path)
    path.write_text('{"instruction": [0], "gold": [0]}\n')
    with pytest.raises(MalformedInput):
        load_fusion_corpus(path)


def test_corpus_jsonl_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    with pytest.raises(EmptySequence):
        load_fusion_corpus(path)


def test_example_json_round_trip(rng):
    example = random_example(rng, vocab=4, n=2)
    copy = example_from_json_obj(fusion_example_obj(example))
    assert copy.gold == example.gold
    np.testing.assert_allclose(copy.pivot_dist.rows, example.pivot_dist.rows)
