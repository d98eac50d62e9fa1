"""Distribution-level knowledge fusion and its training losses.

The pipeline fuses two per-position probability matrices over the same
vocabulary: the pivot model's own output and a source model's output
already projected into the pivot vocabulary.  Fusion picks, per
example, whichever matrix assigns the gold response the lower
cross-entropy.  A student is then trained on a blend of the usual
gold-token loss and a cross-entropy pull toward the fused matrix.

The student here is a bigram table: one logit row per previous-token
context.  Every gradient has a closed form, so the training loop can be
verified against finite differences and against a pure gold-token run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from umm.errors import (
    EmptySequence,
    InvalidDistribution,
    InvalidLambda,
    IoFailure,
    MalformedInput,
    OutOfVocab,
    ShapeMismatch,
    located,
)
from umm.jsonl import iter_jsonl, want_ints, want_list
from umm.tensor_store import Checkpoint, Tensor, load_checkpoint, save_checkpoint

# floor inside every log so sparse rows cannot produce -inf
LOG_FLOOR = 1e-12
ROW_SUM_TOL = 1e-6


@dataclass(eq=False)
class DistributionMatrix:
    """Per-position probability rows: shape [sequence length, vocab]."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        # no dtype on the way in, so strings and bools keep their own kind
        # and are rejected; a bool among numbers still becomes a number
        try:
            rows = np.asarray(self.rows)
        except (TypeError, ValueError) as exc:
            raise InvalidDistribution(f"rows are not a numeric matrix: {exc}") from exc
        if rows.dtype.kind not in "iuf":
            raise InvalidDistribution(f"rows are not a numeric matrix: dtype {rows.dtype}")
        rows = rows.astype(np.float64, copy=False)
        if rows.ndim != 2:
            raise InvalidDistribution(f"expected 2-d rows, got shape {rows.shape}")
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise EmptySequence(f"distribution matrix has degenerate shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise InvalidDistribution("distribution entries must be finite")
        if np.any(rows < 0.0):
            raise InvalidDistribution("distribution entries must be non-negative")
        sums = rows.sum(axis=1, dtype=np.float64)
        bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise InvalidDistribution(
                f"row {bad[0]} sums to {sums[bad[0]]!r}, expected 1 within {ROW_SUM_TOL}"
            )
        self.rows = rows

    @property
    def length(self) -> int:
        return self.rows.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.rows.shape[1]


@dataclass(eq=False)
class FusionExample:
    """One instruction/response pair with both candidate matrices.

    ``gold`` is the response in the pivot tokenizer's ids; both matrices
    have one row per gold token and share the pivot vocabulary.
    """

    instruction: list
    gold: list
    pivot_dist: DistributionMatrix
    source_dist_aligned: DistributionMatrix

    def __post_init__(self) -> None:
        n = len(self.gold)
        if self.pivot_dist.length != n or self.source_dist_aligned.length != n:
            raise ShapeMismatch(
                f"gold has {n} tokens but matrices have "
                f"{self.pivot_dist.length} and {self.source_dist_aligned.length} rows"
            )
        if self.pivot_dist.vocab_size != self.source_dist_aligned.vocab_size:
            raise ShapeMismatch(
                f"vocab sizes differ: {self.pivot_dist.vocab_size} vs "
                f"{self.source_dist_aligned.vocab_size}"
            )


@dataclass
class LossBreakdown:
    """Gold-token loss, fusion loss, and their affine blend."""

    l_sft: float
    l_fusion: float
    lambda_mix: float
    combined: float


def sequence_cross_entropy(dist: DistributionMatrix, gold) -> float:
    """Mean negative log-probability of the gold token per position."""
    ids = np.asarray(list(gold), dtype=np.int64).reshape(-1)
    if ids.size != dist.length:
        raise ShapeMismatch(f"{ids.size} gold tokens for {dist.length} rows")
    if ids.size and (ids.min() < 0 or ids.max() >= dist.vocab_size):
        raise OutOfVocab(f"gold ids must lie in [0, {dist.vocab_size})")
    picked = dist.rows[np.arange(ids.size), ids]
    return float(-np.mean(np.log(np.maximum(picked, LOG_FLOOR))))


def mince_fuse(example: FusionExample) -> DistributionMatrix:
    """Pick the candidate matrix with lower gold cross-entropy.

    Only a strictly lower source score wins; ties keep the pivot, so
    the choice is deterministic.
    """
    pivot_ce = sequence_cross_entropy(example.pivot_dist, example.gold)
    source_ce = sequence_cross_entropy(example.source_dist_aligned, example.gold)
    if source_ce < pivot_ce:
        return example.source_dist_aligned
    return example.pivot_dist


def sft_loss(model_dist: DistributionMatrix, gold) -> float:
    """Gold-token loss: same formula, applied to the model's own rows."""
    return sequence_cross_entropy(model_dist, gold)


def fusion_loss(fused: DistributionMatrix, model_dist: DistributionMatrix) -> float:
    """Per-position cross-entropy of the model rows against fused rows."""
    if fused.rows.shape != model_dist.rows.shape:
        raise ShapeMismatch(
            f"shape {fused.rows.shape} vs {model_dist.rows.shape}"
        )
    return float(
        np.mean((-fused.rows * np.log(np.maximum(model_dist.rows, LOG_FLOOR))).sum(axis=1))
    )


def combined_loss(l_sft: float, l_fusion: float, lambda_mix: float) -> LossBreakdown:
    """Affine blend: lambda_mix * l_sft + (1 - lambda_mix) * l_fusion."""
    lam = float(lambda_mix)
    if not 0.0 <= lam <= 1.0:
        raise InvalidLambda(f"lambda_mix must lie in [0, 1], got {lambda_mix!r}")
    sft = float(l_sft)
    fusion = float(l_fusion)
    return LossBreakdown(
        l_sft=sft,
        l_fusion=fusion,
        lambda_mix=lam,
        combined=lam * sft + (1.0 - lam) * fusion,
    )


# --- bigram toy model --------------------------------------------------------

@dataclass(eq=False)
class ToyModel:
    """Bigram logits table: row c scores the token following context c."""

    logits: np.ndarray

    def __post_init__(self) -> None:
        logits = np.asarray(self.logits, dtype=np.float64)
        if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 1:
            raise ShapeMismatch(f"logits must be 2-d and non-empty, got {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise InvalidDistribution("logits must be finite")
        self.logits = logits

    @property
    def num_contexts(self) -> int:
        return self.logits.shape[0]


def init_toy_model(vocab_size: int, seed: int = None, scale: float = 0.1) -> ToyModel:
    """Zero logits, or small Gaussian logits when a seed is given."""
    if seed is None:
        return ToyModel(np.zeros((vocab_size, vocab_size)))
    rng = np.random.default_rng(seed)
    return ToyModel(scale * rng.standard_normal((vocab_size, vocab_size)))


def toy_forward(model: ToyModel, contexts) -> DistributionMatrix:
    """Softmax of the logit row selected by each context token."""
    ctx = np.asarray(list(contexts), dtype=np.int64).reshape(-1)
    if ctx.size == 0:
        raise EmptySequence("no context tokens")
    if ctx.min() < 0 or ctx.max() >= model.num_contexts:
        raise OutOfVocab(f"context ids must lie in [0, {model.num_contexts})")
    z = model.logits[ctx]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return DistributionMatrix(e / e.sum(axis=1, keepdims=True))


def example_contexts(example: FusionExample) -> np.ndarray:
    """Previous-token context per response position.

    Position 0 is conditioned on the last instruction token, so the
    instruction must be non-empty.
    """
    if not example.instruction:
        raise EmptySequence("instruction must supply the first context token")
    return np.asarray(example.instruction[-1:] + example.gold[:-1], dtype=np.int64)


def toy_loss_and_grad(model: ToyModel, corpus, lambda_mix: float,
                      fused=None) -> tuple:
    """Combined loss over the corpus and its gradient w.r.t. the logits.

    Per response position with context c, the loss gradient of row c is
    softmax(logits[c]) - target with
    target = lambda_mix * onehot(gold) + (1 - lambda_mix) * fused row,
    scaled by 1 / (corpus size * response length).  Returns
    (LossBreakdown, gradient array).
    """
    if not corpus:
        raise EmptySequence("corpus is empty")
    lam = float(lambda_mix)
    if not 0.0 <= lam <= 1.0:
        raise InvalidLambda(f"lambda_mix must lie in [0, 1], got {lambda_mix!r}")
    if fused is None:
        fused = [mince_fuse(ex) for ex in corpus]
    grad = np.zeros_like(model.logits)
    sft_total = 0.0
    fusion_total = 0.0
    for example, fused_dist in zip(corpus, fused):
        ctx = example_contexts(example)
        model_dist = toy_forward(model, ctx)
        sft_total += sft_loss(model_dist, example.gold)
        fusion_total += fusion_loss(fused_dist, model_dist)
        n = len(example.gold)
        onehot = np.zeros_like(model_dist.rows)
        onehot[np.arange(n), example.gold] = 1.0
        target = lam * onehot + (1.0 - lam) * fused_dist.rows
        # np.add.at folds repeated contexts into the same logit row
        np.add.at(grad, ctx, (model_dist.rows - target) / (len(corpus) * n))
    breakdown = combined_loss(sft_total / len(corpus), fusion_total / len(corpus), lam)
    return breakdown, grad


def toy_train(model: ToyModel, corpus, lambda_mix: float, lr: float,
              steps: int) -> tuple:
    """Full-batch gradient descent on the combined loss.

    Returns (trained model, history); history[0] is the starting loss
    and one entry is appended after every step, so its length is
    steps + 1.  The input model is not modified.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps!r}")
    fused = [mince_fuse(ex) for ex in corpus]
    current = ToyModel(model.logits.copy())
    breakdown, grad = toy_loss_and_grad(current, corpus, lambda_mix, fused)
    history = [breakdown.combined]
    for _ in range(steps):
        current = ToyModel(current.logits - lr * grad)
        breakdown, grad = toy_loss_and_grad(current, corpus, lambda_mix, fused)
        history.append(breakdown.combined)
    return current, history


# --- persistence ---------------------------------------------------------------

def save_distribution(dist: DistributionMatrix, gold, path) -> None:
    """One-tensor container: f32 "dist" rows plus the gold ids."""
    ids = [int(t) for t in gold]
    if len(ids) != dist.length:
        raise ShapeMismatch(f"{len(ids)} gold tokens for {dist.length} rows")
    ckpt = Checkpoint(
        tensors={"dist": Tensor(dist.rows.astype(np.float32))},
        metadata={"gold": json.dumps(ids)},
    )
    save_checkpoint(ckpt, path)


def load_distribution(path) -> tuple:
    """Returns (DistributionMatrix, gold id list); the ``gold`` metadata
    must be a JSON list of integers."""
    ckpt = load_checkpoint(path)
    if "dist" not in ckpt.tensors:
        raise IoFailure(f"{path} holds no 'dist' tensor")
    if "gold" not in ckpt.metadata:
        raise IoFailure(f"{path} metadata lacks 'gold'")
    try:
        gold = want_ints({"gold": json.loads(ckpt.metadata["gold"])}, "gold", where=f"{path}: ")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedInput(f"{path}: gold metadata is not JSON: {exc}") from exc
    dist = DistributionMatrix(ckpt.array("dist"))
    if len(gold) != dist.length:
        raise ShapeMismatch(f"{len(gold)} gold tokens for {dist.length} rows")
    return dist, gold


def save_toy_model(model: ToyModel, path) -> None:
    # logits past float32 cast to Inf, which saving reports as NonFiniteValue
    with np.errstate(over="ignore"):
        logits = model.logits.astype(np.float32)
    save_checkpoint(Checkpoint(tensors={"logits": Tensor(logits)}), path)


def example_from_json_obj(obj: dict) -> FusionExample:
    """A training example; each gold id and the last instruction id (the
    first context) must lie within the row width."""
    example = FusionExample(
        instruction=want_ints(obj, "instruction"),
        gold=want_ints(obj, "gold"),
        pivot_dist=DistributionMatrix(want_list(obj, "pivot_rows")),
        source_dist_aligned=DistributionMatrix(want_list(obj, "source_aligned_rows")),
    )
    check_ids("gold", example.gold, example.pivot_dist.vocab_size)
    check_ids("instruction", example.instruction[-1:], example.pivot_dist.vocab_size)
    return example


def check_ids(what: str, ids: list, vocab: int) -> None:
    """OutOfVocab naming ``what`` and the first id outside [0, vocab)."""
    bad = next((t for t in ids if not 0 <= t < vocab), None)
    if bad is not None:
        raise OutOfVocab(f"{what} id {bad} outside [0, {vocab})")


def load_fusion_corpus(path) -> list:
    """JSONL of {"instruction", "gold", "pivot_rows", "source_aligned_rows"}
    objects, one example per line, whose rows are all as wide as the first
    example's; errors name ``path:lineno``."""
    corpus = []
    for lineno, obj in iter_jsonl(path):
        with located(f"{path}:{lineno}"):
            example = example_from_json_obj(obj)
            if corpus and example.pivot_dist.vocab_size != corpus[0].pivot_dist.vocab_size:
                raise ShapeMismatch(f"rows are {example.pivot_dist.vocab_size} wide, but the "
                                    f"first example's are {corpus[0].pivot_dist.vocab_size}")
            corpus.append(example)
    if not corpus:
        raise EmptySequence(f"{path} holds no fusion examples")
    return corpus

