"""Independent scalar-loop reference implementations used as oracles.

These are direct, unoptimized transcriptions of the documented merge
semantics, written before the vectorized package code and kept free of
imports from the code they check.  Every arithmetic step of a merge
oracle is an explicit float32 operation, and the projection oracle works
one pivot position at a time, so the main implementation can be held to
bitwise equality.  The statistics-file oracle reads one line at a time
through the package's JSON-lines reader and field readers, so its errors
are the package's own.  The toy MLP trainer at the end is no oracle: it
builds the experts that the ``toy-regression`` evaluator's tests merge,
since no command trains an MLP.
"""

import math

import numpy as np

from umm.errors import MalformedInput, OutOfVocab
from umm.jsonl import iter_jsonl, want_int
from umm.tensor_store import Checkpoint, Tensor
from umm.toy_mlp import mlp_forward

F = np.float32


def ref_trim(values: np.ndarray, density: float) -> np.ndarray:
    """Keep the ceil(density*n) largest-magnitude entries, zero the rest.

    Magnitude ties keep the lower flat index.
    """
    flat = [F(v) for v in values.ravel()]
    n = len(flat)
    k = max(1, math.ceil(density * n - 1e-9))
    order = sorted(range(n), key=lambda j: (-abs(float(flat[j])), j))
    keep = set(order[:k])
    out = [flat[j] if j in keep else F(0.0) for j in range(n)]
    return np.array(out, dtype=np.float32).reshape(values.shape)


def ref_elect(trimmed: list) -> np.ndarray:
    """Sign of the model-order float32 sum per coordinate."""
    flats = [t.ravel() for t in trimmed]
    out = []
    for j in range(flats[0].size):
        total = F(0.0)
        for t in flats:
            total = F(total + F(t[j]))
        if total > 0:
            out.append(F(1.0))
        elif total < 0:
            out.append(F(-1.0))
        else:
            out.append(F(0.0))
    return np.array(out, dtype=np.float32).reshape(trimmed[0].shape)


def ref_disjoint_merge(trimmed: list, gamma: np.ndarray, weights: list) -> np.ndarray:
    """Weight-normalized mean over models whose sign matches gamma."""
    flats = [t.ravel() for t in trimmed]
    gflat = gamma.ravel()
    out = []
    for j in range(gflat.size):
        g = gflat[j]
        num = F(0.0)
        den = F(0.0)
        for t, w in zip(flats, weights):
            v = F(t[j])
            sign = 1.0 if v > 0 else (-1.0 if v < 0 else 0.0)
            if g != 0 and v != 0 and sign == g:
                w32 = F(w)
                num = F(num + F(w32 * v))
                den = F(den + w32)
        if g != 0 and den > 0:
            out.append(F(num / den))
        else:
            out.append(F(0.0))
    return np.array(out, dtype=np.float32).reshape(gamma.shape)


def ref_add_scaled(base: np.ndarray, delta: np.ndarray, lam: float) -> np.ndarray:
    """base + lam*delta; an all-zero scaled delta returns base unchanged."""
    lam32 = F(lam)
    bflat = base.ravel()
    dflat = delta.ravel()
    scaled = [F(lam32 * F(d)) for d in dflat]
    if all(s == 0 for s in scaled):
        return base.copy()
    out = [F(F(b) + s) for b, s in zip(bflat, scaled)]
    return np.array(out, dtype=np.float32).reshape(base.shape)


def ref_ties_merge(base_arrays: dict, vector_arrays: list, densities: list,
                   weights: dict, lam: float) -> dict:
    """Full trim / elect / disjoint-merge pipeline over named tensors.

    base_arrays: name -> float32 array
    vector_arrays: per model, name -> float32 array (model order fixed)
    densities: per model, name -> density
    weights: name -> list of per-model weights
    """
    out = {}
    for name in sorted(base_arrays):
        trimmed = [
            ref_trim(vec[name], dens[name]) for vec, dens in zip(vector_arrays, densities)
        ]
        gamma = ref_elect(trimmed)
        merged = ref_disjoint_merge(trimmed, gamma, weights[name])
        out[name] = ref_add_scaled(base_arrays[name], merged, lam)
    return out


def ref_weighted_sum(deltas: list, weights: list) -> np.ndarray:
    """Model-order float32 sum of weight * delta per coordinate."""
    flats = [d.ravel() for d in deltas]
    out = []
    for j in range(flats[0].size):
        total = F(0.0)
        for t, w in zip(flats, weights):
            total = F(total + F(F(w) * F(t[j])))
        out.append(total)
    return np.array(out, dtype=np.float32).reshape(deltas[0].shape)


def ref_task_arithmetic_merge(base_arrays: dict, vector_arrays: list, weights: dict,
                              lam: float) -> dict:
    """base + lam * weighted delta sum per named tensor; an all-zero
    scaled sum returns the base bits unchanged, -0.0 included."""
    out = {}
    for name in sorted(base_arrays):
        summed = ref_weighted_sum([vec[name] for vec in vector_arrays], weights[name])
        out[name] = ref_add_scaled(base_arrays[name], summed, lam)
    return out


def ref_linear_merge(base_arrays: dict, vector_arrays: list, weights: dict) -> dict:
    """base + weighted delta sum / weight sum per named tensor.

    A zero weight sum returns the base bits unchanged.  Otherwise every
    coordinate is recomputed, so a -0.0 base entry with a zero delta
    sum comes out +0.0.
    """
    out = {}
    for name in sorted(base_arrays):
        total = F(0.0)
        for w in weights[name]:
            total = F(total + F(w))
        base = base_arrays[name]
        if total == 0:
            out[name] = base.copy()
            continue
        summed = ref_weighted_sum([vec[name] for vec in vector_arrays], weights[name])
        vals = [F(F(b) + F(s / total)) for b, s in zip(base.ravel(), summed.ravel())]
        out[name] = np.array(vals, dtype=np.float32).reshape(base.shape)
    return out


def ref_elect_by_magnitude(trimmed: list) -> np.ndarray:
    """Pick per coordinate the sign with the larger total magnitude.

    Independent formulation of sign election used as a property oracle:
    on inputs where the float32 sum is exact the two agree.
    """
    flats = [t.ravel() for t in trimmed]
    out = []
    for j in range(flats[0].size):
        pos = sum(float(t[j]) for t in flats if t[j] > 0)
        neg = sum(-float(t[j]) for t in flats if t[j] < 0)
        if pos > neg:
            out.append(1.0)
        elif neg > pos:
            out.append(-1.0)
        else:
            out.append(0.0)
    return np.array(out, dtype=np.float32).reshape(trimmed[0].shape)


# --- token alignment oracles -------------------------------------------------

def ref_edit_distance(a: str, b: str) -> int:
    """Full-matrix character edit distance."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1),
            )
    return table[len(a)][len(b)]


def ref_surface_distance(a: str, b: str) -> float:
    if a == b:
        return 0.0
    return ref_edit_distance(a, b) / max(len(a), len(b))


def ref_min_alignment_cost(p_surfaces, s_surfaces, sub=None):
    """Minimum cost over every monotone alignment, by plain recursion.

    Each leaf of the recursion is one complete alignment, so this
    enumerates the full space without any dynamic-programming reuse.
    """
    if sub is None:
        sub = {}
    n, m = len(p_surfaces), len(s_surfaces)

    def sub_cost(a, b):
        if (a, b) not in sub:
            sub[(a, b)] = ref_surface_distance(a, b)
        return sub[(a, b)]

    def go(i, j):
        if i == n and j == m:
            return 0.0
        best = math.inf
        if i < n and j < m:
            best = sub_cost(p_surfaces[i], s_surfaces[j]) + go(i + 1, j + 1)
        if i < n:
            best = min(best, 1.0 + go(i + 1, j))
        if j < m:
            best = min(best, 1.0 + go(i, j + 1))
        return best

    return go(0, 0)


def ref_align_moves(p_surfaces, s_surfaces):
    """(moves, cost) of the row-by-row scalar alignment DP and backtrace.

    Surfaces are already normalized.  Moves are 0 (substitute), 1 (gap
    in the source) and 2 (gap in the pivot); at equal cost the earlier
    of the three wins, through two strict ``<`` tests in that order.
    """
    n, m = len(p_surfaces), len(s_surfaces)
    sub = {}
    cost = [[0.0] * (m + 1) for _ in range(n + 1)]
    move = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = i * 1.0
        move[i][0] = 1
    for j in range(1, m + 1):
        cost[0][j] = j * 1.0
        move[0][j] = 2
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            pair = (p_surfaces[i - 1], s_surfaces[j - 1])
            if pair not in sub:
                sub[pair] = ref_surface_distance(*pair)
            best = cost[i - 1][j - 1] + sub[pair]
            chosen = 0
            if cost[i - 1][j] + 1.0 < best:
                best, chosen = cost[i - 1][j] + 1.0, 1
            if cost[i][j - 1] + 1.0 < best:
                best, chosen = cost[i][j - 1] + 1.0, 2
            cost[i][j] = best
            move[i][j] = chosen
    moves = []
    i, j = n, m
    while i > 0 or j > 0:
        chosen = move[i][j]
        moves.append(chosen)
        if chosen == 0:
            i, j = i - 1, j - 1
        elif chosen == 1:
            i -= 1
        else:
            j -= 1
    moves.reverse()
    return moves, cost[n][m]


def ref_segment_moves(moves):
    """Cut a forward walk of ``ref_align_moves`` moves into segments,
    ((pivot start, pivot end), (source start, source end)) each.

    A boundary falls only between two adjacent substitutions, so every
    gap run stays glued to the substitutions around it.
    """
    spans = []
    seg_p = seg_s = i = j = 0
    previous = None
    for current in moves:
        if current == 0 and previous == 0:
            spans.append(((seg_p, i), (seg_s, j)))
            seg_p, seg_s = i, j
        if current == 0:
            i, j = i + 1, j + 1
        elif current == 1:
            i += 1
        else:
            j += 1
        previous = current
    spans.append(((seg_p, i), (seg_s, j)))
    return spans


# --- projection oracle -------------------------------------------------------

def ref_transfer_matrix(counts: dict, pivot_vocab: int, source_vocab: int, vocab_map: str):
    """Sparse [pivot x source] map, built from the (p, s) -> count dict.

    proportional splits column s over pivot tokens in proportion to the
    counts; argmax sends it whole to the highest-count pivot token, the
    lowest id on a tie.  Columns with no counts are zero.
    """
    from scipy import sparse

    if not counts:
        return sparse.csr_matrix((pivot_vocab, source_vocab))
    if vocab_map == "argmax":
        best = {}
        for (p, s), c in counts.items():
            incumbent = best.get(s)
            if incumbent is None or c > incumbent[0] or (c == incumbent[0] and p < incumbent[1]):
                best[s] = (c, p)
        rows = [p for _, p in best.values()]
        return sparse.csr_matrix((np.ones(len(best)), (rows, list(best.keys()))),
                                 shape=(pivot_vocab, source_vocab))
    rows, cols, vals = [], [], []
    for (p, s), c in counts.items():
        rows.append(p)
        cols.append(s)
        vals.append(float(c))
    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(pivot_vocab, source_vocab))
    column_sums = np.asarray(matrix.sum(axis=0)).ravel()
    inverse = np.zeros_like(column_sums)
    nonzero = column_sums > 0
    inverse[nonzero] = 1.0 / column_sums[nonzero]
    return matrix @ sparse.diags(inverse)


def ref_load_stats(path, pivot_vocab_size: int = None, source_vocab_size: int = None):
    """(pivot vocab size, source vocab size, counts) of a stats file, one
    line at a time: each line is decoded, checked and added to the counts
    before the next is read, so every error names the first bad line."""
    counts = {}
    for lineno, obj in iter_jsonl(path):
        try:
            p, s, c = want_int(obj, "p"), want_int(obj, "s"), want_int(obj, "c")
            if c < 1:
                raise MalformedInput(f"c must be at least 1, got {c}")
        except MalformedInput as exc:
            raise MalformedInput(f"{path}:{lineno}: bad stats line: {exc}") from exc
        if p < 0 or s < 0:
            side, token = ("pivot", p) if p < 0 else ("source", s)
            raise OutOfVocab(f"{path}:{lineno}: {side} id {token} must be >= 0")
        if pivot_vocab_size is not None and p >= pivot_vocab_size:
            raise OutOfVocab(f"{path}:{lineno}: pivot id {p} outside [0, {pivot_vocab_size})")
        if source_vocab_size is not None and s >= source_vocab_size:
            raise OutOfVocab(f"{path}:{lineno}: source id {s} outside [0, {source_vocab_size})")
        total = counts[(p, s)] = counts.get((p, s), 0) + c
        if total > 2**53:
            raise MalformedInput(f"{path}:{lineno}: bad stats line: count for ({p}, {s}) "
                                 f"reaches {total}, above 2**53")
    if pivot_vocab_size is None:
        pivot_vocab_size = max((p for p, _ in counts), default=0) + 1
    if source_vocab_size is None:
        source_vocab_size = max((s for _, s in counts), default=0) + 1
    return pivot_vocab_size, source_vocab_size, counts


def ref_project_distribution(src_rows, segments, counts: dict, pivot_ids, source_ids,
                             pivot_vocab: int, source_vocab: int, fallback_rows,
                             vocab_map: str = "proportional") -> np.ndarray:
    """Projected [pivot position x pivot vocab] rows, one position at a time.

    ``segments`` are (p0, p1, s0, s1) half-open spans that tile both
    sequences.  one_one copies its source row; one_many takes the
    leftmost source row with the highest count against the pivot token;
    many_one takes the count-weighted average of its source rows (equal
    weights when every count is 0); many_many falls back.  A mapped row
    falls back when it keeps less than 1e-6 of its mass, is copied when
    it keeps all of it, and is renormalized otherwise.
    """
    src_rows = np.asarray(src_rows, dtype=np.float64)
    fallback_rows = np.asarray(fallback_rows, dtype=np.float64)
    n_pivot = len(pivot_ids)
    chosen = np.zeros((n_pivot, source_vocab))
    fallback_mask = np.zeros(n_pivot, dtype=bool)
    for p0, p1, s0, s1 in segments:
        if p1 - p0 > 1 and s1 - s0 > 1:  # many_many
            fallback_mask[p0:p1] = True
        elif p1 - p0 == 1 and s1 - s0 == 1:  # one_one
            chosen[p0] = src_rows[s0]
        elif p1 - p0 == 1:  # one_many
            pivot_id = pivot_ids[p0]
            best_j, best_count = s0, -1
            for j in range(s0, s1):
                count = counts.get((pivot_id, source_ids[j]), 0)
                if count > best_count:
                    best_count, best_j = count, j
            chosen[p0] = src_rows[best_j]
        else:  # many_one
            for p in range(p0, p1):
                pivot_id = pivot_ids[p]
                weights = np.array(
                    [float(counts.get((pivot_id, source_ids[j]), 0)) for j in range(s0, s1)]
                )
                if weights.sum() == 0.0:
                    weights = np.ones(s1 - s0)
                chosen[p] = (weights[:, None] * src_rows[s0:s1]).sum(axis=0) / weights.sum()

    transfer = ref_transfer_matrix(counts, pivot_vocab, source_vocab, vocab_map)
    mapped = (transfer @ chosen.T).T
    original_mass = chosen.sum(axis=1)
    mapped_mass = mapped.sum(axis=1)
    out = np.empty((n_pivot, pivot_vocab))
    for p in range(n_pivot):
        if fallback_mask[p] or mapped_mass[p] < 1e-6 * original_mass[p]:
            out[p] = fallback_rows[p]
        elif mapped_mass[p] == original_mass[p]:
            out[p] = mapped[p]
        else:
            out[p] = mapped[p] / mapped_mass[p]
    return out


# --- fusion oracles ----------------------------------------------------------

def ref_sequence_ce(rows, gold) -> float:
    """Mean negative log-probability via explicit Python floats."""
    total = 0.0
    for t, g in enumerate(gold):
        total += -math.log(max(float(rows[t][g]), 1e-12))
    return total / len(gold)


def ref_sft_train(logits0, contexts_list, gold_list, lr, steps):
    """Gold-token-only full-batch descent on a bigram logits table.

    Mirrors the fused trainer's operation order exactly so that a run
    with mix weight 1 can be compared bit for bit.
    """
    logits = np.array(logits0, dtype=np.float64, copy=True)
    n_examples = len(contexts_list)

    def loss_and_grad(current):
        grad = np.zeros_like(current)
        total = 0.0
        for ctx, gold in zip(contexts_list, gold_list):
            ctx = np.asarray(ctx, dtype=np.int64)
            gold = np.asarray(gold, dtype=np.int64)
            z = current[ctx]
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            q = e / e.sum(axis=1, keepdims=True)
            n = gold.size
            picked = q[np.arange(n), gold]
            total += float(-np.mean(np.log(np.maximum(picked, 1e-12))))
            onehot = np.zeros_like(q)
            onehot[np.arange(n), gold] = 1.0
            np.add.at(grad, ctx, (q - onehot) / (n_examples * n))
        return total / n_examples, grad

    loss, grad = loss_and_grad(logits)
    history = [loss]
    for _ in range(steps):
        logits = logits - lr * grad
        loss, grad = loss_and_grad(logits)
        history.append(loss)
    return logits, history


# --- toy MLP experts -----------------------------------------------------------

DEFAULT_WIDTHS = (1, 16, 16, 16, 16, 16, 1)


def init_mlp(seed: int, widths=DEFAULT_WIDTHS) -> Checkpoint:
    """Random toy MLP checkpoint with scaled-normal weights and zero
    biases, carrying the layer metadata merge schedules read."""
    rng = np.random.default_rng(seed)
    tensors = {}
    n_layers = len(widths) - 1
    for i in range(n_layers):
        fan_in, fan_out = widths[i], widths[i + 1]
        w = rng.standard_normal((fan_out, fan_in)) * np.sqrt(1.0 / fan_in)
        tensors[f"layers.{i}.weight"] = Tensor(w.astype(np.float32))
        tensors[f"layers.{i}.bias"] = Tensor(np.zeros(fan_out, np.float32))
    return Checkpoint(
        tensors=tensors,
        metadata={"layer_pattern": "layers.{i}.", "num_layers": str(n_layers)},
    )


def train_mlp(ckpt: Checkpoint, xs: np.ndarray, ys: np.ndarray,
              lr: float = 0.01, steps: int = 2000) -> Checkpoint:
    """Full-batch Adam on MSE, deterministic; returns a new checkpoint,
    input untouched."""
    n_layers = int(ckpt.metadata["num_layers"])
    weights = [ckpt.array(f"layers.{i}.weight").astype(np.float64) for i in range(n_layers)]
    biases = [ckpt.array(f"layers.{i}.bias").astype(np.float64) for i in range(n_layers)]
    xs = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    n = xs.shape[0]
    last = len(weights) - 1

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]

    for step in range(1, steps + 1):
        # forward, keeping activations
        acts = [xs]
        h = xs
        for i in range(len(weights)):
            z = h @ weights[i].T + biases[i]
            h = z if i == last else np.tanh(z)
            acts.append(h)
        pred = acts[-1][:, 0]
        # backward: d(MSE)/dpred
        grad = (2.0 / n) * (pred - ys)
        delta = grad.reshape(-1, 1)
        for i in range(last, -1, -1):
            gw = delta.T @ acts[i]
            gb = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i]) * (1.0 - acts[i] ** 2)
            t = step
            for grad_p, m, v, param in ((gw, m_w[i], v_w[i], weights[i]),
                                        (gb, m_b[i], v_b[i], biases[i])):
                m *= beta1
                m += (1 - beta1) * grad_p
                v *= beta2
                v += (1 - beta2) * grad_p**2
                m_hat = m / (1 - beta1**t)
                v_hat = v / (1 - beta2**t)
                param -= lr * m_hat / (np.sqrt(v_hat) + eps)

    tensors = {}
    for i in range(len(weights)):
        tensors[f"layers.{i}.weight"] = Tensor(weights[i].astype(np.float32))
        tensors[f"layers.{i}.bias"] = Tensor(biases[i].astype(np.float32))
    return Checkpoint(tensors=tensors, metadata=dict(ckpt.metadata))


def mse(ckpt: Checkpoint, xs: np.ndarray, ys: np.ndarray) -> float:
    """Mean squared error of the evaluator's forward pass on ``xs``."""
    pred = mlp_forward(ckpt, xs)
    return float(np.mean((pred - np.asarray(ys, dtype=np.float64)) ** 2))
