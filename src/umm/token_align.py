"""Alignment of two tokenizations of the same text.

Two tokenizers split one response into different token streams.  A
global minimum-cost dynamic program matches the streams position by
position, the matched walk is cut into segments classified by shape
(one_one, one_many, many_one, many_many), and a co-occurrence count
table accumulated over a corpus then drives the projection of
per-position probability rows from the source vocabulary into the
pivot vocabulary.

Alignment costs compare token surface strings: substituting two tokens
costs their character-level edit distance divided by the longer length,
and leaving a token unmatched on either side costs 1.  Surfaces are
first stripped of leading word-boundary markers so tokenizers that
encode whitespace differently still compare cleanly.

The substitution costs of all distinct pivot x source surfaces come
from one batched integer Levenshtein in numpy, divided once by the
longer length.  The DP table is then filled one anti-diagonal at a
time.  Each cell still does the float64 additions and the two strict
comparisons of a scalar row-by-row loop, in the same order, so costs
and tie-breaks are the same bits as that loop's.
"""

from __future__ import annotations

import json
import sys

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from umm.distro_fusion import DistributionMatrix, token_ids
from umm.errors import (
    EmptySequence,
    IoFailure,
    LengthMismatch,
    MalformedTokens,
    OutOfVocab,
    ShapeMismatch,
    located,
)
from umm.jsonl import iter_jsonl

ONE_ONE = "one_one"
ONE_MANY = "one_many"
MANY_ONE = "many_one"
MANY_MANY = "many_many"
KINDS = (ONE_ONE, ONE_MANY, MANY_ONE, MANY_MANY)

GAP_COST = 1.0
# a projected row keeping less than this fraction of its mass falls back
MIN_MAPPED_MASS = 1e-6
DEFAULT_MARKERS = ("▁", "Ġ")  # SentencePiece and byte-BPE word starts


@dataclass
class TokenSeq:
    """One tokenization: ids with their surface strings."""

    ids: list
    surfaces: list
    vocab_size: int

    def __post_init__(self) -> None:
        self.ids = token_ids(self.ids, "ids")
        surfaces = self.surfaces
        if not isinstance(surfaces, (list, tuple)) or not all(isinstance(s, str) for s in surfaces):
            raise MalformedTokens("surfaces must be a list of strings")
        self.surfaces = list(surfaces)
        self.vocab_size = int(self.vocab_size)
        if len(self.ids) != len(self.surfaces):
            raise LengthMismatch(
                f"{len(self.ids)} ids but {len(self.surfaces)} surfaces"
            )
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")
        for i in self.ids:
            if not 0 <= i < self.vocab_size:
                raise OutOfVocab(f"token id {i} outside [0, {self.vocab_size})")

    def __len__(self) -> int:
        return len(self.ids)


class SurfaceNormalizer:
    """Strips leading word-boundary markers before surface comparison."""

    def __init__(self, markers=DEFAULT_MARKERS):
        self.markers = tuple(str(m) for m in markers if m)

    def normalize(self, surface: str) -> str:
        stripped = True
        while stripped:
            stripped = False
            for marker in self.markers:
                if surface.startswith(marker):
                    surface = surface[len(marker):]
                    stripped = True
        return surface


def classify_spans(pivot_len: int, source_len: int) -> str:
    if pivot_len == 1 and source_len == 1:
        return ONE_ONE
    if pivot_len == 1 and source_len > 1:
        return ONE_MANY
    if pivot_len > 1 and source_len == 1:
        return MANY_ONE
    return MANY_MANY


@dataclass(frozen=True)
class AlignmentSegment:
    """Half-open index spans into the pivot and source sequences."""

    pivot_span: tuple
    source_span: tuple

    def __post_init__(self) -> None:
        for span in (self.pivot_span, self.source_span):
            if len(span) != 2 or span[0] >= span[1] or span[0] < 0:
                raise ValueError(f"invalid span {span}")

    @property
    def kind(self) -> str:
        return classify_spans(
            self.pivot_span[1] - self.pivot_span[0],
            self.source_span[1] - self.source_span[0],
        )


# working-set cap of the batched Levenshtein, in int32 cells per array
_LEVENSHTEIN_BLOCK_CELLS = 1 << 17


def _code_points(surfaces: list) -> tuple:
    """(code points padded with 0, lengths) of ``surfaces`` as int arrays."""
    lengths = np.array([len(s) for s in surfaces], dtype=np.int64)
    width = max(1, int(lengths.max(initial=0)))
    codes = np.array(surfaces, dtype=f"<U{width}").view(np.uint32)
    return codes.reshape(len(surfaces), width), lengths


def _levenshtein_block(a_codes, a_lens, b_codes, b_lens) -> np.ndarray:
    """Edit distance of every (a, b) pair, one DP row per character of a.

    A row is laid out [column j, a, b] and holds cost - j, so deleting a
    character of b is a plain running minimum along j and every update
    is an integer operation on whole [a, b] planes.  Cells past a pair's
    own lengths hold values that never feed the cells before them; each
    distance is read at row len(a), column len(b).
    """
    width = b_codes.shape[1]
    b_t = b_codes.T[:, None, :]  # [j, 1, b]
    pairs = (len(a_lens), len(b_lens))
    out = np.empty(pairs, dtype=np.int32)
    out[a_lens == 0] = b_lens
    row = np.zeros((width + 1,) + pairs, dtype=np.int32)
    previous = np.empty_like(row)
    match = np.empty((width,) + pairs, dtype=bool)
    take_b = np.arange(len(b_lens))
    for i in range(1, int(a_lens.max(initial=0)) + 1):
        row, previous = previous, row
        np.equal(b_t, a_codes[:, i - 1][None, :, None], out=match)
        np.subtract(previous[:-1], match, out=row[1:], casting="unsafe")  # substitute
        np.minimum(row[1:], previous[1:] + 1, out=row[1:])  # delete from a
        row[0] = i
        for j in range(1, width + 1):  # delete from b
            np.minimum(row[j], row[j - 1], out=row[j])
        done = np.flatnonzero(a_lens == i)
        if done.size:
            out[done] = row[b_lens[None, :], done[:, None], take_b[None, :]] + b_lens
    return out


def substitution_costs(pivot_surfaces: list, source_surfaces: list) -> np.ndarray:
    """[pivot, source] float64 matrix of surface substitution costs.

    Each cost is the character edit distance divided by the longer
    length, and 0.0 for identical surfaces (two empty ones included).
    An int/int true division is correctly rounded, so the costs are
    the bits a scalar Python loop gives.  Distances are computed in
    blocks of pivot (and, for many long source surfaces, source)
    surfaces, so the working set stays a few MiB at any vocabulary.
    """
    a_codes, a_lens = _code_points(pivot_surfaces)
    b_codes, b_lens = _code_points(source_surfaces)
    costs = np.empty((len(a_lens), len(b_lens)), dtype=np.float64)
    per_b = b_codes.shape[1] + 1
    b_step = max(1, _LEVENSHTEIN_BLOCK_CELLS // per_b)
    a_step = max(1, _LEVENSHTEIN_BLOCK_CELLS // (per_b * max(1, min(b_step, len(b_lens)))))
    for b0 in range(0, len(b_lens), b_step):
        b_block, b_block_lens = b_codes[b0:b0 + b_step], b_lens[b0:b0 + b_step]
        for a0 in range(0, len(a_lens), a_step):
            a_block_lens = a_lens[a0:a0 + a_step]
            dist = _levenshtein_block(a_codes[a0:a0 + a_step], a_block_lens,
                                      b_block, b_block_lens)
            longer = np.maximum(np.maximum.outer(a_block_lens, b_block_lens), 1)
            costs[a0:a0 + a_step, b0:b0 + b_step] = dist / longer
    return costs


# DP moves; the order is the tie-break preference
_SUB = 0           # consume one pivot and one source token
_PIVOT_ONLY = 1    # consume a pivot token against a gap in the source
_SOURCE_ONLY = 2   # consume a source token against a gap in the pivot


def _unique_index(surfaces: list) -> tuple:
    """(distinct surfaces in first-seen order, index of each surface)."""
    index = {}
    positions = np.array([index.setdefault(s, len(index)) for s in surfaces], dtype=np.intp)
    return list(index), positions


def _align_moves(pivot: TokenSeq, source: TokenSeq, norm: SurfaceNormalizer) -> tuple:
    """Minimum-cost monotone alignment; returns (move list, total cost).

    cost[i, j] is the least cost of aligning the first i pivot and the
    first j source tokens: the least of cost[i-1, j-1] + sub,
    cost[i-1, j] + 1 and cost[i, j-1] + 1, taken with two strict ``<``
    tests in that order, so ties keep the earlier move.  The table is
    filled one anti-diagonal i + j = d at a time; each cell reads only
    diagonals d-1 and d-2, so a diagonal is a few numpy operations on
    strided views of the flat table.  Every cell does the same float64
    additions and comparisons as a row-by-row scalar loop, so costs and
    tie-breaks are bit-identical to it.  (A row-wise running minimum
    over the gap run would re-associate the chained ``+ 1.0`` additions
    and could change the last bit and flip a tie.)
    """
    if len(pivot) == 0 or len(source) == 0:
        raise EmptySequence("cannot align an empty token sequence")
    p_unique, p_index = _unique_index([norm.normalize(s) for s in pivot.surfaces])
    s_unique, s_index = _unique_index([norm.normalize(s) for s in source.surfaces])
    sub = substitution_costs(p_unique, s_unique)

    n, m = len(p_index), len(s_index)
    cost = np.empty((n + 1, m + 1), dtype=np.float64)
    move = np.empty((n + 1, m + 1), dtype=np.int8)
    cost[:, 0] = np.arange(n + 1) * GAP_COST
    cost[0, :] = np.arange(m + 1) * GAP_COST
    move[:, 0] = _PIVOT_ONLY
    move[0, :] = _SOURCE_ONLY
    flat_cost, flat_move = cost.reshape(-1), move.reshape(-1)
    s_reversed = s_index[::-1]  # source token d - i - 1 is s_reversed[m - d + i]
    for d in range(2, n + m + 1):
        i0, i1 = max(1, d - m), min(n, d - 1)
        # cell (i, d - i) sits at flat index i * m + d
        start, stop = i0 * m + d, i1 * m + d + 1
        here = slice(start, stop, m)
        diagonal = slice(start - m - 2, stop - m - 2, m)
        above = slice(start - m - 1, stop - m - 1, m)
        beside = slice(start - 1, stop - 1, m)
        best = flat_cost[diagonal] + sub[p_index[i0 - 1:i1], s_reversed[m - d + i0:m - d + i1 + 1]]
        up = flat_cost[above] + GAP_COST
        left = flat_cost[beside] + GAP_COST
        take_up = up < best
        best = np.where(take_up, up, best)
        take_left = left < best
        flat_cost[here] = np.where(take_left, left, best)
        flat_move[here] = np.where(take_left, _SOURCE_ONLY, take_up * _PIVOT_ONLY)
    moves = []
    i, j = n, m
    while i > 0 or j > 0:
        chosen = int(move[i, j])
        moves.append(chosen)
        if chosen == _SUB:
            i, j = i - 1, j - 1
        elif chosen == _PIVOT_ONLY:
            i -= 1
        else:
            j -= 1
    moves.reverse()
    return moves, float(cost[n, m])


def _segment_moves(moves: list) -> list:
    """Cut the move walk into segments.

    A boundary exists only between two adjacent substitutions; every
    gap run therefore stays glued to the substitutions around it, which
    keeps segments maximal.
    """
    spans = []
    seg_p = seg_s = 0
    i = j = 0
    previous = None
    for current in moves:
        if current == _SUB and previous == _SUB:
            spans.append((seg_p, i, seg_s, j))
            seg_p, seg_s = i, j
        if current == _SUB:
            i += 1
            j += 1
        elif current == _PIVOT_ONLY:
            i += 1
        else:
            j += 1
        previous = current
    spans.append((seg_p, i, seg_s, j))
    return [AlignmentSegment((p0, p1), (s0, s1)) for p0, p1, s0, s1 in spans]


def align_sequences(pivot: TokenSeq, source: TokenSeq,
                    norm: SurfaceNormalizer = None) -> list:
    """Segments of the minimum-cost alignment, covering both sequences.

    Tie-break preference at equal cost: substitution, then a gap in the
    source, then a gap in the pivot.
    """
    moves, _ = _align_moves(pivot, source, norm or SurfaceNormalizer())
    return _segment_moves(moves)


def alignment_cost(pivot: TokenSeq, source: TokenSeq,
                   norm: SurfaceNormalizer = None) -> float:
    """Total cost of the minimum-cost alignment."""
    _, total = _align_moves(pivot, source, norm or SurfaceNormalizer())
    return total


def check_partition(segments: list, pivot_len: int, source_len: int) -> None:
    """Segments must tile [0, pivot_len) and [0, source_len) in order."""
    p_cursor = s_cursor = 0
    for seg in segments:
        if seg.pivot_span[0] != p_cursor or seg.source_span[0] != s_cursor:
            raise ShapeMismatch(f"segment {seg} breaks span continuity")
        p_cursor, s_cursor = seg.pivot_span[1], seg.source_span[1]
    if p_cursor != pivot_len or s_cursor != source_len:
        raise ShapeMismatch(
            f"segments cover [0, {p_cursor}) x [0, {s_cursor}), "
            f"sequences have lengths {pivot_len} and {source_len}"
        )


# --- mapping statistics ---------------------------------------------------------

@dataclass
class AlignStats:
    """Co-occurrence counts of (pivot token id, source token id) pairs."""

    pivot_vocab_size: int
    source_vocab_size: int
    counts: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.pivot_vocab_size = int(self.pivot_vocab_size)
        self.source_vocab_size = int(self.source_vocab_size)
        if self.pivot_vocab_size < 1 or self.source_vocab_size < 1:
            raise ValueError("vocab sizes must be positive")
        for (p, s), c in self.counts.items():
            if not 0 <= p < self.pivot_vocab_size:
                raise OutOfVocab(f"pivot id {p} outside [0, {self.pivot_vocab_size})")
            if not 0 <= s < self.source_vocab_size:
                raise OutOfVocab(f"source id {s} outside [0, {self.source_vocab_size})")
            if c < 1:
                raise ValueError(f"count for ({p}, {s}) must be >= 1, got {c}")

    def total(self) -> int:
        return sum(self.counts.values())


def _require_vocabs(stats: AlignStats, pivot: TokenSeq, source: TokenSeq) -> None:
    if pivot.vocab_size != stats.pivot_vocab_size:
        raise ShapeMismatch(
            f"pivot vocab {pivot.vocab_size} vs stats {stats.pivot_vocab_size}"
        )
    if source.vocab_size != stats.source_vocab_size:
        raise ShapeMismatch(
            f"source vocab {source.vocab_size} vs stats {stats.source_vocab_size}"
        )


def update_stats(stats: AlignStats, segments: list, pivot: TokenSeq,
                 source: TokenSeq) -> AlignStats:
    """Count every (pivot id, source id) position pair per segment.

    many_many segments are skipped: their internal correspondence is
    unknown, so counting their cross product would only add noise.
    Mutates and returns ``stats``.
    """
    _require_vocabs(stats, pivot, source)
    for seg in segments:
        if seg.kind == MANY_MANY:
            continue
        for p in range(*seg.pivot_span):
            for s in range(*seg.source_span):
                key = (pivot.ids[p], source.ids[s])
                stats.counts[key] = stats.counts.get(key, 0) + 1
    return stats


def kind_histogram(segments: list) -> dict:
    histogram = {kind: 0 for kind in KINDS}
    for seg in segments:
        histogram[seg.kind] += 1
    return histogram


# --- distribution projection ---------------------------------------------------

def _transfer_matrix(stats: AlignStats, vocab_map: str):
    """Sparse [pivot vocab x source vocab] map applied to source rows.

    proportional: column v splits the source token's mass across pivot
    tokens t in proportion to counts[(t, v)].  argmax: all of the mass
    goes to the highest-count pivot token (ties: lowest id).  Columns
    with no counts are zero, so unseen source tokens contribute nothing.
    """
    if vocab_map not in ("proportional", "argmax"):
        raise ValueError(f"unknown vocab_map {vocab_map!r}")
    if not stats.counts:
        return sparse.csr_matrix((stats.pivot_vocab_size, stats.source_vocab_size))
    if vocab_map == "argmax":
        best = {}
        for (p, s), c in stats.counts.items():
            incumbent = best.get(s)
            if incumbent is None or c > incumbent[0] or (c == incumbent[0] and p < incumbent[1]):
                best[s] = (c, p)
        rows = [p for _, p in best.values()]
        cols = list(best.keys())
        vals = np.ones(len(best))
        return sparse.csr_matrix(
            (vals, (rows, cols)),
            shape=(stats.pivot_vocab_size, stats.source_vocab_size),
        )
    rows, cols, vals = [], [], []
    for (p, s), c in stats.counts.items():
        rows.append(p)
        cols.append(s)
        vals.append(float(c))
    matrix = sparse.csr_matrix(
        (vals, (rows, cols)),
        shape=(stats.pivot_vocab_size, stats.source_vocab_size),
    )
    column_sums = np.asarray(matrix.sum(axis=0)).ravel()
    inverse = np.zeros_like(column_sums)
    nonzero = column_sums > 0
    inverse[nonzero] = 1.0 / column_sums[nonzero]
    return matrix @ sparse.diags(inverse)


def project_distribution(src_dist: DistributionMatrix, segments: list,
                         stats: AlignStats, pivot: TokenSeq, source: TokenSeq,
                         pivot_fallback: DistributionMatrix,
                         vocab_map: str = "proportional") -> DistributionMatrix:
    """Rebuild source probability rows over the pivot vocabulary.

    Position mapping per segment: one_one copies its source row;
    one_many picks the source row whose token co-occurs most often with
    the pivot token (ties: leftmost); many_one gives every covered
    pivot position the count-weighted average of the segment's source
    rows (a single row in practice); many_many positions take the
    fallback row.  Each mapped row is then pushed through the vocab
    transfer matrix and renormalized; a row is kept bit-identical when
    no mass was lost, and falls back when almost none survives.
    """
    if src_dist.length != len(source):
        raise ShapeMismatch(
            f"{src_dist.length} source rows for {len(source)} source tokens"
        )
    if pivot_fallback.length != len(pivot):
        raise ShapeMismatch(
            f"{pivot_fallback.length} fallback rows for {len(pivot)} pivot tokens"
        )
    if src_dist.vocab_size != stats.source_vocab_size:
        raise ShapeMismatch(
            f"source rows over {src_dist.vocab_size} tokens, "
            f"stats expect {stats.source_vocab_size}"
        )
    if pivot_fallback.vocab_size != stats.pivot_vocab_size:
        raise ShapeMismatch(
            f"fallback rows over {pivot_fallback.vocab_size} tokens, "
            f"stats expect {stats.pivot_vocab_size}"
        )
    _require_vocabs(stats, pivot, source)
    check_partition(segments, len(pivot), len(source))

    n_pivot = len(pivot)
    chosen = np.zeros((n_pivot, src_dist.vocab_size))
    fallback_mask = np.zeros(n_pivot, dtype=bool)
    for seg in segments:
        p0, p1 = seg.pivot_span
        s0, s1 = seg.source_span
        if seg.kind == MANY_MANY:
            fallback_mask[p0:p1] = True
        elif seg.kind == ONE_ONE:
            chosen[p0] = src_dist.rows[s0]
        elif seg.kind == ONE_MANY:
            pivot_id = pivot.ids[p0]
            best_j, best_count = s0, -1
            for j in range(s0, s1):
                count = stats.counts.get((pivot_id, source.ids[j]), 0)
                if count > best_count:
                    best_count, best_j = count, j
            chosen[p0] = src_dist.rows[best_j]
        else:  # many_one
            for p in range(p0, p1):
                pivot_id = pivot.ids[p]
                weights = np.array(
                    [float(stats.counts.get((pivot_id, source.ids[j]), 0))
                     for j in range(s0, s1)]
                )
                if weights.sum() == 0.0:
                    weights = np.ones(s1 - s0)
                chosen[p] = (weights[:, None] * src_dist.rows[s0:s1]).sum(axis=0) / weights.sum()

    transfer = _transfer_matrix(stats, vocab_map)
    mapped = (transfer @ chosen.T).T
    original_mass = chosen.sum(axis=1)
    mapped_mass = mapped.sum(axis=1)
    out = np.empty((n_pivot, stats.pivot_vocab_size))
    for p in range(n_pivot):
        if fallback_mask[p] or mapped_mass[p] < MIN_MAPPED_MASS * original_mass[p]:
            out[p] = pivot_fallback.rows[p]
        elif mapped_mass[p] == original_mass[p]:
            # no mass lost: skip renormalization so an identity mapping
            # reproduces the input row exactly
            out[p] = mapped[p]
        else:
            out[p] = mapped[p] / mapped_mass[p]
    return DistributionMatrix(out)


# --- JSON-lines persistence -----------------------------------------------------

def load_token_seqs(path, vocab_size: int = None) -> list:
    """JSONL of {"ids": [...], "surfaces": [...]} objects.

    All sequences in a file share one vocabulary; when ``vocab_size``
    is not given it is inferred as max id + 1 over the whole file and set
    on every sequence after the single pass that checks each line.
    Errors in a line name ``path:lineno``.
    """
    line_vocab = sys.maxsize if vocab_size is None else vocab_size
    seqs = []
    for lineno, obj in iter_jsonl(path):
        with located(f"{path}:{lineno}"):
            if not isinstance(obj, dict) or "ids" not in obj or "surfaces" not in obj:
                raise IoFailure("expected ids and surfaces fields")
            seqs.append(TokenSeq(obj["ids"], obj["surfaces"], line_vocab))
    if not seqs:
        raise EmptySequence(f"{path} holds no token sequences")
    if vocab_size is None:
        vocab_size = max((max(seq.ids) for seq in seqs if seq.ids), default=0) + 1
        for seq in seqs:
            seq.vocab_size = vocab_size
    return seqs


def save_stats(stats: AlignStats, path) -> None:
    """JSONL, one {"p", "s", "c"} object per counted pair, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for (p, s) in sorted(stats.counts):
            fh.write(json.dumps({"p": p, "s": s, "c": stats.counts[(p, s)]}) + "\n")


def load_stats(path, pivot_vocab_size: int = None,
               source_vocab_size: int = None) -> AlignStats:
    """JSONL of {"p", "s", "c"} JSON integers; repeated pairs add up."""
    counts = {}
    for lineno, obj in iter_jsonl(path):
        try:
            p, s, c = obj["p"], obj["s"], obj["c"]
        except (KeyError, TypeError) as exc:
            raise IoFailure(f"{path}:{lineno}: bad stats line: {exc}") from exc
        if not type(p) is type(s) is type(c) is int:  # no float, str or bool
            raise IoFailure(f"{path}:{lineno}: bad stats line: p, s and c must be integers")
        counts[(p, s)] = counts.get((p, s), 0) + c
    if pivot_vocab_size is None:
        pivot_vocab_size = max((p for p, _ in counts), default=0) + 1
    if source_vocab_size is None:
        source_vocab_size = max((s for _, s in counts), default=0) + 1
    return AlignStats(pivot_vocab_size, source_vocab_size, counts)
