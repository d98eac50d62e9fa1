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

Each pair costs its own distinct normalized pivot x source surfaces
with one batched integer Levenshtein in numpy, divided once by the
longer length; nothing is kept across pairs.  The DP table holds costs
only and is filled one anti-diagonal at a time, a few numpy calls per
diagonal; each cell keeps the same float64 value as a scalar
row-by-row loop.  The moves are recomputed only along the backtrace
path, with that loop's float64 sums and its two strict comparisons in
the same order, so costs and tie-breaks are the same bits as that
loop's.  The backtrace cuts the segments as it walks and returns them,
not a move list.
"""

from __future__ import annotations

import functools
import itertools
import re

from dataclasses import dataclass, field

import numpy as np

from umm.distro_fusion import DistributionMatrix
from umm.errors import (
    EmptySequence,
    LengthMismatch,
    MalformedInput,
    OutOfVocab,
    ShapeMismatch,
    located,
)
from umm.jsonl import iter_jsonl, want_int, want_ints, want_strs
from umm.tensor_store import publish

ONE_ONE = "one_one"
ONE_MANY = "one_many"
MANY_ONE = "many_one"
MANY_MANY = "many_many"
KINDS = (ONE_ONE, ONE_MANY, MANY_ONE, MANY_MANY)

GAP_COST = 1.0
# a projected row keeping less than this fraction of its mass falls back
MIN_MAPPED_MASS = 1e-6
DEFAULT_MARKERS = ("▁", "Ġ")  # SentencePiece and byte-BPE word starts
_MAX_COUNT = 2**53  # largest pair count; float64 (the vocab map) holds every int up to it
# save_stats' line, spelt as json.dumps spells it; load_stats reads this form in blocks
_STATS_LINE = '{{"p": {}, "s": {}, "c": {}}}\n'
# a block of _STATS_LINE lines whose numbers are canonical JSON integers of at
# most 16 digits, so each fits an int64 and a count just past 2**53 is seen
_STATS_BLOCK = re.compile("(?:%s)*" % "(?:0|[1-9][0-9]{0,15})".join(
    map(re.escape, _STATS_LINE.format(*"\0\0\0").split("\0"))))
_NOT_DIGITS = str.maketrans(dict.fromkeys(_STATS_LINE.format("", "", ""), " "))


@dataclass
class TokenSeq:
    """One tokenization: ids with their surface strings.  Built only by
    ``token_seq_from_json_obj``, which checks each id against its
    vocabulary."""

    ids: list
    surfaces: list

    def __len__(self) -> int:
        return len(self.ids)


def token_seq_from_json_obj(obj: dict, vocab_size: int = None, where: str = "") -> TokenSeq:
    """A TokenSeq from a {"ids": [...], "surfaces": [...]} object: as many
    surfaces as ids, and each id >= 0 and, when ``vocab_size`` is given,
    below it.  Errors name the field through ``where``."""
    ids, surfaces = want_ints(obj, "ids", where=where), want_strs(obj, "surfaces", where=where)
    if len(ids) != len(surfaces):
        raise LengthMismatch(f"{where}ids holds {len(ids)} ids but {where}surfaces holds "
                             f"{len(surfaces)} surfaces")
    if ids and (min(ids) < 0 or vocab_size is not None and max(ids) >= vocab_size):
        bad = next(i for i in ids if i < 0 or vocab_size is not None and i >= vocab_size)
        need = "must be >= 0" if bad < 0 else f"outside [0, {vocab_size})"
        raise OutOfVocab(f"token id {bad} in {where}ids {need}")
    return TokenSeq(ids, surfaces)


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
# working-set cap of the substitution costs gathered into the DP table, in cells
_SEED_BLOCK_CELLS = 1 << 14


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


class SurfaceNormalizer:
    """Strips leading word-boundary markers before surface comparison.
    It holds only its markers, so one normalizer can serve every pair of
    a command and gives each pair the bits a fresh one gives."""

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


def _unique_index(surfaces: list, norm: SurfaceNormalizer) -> tuple:
    """(distinct normalized surfaces in first-seen order, index of each
    surface); each distinct raw surface is normalized once."""
    raw = {}
    raw_index = [raw.setdefault(s, len(raw)) for s in surfaces]
    index = {}
    positions = [index.setdefault(norm.normalize(s), len(index)) for s in raw]
    return list(index), np.array(positions, dtype=np.intp)[raw_index]


def _align_moves(pivot: TokenSeq, source: TokenSeq, norm: SurfaceNormalizer) -> tuple:
    """Minimum-cost monotone alignment; returns (segments, total cost).

    cost[i, j] is the least cost of aligning the first i pivot and the
    first j source tokens: the least of cost[i-1, j-1] + sub,
    cost[i-1, j] + 1 and cost[i, j-1] + 1.  The table holds costs only.
    Each cell is seeded with its substitution cost and then filled, one
    anti-diagonal i + j = d at a time, with min(diagonal + sub,
    min(above, beside) + 1): four numpy calls on strided views of the
    flat table per diagonal, since a cell reads only diagonals d-1 and
    d-2.  That is the value a row-by-row scalar loop keeps, bit for bit:
    rounding is monotone, so min(a + 1, b + 1) == min(a, b) + 1, and
    costs are never NaN or -0.0.  (A row-wise running minimum over the
    gap run would re-associate the chained ``+ 1.0`` additions and could
    change the last bit and flip a tie.)

    The backtrace recomputes each move on the path from the finished
    table with the scalar loop's float64 sums and its two strict ``<``
    tests in the same order (substitute, pivot-only, source-only), so
    ties keep the earlier move and the walk is the scalar loop's.  It
    returns segments, not a move list: walking back from (n, m), it cuts
    a segment between every two adjacent substitutions, so each gap run
    stays glued to the substitutions around it, and the gap run left at
    row 0 or column 0 joins the first segment.
    """
    if len(pivot) == 0 or len(source) == 0:
        raise EmptySequence("cannot align an empty token sequence")
    p_unique, p_index = _unique_index(pivot.surfaces, norm)
    s_unique, s_index = _unique_index(source.surfaces, norm)
    sub = substitution_costs(p_unique, s_unique)

    n, m = len(p_index), len(s_index)
    cost = np.empty((n + 1, m + 1), dtype=np.float64)
    cost[:, 0] = np.arange(n + 1) * GAP_COST
    cost[0, :] = np.arange(m + 1) * GAP_COST
    rows = max(1, _SEED_BLOCK_CELLS // m)  # a block of rows at a time: no n x m temporary
    for i0 in range(0, n, rows):
        block = sub.take(p_index[i0:i0 + rows], axis=0)  # rows x S, then rows x m
        cost[i0 + 1:i0 + rows + 1, 1:] = block.take(s_index, axis=1)
    flat_cost = cost.reshape(-1)
    for d in range(2, n + m + 1):
        i0, i1 = max(1, d - m), min(n, d - 1)
        # cell (i, d - i) sits at flat index i * m + d
        start, stop = i0 * m + d, i1 * m + d + 1
        here = flat_cost[start:stop:m]
        gap = np.minimum(flat_cost[start - m - 1:stop - m - 1:m], flat_cost[start - 1:stop - 1:m])
        gap += GAP_COST
        here += flat_cost[start - m - 2:stop - m - 2:m]
        np.minimum(here, gap, out=here)
    segments = []
    i, j = n, m
    end_i, end_j = n, m  # where the segment being walked ends
    substituted = False  # whether the next move on the path substitutes
    p_index, s_index = p_index.tolist(), s_index.tolist()
    while i > 0 and j > 0:
        total = cost.item(i - 1, j - 1) + sub.item(p_index[i - 1], s_index[j - 1])
        di = dj = 1
        up = cost.item(i - 1, j) + GAP_COST
        if up < total:
            total, dj = up, 0
        if cost.item(i, j - 1) + GAP_COST < total:
            di, dj = 0, 1
        if di and dj and substituted:  # a boundary between two substitutions
            segments.append(AlignmentSegment((i, end_i), (j, end_j)))
            end_i, end_j = i, j
        substituted = di and dj
        i, j = i - di, j - dj
    segments.append(AlignmentSegment((0, end_i), (0, end_j)))
    segments.reverse()
    return segments, cost.item(n, m)


def align_sequences(pivot: TokenSeq, source: TokenSeq,
                    norm: SurfaceNormalizer = None) -> list:
    """Segments of the minimum-cost alignment, covering both sequences.

    Tie-break preference at equal cost: substitution, then a gap in the
    source, then a gap in the pivot.  Each call costs only its own pair's
    distinct surfaces and keeps nothing across calls; without ``norm``
    the default markers are stripped.
    """
    segments, _ = _align_moves(pivot, source, norm or SurfaceNormalizer())
    return segments


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
    """Co-occurrence counts of (pivot token id, source token id) pairs,
    with the two vocab sizes as the transfer matrix's shape.  ``load_stats``
    checks each counted pair of a file; ``update_stats`` counts only ids
    that ``token_seq_from_json_obj`` checked."""

    pivot_vocab_size: int
    source_vocab_size: int
    counts: dict = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())


def update_stats(stats: AlignStats, segments: list, pivot: TokenSeq,
                 source: TokenSeq) -> AlignStats:
    """Count every (pivot id, source id) position pair per segment.

    many_many segments are skipped: their internal correspondence is
    unknown, so counting their cross product would only add noise.
    Mutates and returns ``stats``.
    """
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

    Built on each call.  Both maps come from one canonical CSR of the
    counts, read from ``stats.counts`` in two array passes: one over its
    keys, one over its values, both in dict order.  proportional: column
    v splits the source token's mass across pivot tokens t in proportion
    to counts[(t, v)].  argmax: all of the mass goes to the highest-count
    pivot token (ties: lowest id).  Columns with no counts are zero, so
    unseen source tokens contribute nothing.
    """
    if vocab_map not in ("proportional", "argmax"):
        raise ValueError(f"unknown vocab_map {vocab_map!r}")
    from scipy import sparse  # here, so that only fuse-targets pays for importing scipy

    n = len(stats.counts)
    keys = np.fromiter(itertools.chain.from_iterable(stats.counts), np.intp, 2 * n)
    vals = np.fromiter(stats.counts.values(), np.float64, n)
    shape = (stats.pivot_vocab_size, stats.source_vocab_size)
    counts = sparse.csr_matrix((vals, (keys[0::2], keys[1::2])), shape=shape)
    if vocab_map == "argmax":  # no sparse argmax: scipy's loops over columns in Python
        coo = counts.tocoo()  # entries in (pivot id, source id) order
        top = np.flatnonzero(coo.data == counts.max(axis=0).toarray().ravel()[coo.col])
        seen, first = np.unique(coo.col[top], return_index=True)  # first is the lowest pivot id
        return sparse.csr_matrix((np.ones(seen.size), (coo.row[top][first], seen)), shape=shape)
    column_sums = np.asarray(counts.sum(axis=0)).ravel()
    inverse = np.zeros_like(column_sums)
    nonzero = column_sums > 0
    inverse[nonzero] = 1.0 / column_sums[nonzero]
    return counts @ sparse.diags(inverse)


def project_distribution(src_dist: DistributionMatrix, segments: list,
                         stats: AlignStats, pivot: TokenSeq, source: TokenSeq,
                         pivot_fallback: DistributionMatrix,
                         vocab_map: str = "proportional") -> DistributionMatrix:
    """Rebuild source probability rows over the pivot vocabulary.

    Every pivot position takes one source row as ``row * w / w``: one_one
    copies its source row; one_many picks the source row whose token
    co-occurs most often with the pivot token (ties: leftmost); a many_one
    segment has one source row, and w is its count against each covered
    pivot token (1 if none), the rounding of a count-weighted average; w
    is 1 elsewhere, which copies bits.  many_many positions fall back.
    Rows are then pushed through the vocab transfer matrix and
    renormalized; a row is kept bit-identical when no mass was lost, and
    falls back when almost none survives.
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
    check_partition(segments, len(pivot), len(source))

    n_pivot = len(pivot)
    row_of = np.zeros(n_pivot, dtype=np.intp)
    weight = np.ones(n_pivot)
    fallback = np.zeros(n_pivot, dtype=bool)
    for seg in segments:
        p0, p1 = seg.pivot_span
        s0, s1 = seg.source_span
        if seg.kind == MANY_MANY:
            fallback[p0:p1] = True
        elif seg.kind == ONE_MANY:
            row_of[p0] = max(range(s0, s1),
                             key=lambda j: stats.counts.get((pivot.ids[p0], source.ids[j]), 0))
        else:
            row_of[p0:p1] = s0
            if seg.kind == MANY_ONE:
                weight[p0:p1] = [stats.counts.get((p, source.ids[s0]), 0) or 1
                                 for p in pivot.ids[p0:p1]]
    chosen = src_dist.rows[row_of] * weight[:, None] / weight[:, None]

    mapped = (_transfer_matrix(stats, vocab_map) @ chosen.T).T
    original_mass = chosen.sum(axis=1)
    mapped_mass = mapped.sum(axis=1)
    fallback |= mapped_mass < MIN_MAPPED_MASS * original_mass
    # a row that lost no mass is kept, so an identity map copies bits
    renormalize = ~fallback & (mapped_mass != original_mass)
    out = mapped.copy()  # row-major: mapped is a transposed view
    np.divide(out, mapped_mass[:, None], out=out, where=renormalize[:, None])
    out[fallback] = pivot_fallback.rows[fallback]
    return DistributionMatrix(out)


# --- JSON-lines persistence -----------------------------------------------------

def load_token_seqs(path, vocab_size: int = None) -> tuple:
    """(sequences, vocab size) from JSONL of {"ids": [...], "surfaces":
    [...]} objects.

    All sequences in a file share one vocabulary: ``vocab_size`` when it
    is given, else max id + 1 over the whole file.  Errors in a line name
    ``path:lineno``.
    """
    seqs = []
    for lineno, obj in iter_jsonl(path):
        with located(f"{path}:{lineno}"):
            seqs.append(token_seq_from_json_obj(obj, vocab_size))
    if not seqs:
        raise EmptySequence(f"{path} holds no token sequences")
    if vocab_size is None:
        vocab_size = max((max(seq.ids) for seq in seqs if seq.ids), default=0) + 1
    return seqs, vocab_size


def save_stats(stats: AlignStats, path) -> None:
    """JSONL, one {"p", "s", "c"} object per counted pair, sorted."""
    with publish(path, text=True) as fh:
        for (p, s) in sorted(stats.counts):
            fh.write(_STATS_LINE.format(p, s, stats.counts[(p, s)]))


def _take_stats_block(counts: dict, pivot_vocab_size, source_vocab_size, text: str) -> bool:
    """Add a block of ``_STATS_LINE`` lines to ``counts`` and return True,
    if every line has that form, passes ``load_stats``' checks and counts
    a pair that neither ``counts`` nor another line of the block holds.
    Otherwise leave ``counts`` as it is and return False, so the block is
    read line by line and an error names its line."""
    if not _STATS_BLOCK.fullmatch(text):
        return False
    p, s, c = np.fromstring(text.translate(_NOT_DIGITS), np.int64, sep=" ").reshape(-1, 3).T
    if (c.min() < 1 or c.max() > _MAX_COUNT
            or pivot_vocab_size is not None and p.max() >= pivot_vocab_size
            or source_vocab_size is not None and s.max() >= source_vocab_size):
        return False
    block = dict(zip(zip(p.tolist(), s.tolist()), c.tolist()))
    if len(block) < c.size or not counts.keys().isdisjoint(block):
        return False
    counts.update(block)
    return True


def load_stats(path, pivot_vocab_size: int = None,
               source_vocab_size: int = None) -> AlignStats:
    """JSONL of {"p", "s", "c"} JSON integers, each c >= 1; repeated pairs add
    up, to at most 2**53.

    Each id must be >= 0 and below its vocab size when that is given.
    Errors in a line name ``path:lineno``.  Lines in ``save_stats``' own
    form are read a block of a few thousand at a time, with one match and
    one integer parse per block; any other JSON spelling of the same
    object is still accepted, line by line, and so is every line of a
    block that holds one, or that fails a check.
    """
    counts = {}
    take_block = functools.partial(_take_stats_block, counts, pivot_vocab_size,
                                   source_vocab_size)
    for lineno, obj in iter_jsonl(path, take_block):
        try:  # not located(): a stats file has one line per counted pair
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
        if total > _MAX_COUNT:
            raise MalformedInput(f"{path}:{lineno}: bad stats line: count for ({p}, {s}) "
                                 f"reaches {total}, above 2**53")
    if pivot_vocab_size is None:
        pivot_vocab_size = max((p for p, _ in counts), default=0) + 1
    if source_vocab_size is None:
        source_vocab_size = max((s for _, s in counts), default=0) + 1
    return AlignStats(pivot_vocab_size, source_vocab_size, counts)
