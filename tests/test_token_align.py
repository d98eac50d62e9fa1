import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umm import jsonl, token_align
from umm.distro_fusion import DistributionMatrix
from umm.errors import (
    EmptySequence,
    IoFailure,
    LengthMismatch,
    MalformedInput,
    OutOfVocab,
    ShapeMismatch,
)
from umm.jsonl import iter_jsonl, want_ints
from umm.token_align import (
    KINDS,
    MANY_MANY,
    MANY_ONE,
    ONE_MANY,
    ONE_ONE,
    AlignmentSegment,
    AlignStats,
    SurfaceNormalizer,
    TokenSeq,
    align_sequences,
    alignment_cost,
    check_partition,
    classify_spans,
    kind_histogram,
    load_stats,
    load_token_seqs,
    project_distribution,
    save_stats,
    substitution_costs,
    token_seq_from_json_obj,
    update_stats,
    _SEED_BLOCK_CELLS,
    _transfer_matrix,
)

from reference_impls import (
    ref_align_moves,
    ref_load_stats,
    ref_min_alignment_cost,
    ref_project_distribution,
    ref_segment_moves,
    ref_surface_distance,
    ref_transfer_matrix,
)

# every surface pair costs a multiple of 1/2, so alignment costs are
# exact binary fractions and optimality can be compared with tolerance 0
ALPHABET = ("ab", "b", "ca")


def seq(surfaces, ids=None):
    if ids is None:
        ids = [ALPHABET.index(s) if s in ALPHABET else 0 for s in surfaces]
    return TokenSeq(ids=ids, surfaces=list(surfaces))


def random_seq(rng, length):
    ids = [int(rng.integers(0, len(ALPHABET))) for _ in range(length)]
    return TokenSeq(ids=ids, surfaces=[ALPHABET[i] for i in ids])


# --- domain types -----------------------------------------------------------

def test_token_seq_length_mismatch():
    with pytest.raises(LengthMismatch, match=re.escape("source.ids holds 2 ids but "
                                                       "source.surfaces holds 1 surfaces")):
        token_seq_from_json_obj({"ids": [1, 2], "surfaces": ["a"]}, 3, "source.")


def test_token_seq_id_out_of_vocab():
    with pytest.raises(OutOfVocab, match=re.escape("token id 3 in source.ids outside [0, 3)")):
        token_seq_from_json_obj({"ids": [0, 3], "surfaces": ["a", "b"]}, 3, "source.")
    with pytest.raises(OutOfVocab, match=re.escape("token id -1 in ids must be >= 0")):
        token_seq_from_json_obj({"ids": [0, -1, 5], "surfaces": ["a", "b", "c"]}, 3)
    with pytest.raises(OutOfVocab, match=re.escape("token id -2 in ids must be >= 0")):
        token_seq_from_json_obj({"ids": [-2], "surfaces": ["a"]})
    assert token_seq_from_json_obj({"ids": [7], "surfaces": ["a"]}).ids == [7]


def test_segment_kind_must_match_spans():
    assert AlignmentSegment(pivot_span=(0, 1), source_span=(0, 2)).kind == "one_many"
    with pytest.raises(ValueError):
        AlignmentSegment(pivot_span=(0, 0), source_span=(0, 1))


def test_classify_spans():
    assert classify_spans(1, 1) == "one_one"
    assert classify_spans(1, 3) == "one_many"
    assert classify_spans(2, 1) == "many_one"
    assert classify_spans(2, 2) == "many_many"


def test_normalizer_strips_leading_markers():
    norm = SurfaceNormalizer()
    assert norm.normalize("▁foo") == "foo"
    assert norm.normalize("Ġfoo") == "foo"
    assert norm.normalize("▁▁foo") == "foo"
    assert norm.normalize("fo▁o") == "fo▁o"


def test_normalizer_custom_markers():
    norm = SurfaceNormalizer(markers=["##"])
    assert norm.normalize("##ing") == "ing"
    assert norm.normalize("▁foo") == "▁foo"


def cost_of(a: str, b: str) -> float:
    return float(substitution_costs([a], [b])[0, 0])


def test_edit_distance_hand_cases():
    assert cost_of("kitten", "sitting") == 3 / 7
    assert cost_of("abc", "abc") == 0.0
    assert cost_of("", "abc") == 1.0
    assert cost_of("flaw", "lawn") == 2 / 4


def test_edit_distance_matches_reference(rng):
    letters = "abcdé"
    words = ["".join(rng.choice(list(letters)) for _ in range(rng.integers(0, 7)))
             for _ in range(40)]
    other = words[::-1][:25] + ["", "\0", "a\0", "\U0001f600b"]
    costs = substitution_costs(words, other)
    assert costs.shape == (len(words), len(other)) and costs.dtype == np.float64
    for i, a in enumerate(words):
        for j, b in enumerate(other):
            assert repr(float(costs[i, j])) == repr(ref_surface_distance(a, b)), (a, b)


def test_surface_distance_identical_and_empty():
    assert cost_of("x", "x") == 0.0
    assert cost_of("", "") == 0.0
    assert cost_of("ab", "b") == 0.5
    assert cost_of("a", "b") == 1.0


# --- alignment ---------------------------------------------------------------

def test_identical_sequences_all_one_one():
    tokens = seq(["ab", "b", "ca", "ab"])
    segments = align_sequences(tokens, tokens)
    assert len(segments) == 4
    assert all(s.kind == "one_one" for s in segments)
    assert alignment_cost(tokens, tokens) == 0.0


def test_split_word_pair_is_many_one():
    pivot = TokenSeq(ids=[0, 1], surfaces=["hel", "lo"])
    source = TokenSeq(ids=[0], surfaces=["hello"])
    segments = align_sequences(pivot, source)
    assert len(segments) == 1
    assert segments[0].pivot_span == (0, 2)
    assert segments[0].source_span == (0, 1)
    assert segments[0].kind == "many_one"


def test_unsynchronized_boundaries_become_many_many():
    pivot = TokenSeq(ids=[0, 1, 2], surfaces=["A", "BC", "D"])
    source = TokenSeq(ids=[0, 1], surfaces=["AB", "CD"])
    segments = align_sequences(pivot, source)
    assert len(segments) == 1
    assert segments[0].pivot_span == (0, 3)
    assert segments[0].source_span == (0, 2)
    assert segments[0].kind == "many_many"


def test_align_empty_raises():
    empty = TokenSeq(ids=[], surfaces=[])
    full = seq(["ab"])
    with pytest.raises(EmptySequence):
        align_sequences(empty, full)
    with pytest.raises(EmptySequence):
        align_sequences(full, empty)


def test_markers_change_costs():
    pivot = TokenSeq(ids=[0], surfaces=["▁hello"])
    source = TokenSeq(ids=[0], surfaces=["hello"])
    assert alignment_cost(pivot, source) == 0.0
    assert alignment_cost(pivot, source, SurfaceNormalizer(markers=())) > 0.0


def test_segments_partition_random_pairs(rng):
    for _ in range(60):
        pivot = random_seq(rng, int(rng.integers(1, 7)))
        source = random_seq(rng, int(rng.integers(1, 7)))
        segments = align_sequences(pivot, source)
        check_partition(segments, len(pivot), len(source))


def test_alignment_cost_is_optimal_random_pairs(rng):
    for _ in range(40):
        pivot = random_seq(rng, int(rng.integers(1, 6)))
        source = random_seq(rng, int(rng.integers(1, 6)))
        expected = ref_min_alignment_cost(pivot.surfaces, source.surfaces)
        assert alignment_cost(pivot, source) == expected


# surfaces whose pairwise costs are multiples of 1/2, 1/3 and 1/4, so many
# alignments tie; "", "▁" and "Ġ▁" are empty after normalization
TIE_SURFACES = ("", "▁", "Ġ▁", "ab", "b", "ca", "abc", "▁ab", "Ġca", "é", "éa", "日本", "日")


def assert_matches_scalar_dp(pivot_surfaces, source_surfaces):
    pivot = TokenSeq(list(range(len(pivot_surfaces))), pivot_surfaces)
    source = TokenSeq(list(range(len(source_surfaces))), source_surfaces)
    norm = SurfaceNormalizer()
    moves, cost = ref_align_moves([norm.normalize(s) for s in pivot_surfaces],
                                  [norm.normalize(s) for s in source_surfaces])
    got = [(seg.pivot_span, seg.source_span) for seg in align_sequences(pivot, source)]
    assert got == ref_segment_moves(moves)
    assert repr(alignment_cost(pivot, source)) == repr(cost)


def test_alignment_matches_scalar_dp_bit_for_bit(rng):
    shapes = [(1, int(m)) for m in rng.integers(1, 12, size=20)]
    shapes += [(int(n), 1) for n in rng.integers(1, 12, size=20)]
    shapes += [tuple(int(k) for k in rng.integers(1, 30, size=2)) for _ in range(260)]
    for n, m in shapes:
        assert_matches_scalar_dp([str(s) for s in rng.choice(TIE_SURFACES, size=n)],
                                 [str(s) for s in rng.choice(TIE_SURFACES, size=m)])


def test_long_alignment_matches_scalar_dp_bit_for_bit(rng):
    letters = list("abcdefgh")

    def pieces(count):
        return ["▁" * int(rng.integers(0, 2))
                + "".join(rng.choice(letters, size=int(rng.integers(1, 5))))
                for _ in range(count)]

    assert_matches_scalar_dp(pieces(600), pieces(610))


def test_short_pivot_against_a_very_long_source_matches_scalar_dp_bit_for_bit(rng):
    # a source longer than a seeding block: the table is seeded one row at a time
    source = [str(s) for s in rng.choice(TIE_SURFACES, size=_SEED_BLOCK_CELLS + 37)]
    assert_matches_scalar_dp(["ab", "▁ca", "日"], source)


def test_substitution_costs_working_set_is_bounded(rng):
    letters = list("abcdefghijklmnop")
    n = 1500

    def surfaces():
        return ["".join(rng.choice(letters, size=int(rng.integers(12, 17)))) for _ in range(n)]

    pivot = TokenSeq(list(range(n)), surfaces())
    source = TokenSeq(list(range(n)), surfaces())
    assert len(set(pivot.surfaces)) == len(set(source.surfaces)) == n
    # the float64 cost table, the int8 move table and the float64 matrix
    # of substitution costs; distances of all 1500 x 1500 pairs at once
    # would take over 100 MiB more
    tables = 8 * (n + 1) ** 2 + (n + 1) ** 2 + 8 * n * n
    tracemalloc.start()
    try:
        alignment_cost(pivot, source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tables + 4 * 2**20, (peak / 2**20, tables / 2**20)


def test_three_way_ties_match_scalar_dp_bit_for_bit():
    # distinct single characters: each of the three moves adds 1.0, so
    # every cell off the main diagonal ties a substitution with a gap
    for n in range(1, 7):
        for m in range(1, 7):
            assert_matches_scalar_dp(list("abcdef"[:n]), list("uvwxyz"[:m]))


def test_equal_gaps_below_substitution_prefer_a_gap_in_the_source():
    # at the last cell a gap on either side totals 2.5 and substituting
    # "ba" for "xy" totals 3.0; the walk through the gap in the source wins
    pivot, source = ["b", "x", "ba"], ["x", "b", "xy"]
    assert_matches_scalar_dp(pivot, source)
    assert align_sequences(seq(pivot), seq(source)) == [
        AlignmentSegment((0, 1), (0, 2)), AlignmentSegment((1, 3), (2, 3))]


def test_alignment_working_set_holds_no_move_table(rng):
    letters = list("abcdefghijklmnop")
    n = 1500

    def surfaces():
        return ["".join(rng.choice(letters, size=int(rng.integers(12, 17)))) for _ in range(n)]

    pivot = TokenSeq(list(range(n)), surfaces())
    source = TokenSeq(list(range(n)), surfaces())
    assert len(set(pivot.surfaces)) == len(set(source.surfaces)) == n
    # the float64 cost table and the float64 matrix of substitution
    # costs; an int8 move table would add 2.15 MiB
    tables = 8 * (n + 1) ** 2 + 8 * n * n
    tracemalloc.start()
    try:
        alignment_cost(pivot, source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tables + 2**20, ((peak - tables) / 2**20)


# surfaces that share normalized forms ("▁ab" and "ab") and costs that tie
_SHARED_SURFACE = st.sampled_from(TIE_SURFACES + ("abcd", "▁b", "Ġé", "ca▁", "▁▁ab"))
_TOKENS = st.lists(_SHARED_SURFACE, min_size=1, max_size=10)


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(_TOKENS, _TOKENS), min_size=1, max_size=6))
def test_a_shared_normalizer_gives_every_pair_the_bits_of_a_fresh_one(pairs):
    """The same segments and cost bits three ways: a fresh normalizer per
    pair, one normalizer in order, and one in reverse order."""
    seqs = [(seq(p), seq(s)) for p, s in pairs]

    def aligned(order, norm=None) -> dict:
        return {k: (align_sequences(*seqs[k], norm), repr(alignment_cost(*seqs[k], norm)))
                for k in order}

    forward = range(len(seqs))
    fresh = aligned(forward)
    assert aligned(forward, SurfaceNormalizer()) == fresh
    assert aligned(reversed(forward), SurfaceNormalizer()) == fresh


def test_each_pair_costs_only_its_own_distinct_surfaces(rng, monkeypatch):
    """No surface repeats across pairs and some repeat within one, so a
    pair's Levenshtein cells are its distinct normalized pivot forms
    times its distinct normalized source forms, however many pairs one
    normalizer has served before it."""
    cells = []

    def counting(pivots, sources, **options):
        cells.append(len(pivots) * len(sources))
        return substitution_costs(pivots, sources, **options)

    monkeypatch.setattr(token_align, "substitution_costs", counting)
    norm = SurfaceNormalizer()
    for k in range(20):
        words = [f"w{k}x{i}" for i in range(8)]
        pivot = [str(w) for w in rng.choice(words, size=12)]
        source = [marker + str(w) for marker, w in
                  zip(rng.choice(["", "▁", "Ġ"], size=9), rng.choice(words, size=9))]
        want = (len({norm.normalize(t) for t in pivot})
                * len({norm.normalize(t) for t in source}))
        cells.clear()
        alignment_cost(seq(pivot), seq(source), norm)
        assert sum(cells) == want, (k, cells, want)


def test_a_shared_normalizer_peak_does_not_grow_with_the_pair_count():
    """Surfaces never repeat across pairs: the peak stays within one
    pair's working set and does not grow with the number of pairs."""
    n = 100
    fresh = iter(range(10**9))

    def pair():
        return (seq([f"p{next(fresh):07}" for _ in range(n)], list(range(n))),
                seq([f"s{next(fresh):07}" for _ in range(n)], list(range(n))))

    norm = SurfaceNormalizer()
    peaks = []
    tracemalloc.start()
    try:
        for count in (30, 120):
            tracemalloc.reset_peak()
            for _ in range(count):
                alignment_cost(*pair(), norm)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    # one pair: its DP table and substitution costs, at most 2**17 int32
    # cells in each of the Levenshtein's three planes, and its surfaces
    one_pair = 2 * 8 * (n + 1) ** 2 + 3 * 4 * (1 << 17) + 2**18
    assert peaks[0] < one_pair, peaks[0] / 2**20
    assert peaks[1] < peaks[0] + 2**16, (peaks[1] - peaks[0]) / 2**10


def test_kind_histogram():
    tokens = seq(["ab", "b"])
    histogram = kind_histogram(align_sequences(tokens, tokens))
    assert histogram == {"one_one": 2, "one_many": 0, "many_one": 0, "many_many": 0}


# --- statistics ---------------------------------------------------------------

def test_update_stats_one_one():
    pivot = TokenSeq(ids=[7], surfaces=["x"])
    source = TokenSeq(ids=[3], surfaces=["x"])
    stats = AlignStats(8, 4)
    segments = [AlignmentSegment((0, 1), (0, 1))]
    update_stats(stats, segments, pivot, source)
    assert stats.counts == {(7, 3): 1}


def test_update_stats_one_many_cross_product():
    pivot = TokenSeq(ids=[7], surfaces=["xy"])
    source = TokenSeq(ids=[3, 9], surfaces=["x", "y"])
    stats = AlignStats(8, 10)
    segments = [AlignmentSegment((0, 1), (0, 2))]
    update_stats(stats, segments, pivot, source)
    assert stats.counts == {(7, 3): 1, (7, 9): 1}


def test_update_stats_many_many_skipped():
    pivot = TokenSeq(ids=[0, 1], surfaces=["a", "b"])
    source = TokenSeq(ids=[0, 1], surfaces=["c", "d"])
    stats = AlignStats(2, 2)
    segments = [AlignmentSegment((0, 2), (0, 2))]
    update_stats(stats, segments, pivot, source)
    assert stats.counts == {}


def test_update_stats_repeated_ids_accumulate():
    pivot = TokenSeq(ids=[5, 5], surfaces=["a", "a"])
    source = TokenSeq(ids=[2], surfaces=["aa"])
    stats = AlignStats(6, 3)
    update_stats(stats, [AlignmentSegment((0, 2), (0, 1))], pivot, source)
    assert stats.counts == {(5, 2): 2}


def test_stats_order_independent(rng):
    docs = []
    for _ in range(12):
        pivot = random_seq(rng, int(rng.integers(1, 6)))
        source = random_seq(rng, int(rng.integers(1, 6)))
        docs.append((pivot, source, align_sequences(pivot, source)))
    forward = AlignStats(len(ALPHABET), len(ALPHABET))
    for pivot, source, segments in docs:
        update_stats(forward, segments, pivot, source)
    backward = AlignStats(len(ALPHABET), len(ALPHABET))
    for pivot, source, segments in reversed(docs):
        update_stats(backward, segments, pivot, source)
    assert forward.counts == backward.counts


# --- projection ----------------------------------------------------------------

def identity_setup(vocab, n):
    rng = np.random.default_rng(99)
    rows = rng.dirichlet(np.ones(vocab), size=n)
    ids = [int(rng.integers(0, vocab)) for _ in range(n)]
    surfaces = [f"t{i}" for i in ids]
    tokens = TokenSeq(ids=ids, surfaces=surfaces)
    stats = AlignStats(vocab, vocab, {(v, v): 1 for v in range(vocab)})
    segments = [AlignmentSegment((i, i + 1), (i, i + 1)) for i in range(n)]
    fallback = DistributionMatrix(np.full((n, vocab), 1.0 / vocab))
    return DistributionMatrix(rows), segments, stats, tokens, fallback


def test_projection_identity_is_exact():
    src, segments, stats, tokens, fallback = identity_setup(vocab=5, n=7)
    projected = project_distribution(src, segments, stats, tokens, tokens, fallback)
    assert np.array_equal(projected.rows, src.rows)


def test_projection_hand_example():
    # pivot vocab {x=0, y=1}, source vocab {a=0, b=1}
    stats = AlignStats(2, 2, {(0, 0): 3, (1, 0): 1, (1, 1): 2})
    pivot = TokenSeq(ids=[0], surfaces=["x"])
    source = TokenSeq(ids=[0], surfaces=["a"])
    src = DistributionMatrix(np.array([[0.8, 0.2]]))
    fallback = DistributionMatrix(np.array([[0.5, 0.5]]))
    segments = [AlignmentSegment((0, 1), (0, 1))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    np.testing.assert_allclose(projected.rows[0], [0.6, 0.4], atol=1e-12)


def test_projection_zero_mass_falls_back():
    # all of the source row's mass sits on token 1, which has no counts
    stats = AlignStats(2, 2, {(0, 0): 4})
    pivot = TokenSeq(ids=[0], surfaces=["x"])
    source = TokenSeq(ids=[1], surfaces=["q"])
    src = DistributionMatrix(np.array([[0.0, 1.0]]))
    fallback = DistributionMatrix(np.array([[0.25, 0.75]]))
    segments = [AlignmentSegment((0, 1), (0, 1))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    np.testing.assert_array_equal(projected.rows[0], [0.25, 0.75])


def test_projection_many_many_falls_back():
    stats = AlignStats(3, 3, {(v, v): 1 for v in range(3)})
    pivot = TokenSeq(ids=[0, 1], surfaces=["a", "b"])
    source = TokenSeq(ids=[1, 2], surfaces=["c", "d"])
    src = DistributionMatrix(np.full((2, 3), 1.0 / 3))
    fallback = DistributionMatrix(np.array([[0.6, 0.2, 0.2], [0.1, 0.1, 0.8]]))
    segments = [AlignmentSegment((0, 2), (0, 2))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    np.testing.assert_array_equal(projected.rows, fallback.rows)


def test_projection_one_many_picks_max_frequency_row():
    # pivot token 0 pairs with source token 2 most often
    stats = AlignStats(1, 3, {(0, 1): 1, (0, 2): 5})
    pivot = TokenSeq(ids=[0], surfaces=["xy"])
    source = TokenSeq(ids=[1, 2], surfaces=["x", "y"])
    src = DistributionMatrix(np.array([[0.9, 0.05, 0.05], [0.1, 0.2, 0.7]]))
    fallback = DistributionMatrix(np.array([[1.0]]))
    segments = [AlignmentSegment((0, 1), (0, 2))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    # row 1 chosen; all its counted mass collapses onto the only pivot token
    assert projected.rows[0] == pytest.approx([1.0])


def test_projection_one_many_tie_prefers_leftmost():
    stats = AlignStats(2, 2, {(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1})
    pivot = TokenSeq(ids=[0], surfaces=["xy"])
    source = TokenSeq(ids=[0, 1], surfaces=["x", "y"])
    src = DistributionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    fallback = DistributionMatrix(np.array([[0.5, 0.5]]))
    segments = [AlignmentSegment((0, 1), (0, 2))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    # leftmost source row (0.9, 0.1) wins the tie, then maps through counts:
    # token 0 mass splits 2/3 vs 1/3, token 1 mass splits 2/3 vs 1/3
    expected = np.array([0.9 * 2 / 3 + 0.1 * 2 / 3, 0.9 / 3 + 0.1 / 3])
    np.testing.assert_allclose(projected.rows[0], expected, atol=1e-12)


def test_projection_many_one_copies_single_row():
    stats = AlignStats(2, 2, {(0, 0): 1, (1, 0): 1, (1, 1): 1, (0, 1): 1})
    pivot = TokenSeq(ids=[0, 1], surfaces=["he", "llo"])
    source = TokenSeq(ids=[0], surfaces=["hello"])
    src = DistributionMatrix(np.array([[0.3, 0.7]]))
    fallback = DistributionMatrix(np.full((2, 2), 0.5))
    segments = [AlignmentSegment((0, 2), (0, 1))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    # uniform counts spread each source token's mass evenly over both
    # pivot tokens, so both positions land on (0.5, 0.5)
    np.testing.assert_allclose(projected.rows, np.full((2, 2), 0.5), atol=1e-12)


def test_projection_argmax_mode_concentrates_mass():
    stats = AlignStats(2, 2, {(0, 0): 3, (1, 0): 1, (1, 1): 2})
    pivot = TokenSeq(ids=[0], surfaces=["x"])
    source = TokenSeq(ids=[0], surfaces=["a"])
    src = DistributionMatrix(np.array([[0.8, 0.2]]))
    fallback = DistributionMatrix(np.array([[0.5, 0.5]]))
    segments = [AlignmentSegment((0, 1), (0, 1))]
    projected = project_distribution(
        src, segments, stats, pivot, source, fallback, vocab_map="argmax"
    )
    # source token 0 goes entirely to pivot 0, source token 1 to pivot 1
    np.testing.assert_allclose(projected.rows[0], [0.8, 0.2], atol=1e-15)


def test_projection_rows_are_distributions(rng):
    for _ in range(25):
        pivot = random_seq(rng, int(rng.integers(1, 7)))
        source = random_seq(rng, int(rng.integers(1, 7)))
        segments = align_sequences(pivot, source)
        stats = AlignStats(len(ALPHABET), len(ALPHABET))
        update_stats(stats, segments, pivot, source)
        src = DistributionMatrix(rng.dirichlet(np.ones(len(ALPHABET)), size=len(source)))
        fallback = DistributionMatrix(
            rng.dirichlet(np.ones(len(ALPHABET)), size=len(pivot))
        )
        projected = project_distribution(src, segments, stats, pivot, source, fallback)
        assert projected.length == len(pivot)
        assert np.all(projected.rows >= 0.0)
        np.testing.assert_allclose(projected.rows.sum(axis=1), 1.0, atol=1e-6)


def random_projection_case(rng):
    """A hand-built partition over all four segment kinds, with counts and
    rows drawn to reach count ties, unseen and near-unseen source columns,
    empty counts and non-dyadic many_one weights above 1."""
    pivot_vocab, source_vocab = (int(v) for v in rng.integers(1, 7, size=2))
    spans, p_len, s_len = [], 0, 0
    for _ in range(int(rng.integers(1, 6))):
        kind = KINDS[int(rng.integers(0, 4))]
        dp = 1 if kind in (ONE_ONE, ONE_MANY) else int(rng.integers(2, 4))
        ds = 1 if kind in (ONE_ONE, MANY_ONE) else int(rng.integers(2, 4))
        spans.append((p_len, p_len + dp, s_len, s_len + ds))
        p_len, s_len = p_len + dp, s_len + ds
    pivot_ids = [int(v) for v in rng.integers(0, pivot_vocab, size=p_len)]
    source_ids = [int(v) for v in rng.integers(0, source_vocab, size=s_len)]
    counts = {}
    if rng.random() > 0.1:
        top = int(rng.choice([2, 3, 1000]))  # small tops tie often
        for _ in range(int(rng.integers(1, pivot_vocab * source_vocab + 1))):
            pair = (int(rng.integers(0, pivot_vocab)), int(rng.integers(0, source_vocab)))
            counts[pair] = int(rng.integers(1, top + 1))
        for p, s in zip(pivot_ids, source_ids):  # aligned pairs, as update_stats counts them
            if rng.random() < 0.5:
                counts[(p, s)] = int(rng.integers(1, top + 1))
    seen = sorted({s for _, s in counts})
    unseen = sorted(set(range(source_vocab)) - set(seen))
    src = rng.dirichlet(np.ones(source_vocab), size=s_len)
    for row in src:
        if unseen and rng.random() < 0.3:  # all mass, or all but a sliver, unseen
            row[:] = 0.0
            row[unseen[int(rng.integers(0, len(unseen)))]] = 1.0 - 1e-9
            row[seen[0] if seen and rng.random() < 0.5 else unseen[0]] += 1e-9
        elif rng.random() < 0.2:
            row[rng.random(source_vocab) < 0.5] = 0.0
            row[int(rng.integers(0, source_vocab))] += max(0.0, 1.0 - row.sum())
    fallback = rng.dirichlet(np.ones(pivot_vocab), size=p_len)
    vocab_map = "argmax" if rng.random() < 0.5 else "proportional"
    return spans, counts, pivot_ids, source_ids, pivot_vocab, source_vocab, src, fallback, vocab_map


def projection_features(segments, counts, pivot_ids, source_ids, fallback, want, vocab_map):
    """The cases a projection case reaches, by name."""
    reached = {seg.kind for seg in segments}
    if not counts:
        reached.add("empty counts")
    for seg in segments:
        p0, p1 = seg.pivot_span
        s0, s1 = seg.source_span
        if seg.kind == ONE_MANY:
            tied = [counts.get((pivot_ids[p0], source_ids[j]), 0) for j in range(s0, s1)]
            if tied.count(max(tied)) > 1:
                reached.add("one_many count tie")
        if seg.kind == MANY_ONE and any(counts.get((pivot_ids[p], source_ids[s0]), 0) > 1
                                        for p in range(p0, p1)):
            reached.add("many_one weight above 1")
        if seg.kind != MANY_MANY and any(want[p].tobytes() == fallback[p].tobytes()
                                         for p in range(p0, p1)):
            reached.add("mass floor fallback")
    column_max = {}
    for (p, s), c in counts.items():
        column_max.setdefault(s, []).append(c)
    if vocab_map == "argmax" and any(cs.count(max(cs)) > 1 for cs in column_max.values()):
        reached.add("argmax count tie")
    return reached


def test_projection_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    reached = set()
    for _ in range(2000):
        case = random_projection_case(rng)
        spans, counts, pivot_ids, source_ids, pv, sv, src, fallback, vocab_map = case
        pivot = TokenSeq(ids=pivot_ids, surfaces=["p"] * len(pivot_ids))
        source = TokenSeq(ids=source_ids, surfaces=["s"] * len(source_ids))
        segments = [AlignmentSegment((p0, p1), (s0, s1)) for p0, p1, s0, s1 in spans]
        projected = project_distribution(
            DistributionMatrix(src), segments, AlignStats(pv, sv, dict(counts)), pivot, source,
            DistributionMatrix(fallback), vocab_map=vocab_map)
        want = ref_project_distribution(src, spans, counts, pivot_ids, source_ids, pv, sv,
                                        fallback, vocab_map)
        assert projected.rows.tobytes() == want.tobytes(), case
        assert projected.rows.strides == want.strides
        reached |= projection_features(segments, counts, pivot_ids, source_ids, fallback, want,
                                       vocab_map)
    assert reached == set(KINDS) | {
        "empty counts", "one_many count tie", "argmax count tie", "many_one weight above 1",
        "mass floor fallback"}


def transfer_stats_in_alignment_order(tmp_path):
    rng = np.random.default_rng(7)
    stats = AlignStats(len(ALPHABET), len(ALPHABET))
    for _ in range(10):
        pivot, source = random_seq(rng, 8), random_seq(rng, 8)
        update_stats(stats, align_sequences(pivot, source), pivot, source)
    assert list(stats.counts) != sorted(stats.counts)
    return stats


def transfer_stats_from_a_file(tmp_path):
    """fuse-many's sizes: 20000 distinct pairs over 512 x 640, in shuffled lines."""
    rng = np.random.default_rng(8)
    cells = rng.choice(512 * 640, size=20000, replace=False)
    counts = rng.integers(1, 51, size=cells.size)
    path = tmp_path / "stats.jsonl"
    path.write_text("".join(json.dumps({"p": int(cell) // 640, "s": int(cell) % 640, "c": int(c)})
                            + "\n" for cell, c in zip(cells, counts)))
    stats = load_stats(path, 512, 640)
    assert len(stats.counts) == 20000
    return stats


def transfer_stats_with_argmax_ties(tmp_path):
    counts = {(3, 0): 5, (1, 0): 5, (2, 0): 1, (2, 2): 2, (0, 2): 2, (1, 1): 4}
    return AlignStats(4, 3, counts)


TRANSFER_CASES = {
    "alignment-order": transfer_stats_in_alignment_order,
    "stats-file-20000": transfer_stats_from_a_file,
    "empty": lambda tmp_path: AlignStats(3, 4),
    "single-pair": lambda tmp_path: AlignStats(3, 4, {(2, 1): 7}),
    "argmax-ties": transfer_stats_with_argmax_ties,
}


@pytest.mark.parametrize("vocab_map", ["proportional", "argmax"])
@pytest.mark.parametrize("case", list(TRANSFER_CASES))
def test_transfer_matrix_matches_reference_byte_for_byte(tmp_path, case, vocab_map):
    stats = TRANSFER_CASES[case](tmp_path)
    got = _transfer_matrix(stats, vocab_map)
    want = ref_transfer_matrix(stats.counts, stats.pivot_vocab_size, stats.source_vocab_size,
                               vocab_map)
    assert got.format == want.format == "csr"
    assert got.shape == want.shape == (stats.pivot_vocab_size, stats.source_vocab_size)
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes()), name


def test_projection_shape_mismatches():
    src, segments, stats, tokens, fallback = identity_setup(vocab=4, n=3)
    short_fallback = DistributionMatrix(np.full((2, 4), 0.25))
    with pytest.raises(ShapeMismatch):
        project_distribution(src, segments, stats, tokens, tokens, short_fallback)
    wrong_vocab = DistributionMatrix(np.full((3, 5), 0.2))
    with pytest.raises(ShapeMismatch):
        project_distribution(wrong_vocab, segments, stats, tokens, tokens, fallback)
    bad_segments = [AlignmentSegment((0, 3), (0, 3))]
    with pytest.raises(ShapeMismatch):
        project_distribution(
            src, bad_segments[:1] + bad_segments, stats, tokens, tokens, fallback
        )


# --- persistence ----------------------------------------------------------------

def test_token_seq_jsonl_round_trip(tmp_path):
    seqs = [seq(["ab", "b"]), seq(["ca"])]
    path = tmp_path / "tokens.jsonl"
    path.write_text("".join(
        json.dumps({"ids": s.ids, "surfaces": s.surfaces}) + "\n" for s in seqs
    ))
    loaded, vocab_size = load_token_seqs(path, vocab_size=len(ALPHABET))
    assert vocab_size == len(ALPHABET)
    assert [s.ids for s in loaded] == [s.ids for s in seqs]
    assert [s.surfaces for s in loaded] == [s.surfaces for s in seqs]


def test_token_seq_jsonl_infers_vocab(tmp_path):
    path = tmp_path / "tokens.jsonl"
    path.write_text('{"ids": [0, 4], "surfaces": ["a", "b"]}\n')
    loaded, vocab_size = load_token_seqs(path)
    assert vocab_size == 5 and loaded[0].ids == [0, 4]


@pytest.mark.parametrize("vocab_size", [None, len(ALPHABET)], ids=["inferred", "given"])
def test_token_seq_jsonl_checks_each_line_once(tmp_path, monkeypatch, vocab_size):
    calls = []

    def counting_want_ints(obj, key, *args, **kwargs):
        calls.append(list(obj[key]))
        return want_ints(obj, key, *args, **kwargs)

    monkeypatch.setattr("umm.token_align.want_ints", counting_want_ints)
    lines = [{"ids": [0, 2], "surfaces": ["a", "b"]}, {"ids": [1], "surfaces": ["c"]},
             {"ids": [], "surfaces": []}]
    path = tmp_path / "tokens.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    loaded, size = load_token_seqs(path, vocab_size=vocab_size)
    assert calls == [line["ids"] for line in lines]
    assert len(loaded) == 3 and size == 3


def test_token_seq_jsonl_negative_id_names_the_line(tmp_path):
    path = tmp_path / "tokens.jsonl"
    path.write_text('{"ids": [0], "surfaces": ["a"]}\n{"ids": [-1], "surfaces": ["b"]}\n')
    with pytest.raises(OutOfVocab, match=f"{re.escape(str(path))}:2: token id -1"):
        load_token_seqs(path)


def test_token_seq_jsonl_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ids": [0]}\n')
    with pytest.raises(MalformedInput):
        load_token_seqs(path)
    path.write_text("not json\n")
    with pytest.raises(IoFailure):
        load_token_seqs(path)


def test_token_seq_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptySequence):
        load_token_seqs(path)


def test_stats_jsonl_round_trip(tmp_path):
    stats = AlignStats(4, 4, {(0, 1): 3, (2, 2): 1, (1, 3): 2**53})
    path = tmp_path / "stats.jsonl"
    save_stats(stats, path)
    assert path.read_text() == "".join(json.dumps({"p": p, "s": s, "c": c}) + "\n"
                                       for (p, s), c in sorted(stats.counts.items()))
    loaded = load_stats(path, 4, 4)
    assert loaded.counts == stats.counts
    assert load_stats(path).pivot_vocab_size == 3


def test_stats_jsonl_accumulates_duplicates(tmp_path):
    path = tmp_path / "stats.jsonl"
    path.write_text('{"p": 0, "s": 0, "c": 2}\n{"p": 0, "s": 0, "c": 3}\n')
    assert load_stats(path).counts == {(0, 0): 5}


def test_stats_jsonl_malformed(tmp_path):
    path = tmp_path / "stats.jsonl"
    path.write_text('{"p": 0}\n')
    with pytest.raises(MalformedInput):
        load_stats(path)


@pytest.mark.parametrize("line", [
    {"p": 1.9, "s": 0, "c": 2.7},
    {"p": 1, "s": 0, "c": 2.0},
    {"p": True, "s": 0, "c": 1},
    {"p": 0, "s": "1", "c": 1},
    {"p": 0, "s": 1, "c": None},
    {"p": 0, "s": [1], "c": 1},
    {"p": {}, "s": 1, "c": 1},
    [0, 1, 1],
    5,
    {"p": 0, "s": 0, "c": 0},
    {"p": 0, "s": 0, "c": -1},
], ids=["float", "integral-float", "bool", "string", "null", "list", "object", "line-list",
        "line-int", "zero-count", "negative-count"])
def test_stats_jsonl_rejects_non_integers(tmp_path, line):
    path = tmp_path / "stats.jsonl"
    path.write_text('{"p": 0, "s": 0, "c": 1}\n' + json.dumps(line) + "\n")
    with pytest.raises(MalformedInput, match=f"{re.escape(str(path))}:2: bad stats line"):
        load_stats(path)


@pytest.mark.parametrize("line, sizes, message", [
    ({"p": 9, "s": 1, "c": 1}, (2, 2), "pivot id 9 outside [0, 2)"),
    ({"p": 1, "s": 2, "c": 1}, (2, 2), "source id 2 outside [0, 2)"),
    ({"p": -1, "s": 0, "c": 1}, (None, None), "pivot id -1 must be >= 0"),
    ({"p": 0, "s": -3, "c": 1}, (None, 2), "source id -3 must be >= 0"),
], ids=["pivot-too-large", "source-too-large", "pivot-negative", "source-negative"])
def test_stats_jsonl_out_of_vocab_id_names_the_line(tmp_path, line, sizes, message):
    path = tmp_path / "stats.jsonl"
    path.write_text('{"p": 0, "s": 0, "c": 1}\n' + json.dumps(line) + "\n")
    with pytest.raises(OutOfVocab, match=re.escape(f"{path}:2: {message}")):
        load_stats(path, *sizes)


def _same_as_the_line_reader(path, *sizes):
    """load_stats and the one-line-at-a-time oracle give the same sizes and
    counts in the same order, or the same exception type and message."""
    try:
        expected = ref_load_stats(path, *sizes)
    except Exception as exc:  # any error: compared by type and message
        with pytest.raises(type(exc)) as caught:
            load_stats(path, *sizes)
        assert str(caught.value) == str(exc)
        return
    stats = load_stats(path, *sizes)
    assert (stats.pivot_vocab_size, stats.source_vocab_size, list(stats.counts.items())) == \
        (expected[0], expected[1], list(expected[2].items()))


_IDS = st.integers(0, 7)  # few ids, so pairs repeat across lines and blocks
_SAVED_LINE = st.builds(lambda p, s, c: json.dumps({"p": p, "s": s, "c": c}),
                        _IDS, _IDS, st.integers(1, 50))
_OTHER_LINE = st.one_of(  # the same objects spelt otherwise, blank lines, large numbers
    st.builds(lambda p, s, c: json.dumps({"p": p, "s": s, "c": c}), _IDS, _IDS,
              st.sampled_from([2**52, 2**53 - 1, 2**53, 2**53 + 1])),
    st.builds(lambda p, s, c: json.dumps({"c": c, "s": s, "p": p}), _IDS, _IDS, st.integers(1, 50)),
    st.builds(lambda p, s: json.dumps({"p": p, "s": s, "c": 1}, separators=(",", ":")), _IDS, _IDS),
    st.builds(lambda p, s: f' {{ "p" : {p}, "s": {s},  "c": 2 }} ', _IDS, _IDS),
    st.sampled_from(["", "  ", "\t"]),
    st.sampled_from([
        '{"p": -0, "s": 0, "c": 1}', '{"p": 12345678901234567, "s": 0, "c": 1}',
        '{"p": 9999999999999999999, "s": 0, "c": 1}',  # past int64
        '{"p": 0, "s": 0, "c": 1, "\u00e9\u2028": 1}',  # U+2028 ends no JSON-lines line
    ]),
)
_BAD_LINE = st.sampled_from([
    "not json", "[0, 0, 1]", '{"p": 0, "s": 1}', '{"p": -1, "s": 0, "c": 1}',
    '{"p": 0, "s": 0, "c": 0}', '{"p": 0, "s": 0, "c": 1.5}', '{"p": true, "s": 0, "c": 1}',
    '{"p": 01, "s": 0, "c": 1}', '{"p": 1, "s": 2, "c": 3}\x0c',
    "\udcff",  # a byte that is not UTF-8
])
_ENDINGS = st.sampled_from(["\n", "\r\n"])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(saved=st.lists(st.tuples(_SAVED_LINE, _ENDINGS), max_size=60),
       others=st.lists(st.tuples(_OTHER_LINE, _ENDINGS), max_size=6),
       bad=st.lists(st.tuples(_BAD_LINE, _ENDINGS), max_size=1),
       last_ending=st.booleans(), data=st.data(),
       sizes=st.tuples(st.one_of(st.none(), st.integers(1, 8)),
                       st.one_of(st.none(), st.integers(1, 8))))
def test_load_stats_matches_the_line_by_line_reader(tmp_path_factory, saved, others, bad,
                                                    last_ending, data, sizes):
    """Lines as save_stats writes them, with other spellings, blank lines,
    CRLF endings, repeated pairs, counts at and past 2**53 and at most one
    bad line put in at random places, read in blocks of about one line, a
    few lines and the whole file."""
    lines = list(saved)
    for line in others + bad:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    text = "".join(line + ending for line, ending in lines)
    if lines and not last_ending:
        text = text[:-len(lines[-1][1])]
    path = tmp_path_factory.mktemp("stats") / "stats.jsonl"
    path.write_bytes(text.encode("utf-8", errors="surrogateescape"))
    for block_chars in (1, 60, 200, jsonl._BLOCK_CHARS):
        with mock.patch.object(jsonl, "_BLOCK_CHARS", block_chars):
            _same_as_the_line_reader(path, *sizes)


def test_save_stats_lines_are_read_without_a_json_decode(tmp_path, monkeypatch):
    """A 20000-line file save_stats wrote is read with no json.loads; with
    one other spelling in the middle, at most that line's block is decoded."""
    rng = np.random.default_rng(3)
    cells = rng.choice(512 * 640, size=20000, replace=False)
    counts = dict(zip(((int(cell) // 640, int(cell) % 640) for cell in cells),
                      rng.integers(1, 51, size=cells.size).tolist()))
    path = tmp_path / "stats.jsonl"
    save_stats(AlignStats(512, 640, counts), path)
    lines = path.read_text().splitlines(keepends=True)
    odd = lines[:]
    p, s, c = (json.loads(odd[10000])[k] for k in "psc")
    odd[10000] = json.dumps({"c": c, "s": s, "p": p}) + "\n"
    odd_path = tmp_path / "odd.jsonl"
    odd_path.write_text("".join(odd))
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
    stats = load_stats(path, 512, 640)
    assert decoded == []
    assert list(stats.counts.items()) == sorted(counts.items())
    stats = load_stats(odd_path, 512, 640)
    shortest = min(len(line) for line in lines)
    assert odd[10000] in decoded and len(decoded) <= jsonl._BLOCK_CHARS // shortest + 1
    assert list(stats.counts.items()) == sorted(counts.items())


def test_jsonl_reader_counts_blank_lines_and_names_the_bad_one(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n[2]\n')
    assert list(iter_jsonl(path)) == [(1, {"a": 1}), (4, [2])]
    path.write_text('{"p": 0, "s": 0, "c": 1}\n\nnot json\n')
    with pytest.raises(IoFailure, match=f"{re.escape(str(path))}:3: not JSON"):
        load_stats(path)


def test_jsonl_reader_yields_the_lines_before_a_byte_that_is_not_utf8(tmp_path):
    """The bad byte lies blocks past the start of the file, after CRLF lines,
    so lines are read both before and after the decode error."""
    good = [json.dumps({"i": i, "s": "\u00e9" * (i % 7)}, ensure_ascii=False)
            for i in range(2000)]
    path = tmp_path / "rows.jsonl"
    path.write_bytes("\r\n".join(good[:10]).encode() + b"\r\n"
                     + "\n".join(good[10:]).encode() + b'\n{"s": "\xff"}\n[1]\n')
    seen = []
    with pytest.raises(IoFailure, match=f"{re.escape(str(path))}:2001: not UTF-8: byte 0xff"):
        for item in iter_jsonl(path):
            seen.append(item)
    assert seen == [(i + 1, json.loads(line)) for i, line in enumerate(good)]
