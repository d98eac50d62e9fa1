import json
import re
import tracemalloc

import numpy as np
import pytest

from umm.distro_fusion import DistributionMatrix, token_ids
from umm.errors import (
    EmptySequence,
    IoFailure,
    LengthMismatch,
    OutOfVocab,
    ShapeMismatch,
)
from umm.jsonl import iter_jsonl
from umm.token_align import (
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
    update_stats,
    _segment_moves,
)

from reference_impls import ref_align_moves, ref_min_alignment_cost, ref_surface_distance

# every surface pair costs a multiple of 1/2, so alignment costs are
# exact binary fractions and optimality can be compared with tolerance 0
ALPHABET = ("ab", "b", "ca")


def seq(surfaces, vocab_size=None, ids=None):
    if ids is None:
        ids = [ALPHABET.index(s) if s in ALPHABET else 0 for s in surfaces]
    if vocab_size is None:
        vocab_size = max(ids, default=0) + 1
    return TokenSeq(ids=ids, surfaces=list(surfaces), vocab_size=vocab_size)


def random_seq(rng, length):
    ids = [int(rng.integers(0, len(ALPHABET))) for _ in range(length)]
    return TokenSeq(ids=ids, surfaces=[ALPHABET[i] for i in ids], vocab_size=len(ALPHABET))


# --- domain types -----------------------------------------------------------

def test_token_seq_length_mismatch():
    with pytest.raises(LengthMismatch):
        TokenSeq(ids=[1, 2], surfaces=["a"], vocab_size=3)


def test_token_seq_id_out_of_vocab():
    with pytest.raises(OutOfVocab):
        TokenSeq(ids=[3], surfaces=["a"], vocab_size=3)
    with pytest.raises(OutOfVocab):
        TokenSeq(ids=[-1], surfaces=["a"], vocab_size=3)


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
    pivot = TokenSeq(ids=[0, 1], surfaces=["hel", "lo"], vocab_size=2)
    source = TokenSeq(ids=[0], surfaces=["hello"], vocab_size=1)
    segments = align_sequences(pivot, source)
    assert len(segments) == 1
    assert segments[0].pivot_span == (0, 2)
    assert segments[0].source_span == (0, 1)
    assert segments[0].kind == "many_one"


def test_unsynchronized_boundaries_become_many_many():
    pivot = TokenSeq(ids=[0, 1, 2], surfaces=["A", "BC", "D"], vocab_size=3)
    source = TokenSeq(ids=[0, 1], surfaces=["AB", "CD"], vocab_size=2)
    segments = align_sequences(pivot, source)
    assert len(segments) == 1
    assert segments[0].pivot_span == (0, 3)
    assert segments[0].source_span == (0, 2)
    assert segments[0].kind == "many_many"


def test_align_empty_raises():
    empty = TokenSeq(ids=[], surfaces=[], vocab_size=1)
    full = seq(["ab"])
    with pytest.raises(EmptySequence):
        align_sequences(empty, full)
    with pytest.raises(EmptySequence):
        align_sequences(full, empty)


def test_markers_change_costs():
    pivot = TokenSeq(ids=[0], surfaces=["▁hello"], vocab_size=1)
    source = TokenSeq(ids=[0], surfaces=["hello"], vocab_size=1)
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
    pivot = TokenSeq(list(range(len(pivot_surfaces))), pivot_surfaces, len(pivot_surfaces))
    source = TokenSeq(list(range(len(source_surfaces))), source_surfaces, len(source_surfaces))
    norm = SurfaceNormalizer()
    moves, cost = ref_align_moves([norm.normalize(s) for s in pivot_surfaces],
                                  [norm.normalize(s) for s in source_surfaces])
    assert align_sequences(pivot, source) == _segment_moves(moves)
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


def test_substitution_costs_working_set_is_bounded(rng):
    letters = list("abcdefghijklmnop")
    n = 1500

    def surfaces():
        return ["".join(rng.choice(letters, size=int(rng.integers(12, 17)))) for _ in range(n)]

    pivot = TokenSeq(list(range(n)), surfaces(), n)
    source = TokenSeq(list(range(n)), surfaces(), n)
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


def test_kind_histogram():
    tokens = seq(["ab", "b"])
    histogram = kind_histogram(align_sequences(tokens, tokens))
    assert histogram == {"one_one": 2, "one_many": 0, "many_one": 0, "many_many": 0}


# --- statistics ---------------------------------------------------------------

def test_update_stats_one_one():
    pivot = TokenSeq(ids=[7], surfaces=["x"], vocab_size=8)
    source = TokenSeq(ids=[3], surfaces=["x"], vocab_size=4)
    stats = AlignStats(8, 4)
    segments = [AlignmentSegment((0, 1), (0, 1))]
    update_stats(stats, segments, pivot, source)
    assert stats.counts == {(7, 3): 1}


def test_update_stats_one_many_cross_product():
    pivot = TokenSeq(ids=[7], surfaces=["xy"], vocab_size=8)
    source = TokenSeq(ids=[3, 9], surfaces=["x", "y"], vocab_size=10)
    stats = AlignStats(8, 10)
    segments = [AlignmentSegment((0, 1), (0, 2))]
    update_stats(stats, segments, pivot, source)
    assert stats.counts == {(7, 3): 1, (7, 9): 1}


def test_update_stats_many_many_skipped():
    pivot = TokenSeq(ids=[0, 1], surfaces=["a", "b"], vocab_size=2)
    source = TokenSeq(ids=[0, 1], surfaces=["c", "d"], vocab_size=2)
    stats = AlignStats(2, 2)
    segments = [AlignmentSegment((0, 2), (0, 2))]
    update_stats(stats, segments, pivot, source)
    assert stats.counts == {}


def test_update_stats_repeated_ids_accumulate():
    pivot = TokenSeq(ids=[5, 5], surfaces=["a", "a"], vocab_size=6)
    source = TokenSeq(ids=[2], surfaces=["aa"], vocab_size=3)
    stats = AlignStats(6, 3)
    update_stats(stats, [AlignmentSegment((0, 2), (0, 1))], pivot, source)
    assert stats.counts == {(5, 2): 2}


def test_update_stats_vocab_mismatch():
    pivot = TokenSeq(ids=[0], surfaces=["a"], vocab_size=1)
    source = TokenSeq(ids=[0], surfaces=["a"], vocab_size=1)
    with pytest.raises(ShapeMismatch):
        update_stats(AlignStats(2, 1), [], pivot, source)


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


def test_stats_validation():
    with pytest.raises(ValueError):
        AlignStats(2, 2, {(0, 0): 0})
    with pytest.raises(OutOfVocab):
        AlignStats(2, 2, {(2, 0): 1})
    with pytest.raises(OutOfVocab):
        AlignStats(2, 2, {(0, 5): 1})


# --- projection ----------------------------------------------------------------

def identity_setup(vocab, n):
    rng = np.random.default_rng(99)
    rows = rng.dirichlet(np.ones(vocab), size=n)
    ids = [int(rng.integers(0, vocab)) for _ in range(n)]
    surfaces = [f"t{i}" for i in ids]
    tokens = TokenSeq(ids=ids, surfaces=surfaces, vocab_size=vocab)
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
    pivot = TokenSeq(ids=[0], surfaces=["x"], vocab_size=2)
    source = TokenSeq(ids=[0], surfaces=["a"], vocab_size=2)
    src = DistributionMatrix(np.array([[0.8, 0.2]]))
    fallback = DistributionMatrix(np.array([[0.5, 0.5]]))
    segments = [AlignmentSegment((0, 1), (0, 1))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    np.testing.assert_allclose(projected.rows[0], [0.6, 0.4], atol=1e-12)


def test_projection_zero_mass_falls_back():
    # all of the source row's mass sits on token 1, which has no counts
    stats = AlignStats(2, 2, {(0, 0): 4})
    pivot = TokenSeq(ids=[0], surfaces=["x"], vocab_size=2)
    source = TokenSeq(ids=[1], surfaces=["q"], vocab_size=2)
    src = DistributionMatrix(np.array([[0.0, 1.0]]))
    fallback = DistributionMatrix(np.array([[0.25, 0.75]]))
    segments = [AlignmentSegment((0, 1), (0, 1))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    np.testing.assert_array_equal(projected.rows[0], [0.25, 0.75])


def test_projection_many_many_falls_back():
    stats = AlignStats(3, 3, {(v, v): 1 for v in range(3)})
    pivot = TokenSeq(ids=[0, 1], surfaces=["a", "b"], vocab_size=3)
    source = TokenSeq(ids=[1, 2], surfaces=["c", "d"], vocab_size=3)
    src = DistributionMatrix(np.full((2, 3), 1.0 / 3))
    fallback = DistributionMatrix(np.array([[0.6, 0.2, 0.2], [0.1, 0.1, 0.8]]))
    segments = [AlignmentSegment((0, 2), (0, 2))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    np.testing.assert_array_equal(projected.rows, fallback.rows)


def test_projection_one_many_picks_max_frequency_row():
    # pivot token 0 pairs with source token 2 most often
    stats = AlignStats(1, 3, {(0, 1): 1, (0, 2): 5})
    pivot = TokenSeq(ids=[0], surfaces=["xy"], vocab_size=1)
    source = TokenSeq(ids=[1, 2], surfaces=["x", "y"], vocab_size=3)
    src = DistributionMatrix(np.array([[0.9, 0.05, 0.05], [0.1, 0.2, 0.7]]))
    fallback = DistributionMatrix(np.array([[1.0]]))
    segments = [AlignmentSegment((0, 1), (0, 2))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    # row 1 chosen; all its counted mass collapses onto the only pivot token
    assert projected.rows[0] == pytest.approx([1.0])


def test_projection_one_many_tie_prefers_leftmost():
    stats = AlignStats(2, 2, {(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1})
    pivot = TokenSeq(ids=[0], surfaces=["xy"], vocab_size=2)
    source = TokenSeq(ids=[0, 1], surfaces=["x", "y"], vocab_size=2)
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
    pivot = TokenSeq(ids=[0, 1], surfaces=["he", "llo"], vocab_size=2)
    source = TokenSeq(ids=[0], surfaces=["hello"], vocab_size=2)
    src = DistributionMatrix(np.array([[0.3, 0.7]]))
    fallback = DistributionMatrix(np.full((2, 2), 0.5))
    segments = [AlignmentSegment((0, 2), (0, 1))]
    projected = project_distribution(src, segments, stats, pivot, source, fallback)
    # uniform counts spread each source token's mass evenly over both
    # pivot tokens, so both positions land on (0.5, 0.5)
    np.testing.assert_allclose(projected.rows, np.full((2, 2), 0.5), atol=1e-12)


def test_projection_argmax_mode_concentrates_mass():
    stats = AlignStats(2, 2, {(0, 0): 3, (1, 0): 1, (1, 1): 2})
    pivot = TokenSeq(ids=[0], surfaces=["x"], vocab_size=2)
    source = TokenSeq(ids=[0], surfaces=["a"], vocab_size=2)
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
    loaded = load_token_seqs(path, vocab_size=len(ALPHABET))
    assert [s.ids for s in loaded] == [s.ids for s in seqs]
    assert [s.surfaces for s in loaded] == [s.surfaces for s in seqs]


def test_token_seq_jsonl_infers_vocab(tmp_path):
    path = tmp_path / "tokens.jsonl"
    path.write_text('{"ids": [0, 4], "surfaces": ["a", "b"]}\n')
    loaded = load_token_seqs(path)
    assert loaded[0].vocab_size == 5


@pytest.mark.parametrize("vocab_size", [None, len(ALPHABET)], ids=["inferred", "given"])
def test_token_seq_jsonl_checks_each_line_once(tmp_path, monkeypatch, vocab_size):
    calls = []

    def counting_token_ids(values, what):
        calls.append(list(values))
        return token_ids(values, what)

    monkeypatch.setattr("umm.token_align.token_ids", counting_token_ids)
    lines = [{"ids": [0, 2], "surfaces": ["a", "b"]}, {"ids": [1], "surfaces": ["c"]},
             {"ids": [], "surfaces": []}]
    path = tmp_path / "tokens.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    loaded = load_token_seqs(path, vocab_size=vocab_size)
    assert calls == [line["ids"] for line in lines]
    assert [seq.vocab_size for seq in loaded] == [3] * 3


def test_token_seq_jsonl_negative_id_names_the_line(tmp_path):
    path = tmp_path / "tokens.jsonl"
    path.write_text('{"ids": [0], "surfaces": ["a"]}\n{"ids": [-1], "surfaces": ["b"]}\n')
    with pytest.raises(OutOfVocab, match=f"{re.escape(str(path))}:2: token id -1"):
        load_token_seqs(path)


def test_token_seq_jsonl_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ids": [0]}\n')
    with pytest.raises(IoFailure):
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
    stats = AlignStats(4, 4, {(0, 1): 3, (2, 2): 1})
    path = tmp_path / "stats.jsonl"
    save_stats(stats, path)
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
    with pytest.raises(IoFailure):
        load_stats(path)


@pytest.mark.parametrize("line", [
    {"p": 1.9, "s": 0, "c": 2.7},
    {"p": 1, "s": 0, "c": 2.0},
    {"p": True, "s": 0, "c": 1},
    {"p": 0, "s": "1", "c": 1},
    {"p": 0, "s": 1, "c": None},
], ids=["float", "integral-float", "bool", "string", "null"])
def test_stats_jsonl_rejects_non_integers(tmp_path, line):
    path = tmp_path / "stats.jsonl"
    path.write_text('{"p": 0, "s": 0, "c": 1}\n' + json.dumps(line) + "\n")
    with pytest.raises(IoFailure, match=f"{re.escape(str(path))}:2: bad stats line"):
        load_stats(path)


def test_jsonl_reader_counts_blank_lines_and_names_the_bad_one(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n[2]\n')
    assert list(iter_jsonl(path)) == [(1, {"a": 1}), (4, [2])]
    path.write_text('{"p": 0, "s": 0, "c": 1}\n\nnot json\n')
    with pytest.raises(IoFailure, match=f"{re.escape(str(path))}:3: not JSON"):
        load_stats(path)
