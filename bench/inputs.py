"""Seeded input generators for the four benchmark workloads.

Each generator writes the files one ``umm`` command reads into a
directory and returns a manifest: the command line of one pass, the
number of work items a pass finishes, and the workload's sizes.  Sizes
are fixed per workload; the seed changes only values (letters, noise,
coefficients, probability rows), so every seed does the same amount of
work.

The generators use only numpy and their own container writer, never
the ``umm`` package, so a change to the program cannot change its
inputs or the time it takes to build them.

Run as a script to generate one workload:

    python3 bench/inputs.py --workload merge-ties --seed 0 --out DIR

The script prints one JSON line: the seconds generation took, timed
inside the process after its imports, and the seconds the workload's
reference kernel took just before (see reference.py).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from reference import kernel_seconds

WORKLOADS = ("merge-ties", "search-toy", "align-long", "fuse-many")

_TOKENS = {"f32": "F32", "bf16": "BF16"}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def to_bf16_grid(values: np.ndarray) -> np.ndarray:
    """Round float32 values to the nearest bf16 value (ties to even)."""
    bits = values.astype("<f4").view(np.uint32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    return (rounded << np.uint32(16)).view(np.float32)


def write_container(path, tensors: dict, metadata: dict) -> None:
    """Write the umm checkpoint container: u64 header length, canonical
    JSON header (8-byte aligned), then the payloads in name order.

    ``tensors`` maps name -> (float32 array, "f32" or "bf16"); bf16
    arrays must already lie on the bf16 grid.
    """
    header = {}
    payloads = []
    offset = 0
    for name in sorted(tensors):
        arr, tag = tensors[name]
        arr = np.ascontiguousarray(arr, dtype="<f4")
        if tag == "bf16":
            payload = (arr.view("<u4") >> np.uint32(16)).astype("<u2").tobytes()
        else:
            payload = arr.tobytes()
        header[name] = {
            "dtype": _TOKENS[tag],
            "shape": [int(d) for d in arr.shape],
            "data_offsets": [offset, offset + len(payload)],
        }
        offset += len(payload)
        payloads.append(payload)
    header["__metadata__"] = dict(metadata)
    body = json.dumps(header, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode()
    body += b" " * (-(8 + len(body)) % 8)
    with open(path, "wb") as fh:
        fh.write(len(body).to_bytes(8, "little"))
        fh.write(body)
        for payload in payloads:
            fh.write(payload)


# --- merge-ties -----------------------------------------------------------------

MERGE_LAYERS = 4
MERGE_WIDTH = 512
MERGE_VOCAB = 2048
MERGE_EMBED = 256
MERGE_MODELS = 3
MERGE_GROUP_SIZE = 1
MERGE_DENSITIES = (0.2, 0.5, 0.8)


def _merge_shapes() -> dict:
    shapes = {}
    for i in range(MERGE_LAYERS):
        shapes[f"layers.{i}.attn.weight"] = (MERGE_WIDTH, MERGE_WIDTH)
        shapes[f"layers.{i}.mlp.weight"] = (MERGE_WIDTH, MERGE_WIDTH)
        shapes[f"layers.{i}.norm.weight"] = (MERGE_WIDTH,)
    shapes["embed.weight"] = (MERGE_VOCAB, MERGE_EMBED)
    shapes["head.weight"] = (MERGE_VOCAB, MERGE_EMBED)
    return shapes


def gen_merge_ties(seed: int, out: Path) -> dict:
    """One bf16 base and three bf16 fine-tunes whose deltas are Laplace
    noise on the bf16 grid, so many delta magnitudes tie."""
    rng = _rng(seed, "merge-ties")
    shapes = _merge_shapes()
    meta = {"layer_pattern": "layers.{i}.", "num_layers": str(MERGE_LAYERS)}
    base = {
        name: to_bf16_grid(rng.standard_normal(shape, dtype=np.float32) * np.float32(0.02))
        for name, shape in shapes.items()
    }
    write_container(out / "base.st", {n: (a, "bf16") for n, a in base.items()}, meta)
    num_groups = math.ceil(MERGE_LAYERS / MERGE_GROUP_SIZE) + 1
    models = []
    for m in range(MERGE_MODELS):
        tuned = {
            name: to_bf16_grid(arr + rng.laplace(0.0, 5e-4, arr.shape).astype(np.float32))
            for name, arr in base.items()
        }
        write_container(out / f"ft{m}.st", {n: (a, "bf16") for n, a in tuned.items()}, meta)
        weights = rng.uniform(0.2, 1.0, num_groups)
        models.append({
            "source_id": f"ft{m}",
            "path": f"inputs/ft{m}.st",
            "groups": [
                {"weight": float(weights[g]),
                 "density": MERGE_DENSITIES[(m + g) % len(MERGE_DENSITIES)]}
                for g in range(num_groups)
            ],
        })
    recipe = {"method": "ties", "group_size": MERGE_GROUP_SIZE, "lambda_scale": 1.0,
              "models": models}
    (out / "recipe.json").write_text(json.dumps(recipe, indent=2) + "\n")
    params = sum(math.prod(s) for s in shapes.values())
    return {
        "argv": ["merge", "--base", "inputs/base.st", "--recipe", "inputs/recipe.json",
                 "--out", "out/merged.st"],
        "items": params * MERGE_MODELS,
        "sizes": {"tensors": len(shapes), "base_params": params, "models": MERGE_MODELS,
                  "groups": num_groups},
        "shapes": {name: list(shape) for name, shape in shapes.items()},
    }


# --- search-toy -----------------------------------------------------------------

TOY_WIDTHS = (1, 16, 16, 16, 16, 16, 1)
TOY_TARGETS = (("sin", 2.5), ("cos", 1.5))
TOY_TRAIN_STEPS = 400
SEARCH_GROUP_SIZE = 2
SEARCH_ITERATIONS = 25
SEARCH_POP = 12


def _train_toy(weights: list, biases: list, xs: np.ndarray, ys: np.ndarray,
               steps: int, lr: float = 0.01) -> tuple:
    """Full-batch Adam on mean squared error of a tanh MLP (float64)."""
    weights = [w.copy() for w in weights]
    biases = [b.copy() for b in biases]
    params = weights + biases
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    x = xs.reshape(-1, 1)
    last = len(weights) - 1
    for step in range(1, steps + 1):
        acts = [x]
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = acts[-1] @ w.T + b
            acts.append(z if i == last else np.tanh(z))
        delta = (2.0 / len(xs)) * (acts[-1][:, 0] - ys).reshape(-1, 1)
        grads_w, grads_b = [None] * len(weights), [None] * len(biases)
        for i in range(last, -1, -1):
            grads_w[i] = delta.T @ acts[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i]) * (1.0 - acts[i] ** 2)
        for p, g, (m, v) in zip(params, grads_w + grads_b, moments):
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g * g
            p -= lr * (m / (1 - 0.9**step)) / (np.sqrt(v / (1 - 0.999**step)) + 1e-8)
    return weights, biases


def _toy_container(weights: list, biases: list) -> dict:
    tensors = {}
    for i, (w, b) in enumerate(zip(weights, biases)):
        tensors[f"layers.{i}.weight"] = (w.astype(np.float32), "f32")
        tensors[f"layers.{i}.bias"] = (b.astype(np.float32), "f32")
    return tensors


def gen_search_toy(seed: int, out: Path) -> dict:
    """A random tanh-MLP base and two fine-tunes of it, one trained on
    each toy-regression target, plus a TIES search config over them."""
    rng = _rng(seed, "search-toy")
    n_layers = len(TOY_WIDTHS) - 1
    weights = [rng.standard_normal((TOY_WIDTHS[i + 1], TOY_WIDTHS[i])) * np.sqrt(1.0 / TOY_WIDTHS[i])
               for i in range(n_layers)]
    biases = [np.zeros(TOY_WIDTHS[i + 1]) for i in range(n_layers)]
    meta = {"layer_pattern": "layers.{i}.", "num_layers": str(n_layers)}
    write_container(out / "base.st", _toy_container(weights, biases), meta)
    xs = np.linspace(-2.0, 2.0, 64)
    models = []
    for kind, freq in TOY_TARGETS:
        ys = np.sin(freq * xs) if kind == "sin" else np.cos(freq * xs)
        tw, tb = _train_toy(weights, biases, xs, ys, TOY_TRAIN_STEPS)
        write_container(out / f"{kind}.st", _toy_container(tw, tb), meta)
        models.append({"source_id": kind, "path": f"inputs/{kind}.st"})
    config = {
        "method": "ties",
        "group_size": SEARCH_GROUP_SIZE,
        "base_path": "inputs/base.st",
        "models": models,
        "evaluator": {"builtin": "toy-regression", "targets": [list(t) for t in TOY_TARGETS]},
        "iterations": SEARCH_ITERATIONS,
        "pop_size": SEARCH_POP,
        "seed": int(rng.integers(0, 2**31)),
        "threads": 1,
    }
    (out / "search.json").write_text(json.dumps(config, indent=2) + "\n")
    evaluations = 1 + SEARCH_ITERATIONS * SEARCH_POP
    return {
        "argv": ["search", "--config", "inputs/search.json", "--out", "out"],
        "items": evaluations,
        "sizes": {"models": len(models), "generations": SEARCH_ITERATIONS,
                  "pop_size": SEARCH_POP, "evaluations": evaluations,
                  "params": sum(w.size + b.size for w, b in zip(weights, biases))},
    }


# --- token pairs shared by align-long and fuse-many --------------------------------

LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
PIVOT_MARKER, SOURCE_MARKER = "▁", "Ġ"  # SentencePiece and byte-BPE word starts
LEXICON_PER_LENGTH = 12


def _lexicon(rng, lengths) -> dict:
    return {
        length: ["".join(rng.choice(LETTERS, size=length)) for _ in range(LEXICON_PER_LENGTH)]
        for length in sorted(set(lengths))
    }


def _split(word: str, first: int, rest: int, marker: str) -> list:
    """Word start piece of ``first`` chars (marked), then ``rest``-char pieces."""
    pieces = [marker + word[:first]]
    pieces += [word[i:i + rest] for i in range(first, len(word), rest)]
    return pieces


def _tokenize_pair(rng, lexicon: dict, lengths: list) -> tuple:
    """One text as pivot pieces (3-char chunks, ``▁``) and source pieces
    (2 chars then 4-char chunks, ``Ġ``).  The word-length multiset is
    fixed and only its order and letters vary, so piece counts are fixed."""
    order = rng.permutation(lengths)
    words = [lexicon[int(n)][int(rng.integers(LEXICON_PER_LENGTH))] for n in order]
    pivot = [p for w in words for p in _split(w, 3, 3, PIVOT_MARKER)]
    source = [p for w in words for p in _split(w, 2, 4, SOURCE_MARKER)]
    return pivot, source


def _vocab(rng, pieces: set, size: int) -> dict:
    if len(pieces) > size:
        raise ValueError(f"{len(pieces)} distinct pieces exceed vocab {size}")
    ids = rng.permutation(size)[:len(pieces)]
    return {piece: int(i) for piece, i in zip(sorted(pieces), ids)}


def _token_obj(pieces: list, vocab: dict) -> dict:
    return {"ids": [vocab[p] for p in pieces], "surfaces": pieces}


# --- align-long -------------------------------------------------------------------

ALIGN_PAIRS = 2
ALIGN_WORD_LENGTHS = list(range(2, 10)) * 34  # 578 pivot and 612 source tokens
ALIGN_VOCAB = 1024


def gen_align_long(seed: int, out: Path) -> dict:
    """Long paired responses split by two different tokenizer rules."""
    rng = _rng(seed, "align-long")
    lexicon = _lexicon(rng, ALIGN_WORD_LENGTHS)
    pairs = [_tokenize_pair(rng, lexicon, ALIGN_WORD_LENGTHS) for _ in range(ALIGN_PAIRS)]
    pivot_vocab = _vocab(rng, {p for pv, _ in pairs for p in pv}, ALIGN_VOCAB)
    source_vocab = _vocab(rng, {s for _, sv in pairs for s in sv}, ALIGN_VOCAB)
    with open(out / "pivot.jsonl", "w", encoding="utf-8") as pf, \
            open(out / "source.jsonl", "w", encoding="utf-8") as sf:
        for pivot, source in pairs:
            pf.write(json.dumps(_token_obj(pivot, pivot_vocab)) + "\n")
            sf.write(json.dumps(_token_obj(source, source_vocab)) + "\n")
    pivot_len, source_len = len(pairs[0][0]), len(pairs[0][1])
    return {
        "argv": ["align-stats", "--pivot", "inputs/pivot.jsonl", "--source", "inputs/source.jsonl",
                 "--pivot-vocab", str(ALIGN_VOCAB), "--source-vocab", str(ALIGN_VOCAB),
                 "--out", "out/stats.jsonl"],
        "items": ALIGN_PAIRS * pivot_len,
        "sizes": {"pairs": ALIGN_PAIRS, "pivot_tokens": pivot_len, "source_tokens": source_len,
                  "dp_cells": ALIGN_PAIRS * (pivot_len + 1) * (source_len + 1)},
    }


# --- fuse-many --------------------------------------------------------------------

FUSE_EXAMPLES = 50
FUSE_WORD_LENGTHS = list(range(2, 10)) + [5, 7, 9]  # 25 pivot and 26 source tokens
FUSE_PIVOT_VOCAB = 512
FUSE_SOURCE_VOCAB = 640
FUSE_STATS_PAIRS = 20000
FUSE_INSTRUCTION = 6
# dyadic top-4 mass: sums to exactly 1.0 in binary floating point
TOP4 = (0.5, 0.25, 0.125, 0.125)


def _rows(rng, length: int, vocab: int, gold=None) -> list:
    """Dense probability rows with four non-zero dyadic entries each.

    When ``gold`` is given, a per-example share of the rows (up to half)
    puts mass on the gold id, so either candidate can win the fusion.
    """
    rows = np.zeros((length, vocab))
    gold_share = rng.uniform(0.0, 0.5)
    for r in range(length):
        picks = rng.choice(vocab, size=4, replace=False)
        if gold is not None and rng.random() < gold_share and gold[r] not in picks:
            picks[0] = gold[r]
        rows[r, picks] = rng.permutation(TOP4)
    return rows.tolist()


def gen_fuse_many(seed: int, out: Path) -> dict:
    """Many short examples with dense rows plus a synthetic stats file."""
    rng = _rng(seed, "fuse-many")
    lexicon = _lexicon(rng, FUSE_WORD_LENGTHS)
    pairs = [_tokenize_pair(rng, lexicon, FUSE_WORD_LENGTHS) for _ in range(FUSE_EXAMPLES)]
    pivot_vocab = _vocab(rng, {p for pv, _ in pairs for p in pv}, FUSE_PIVOT_VOCAB)
    source_vocab = _vocab(rng, {s for _, sv in pairs for s in sv}, FUSE_SOURCE_VOCAB)
    with open(out / "examples.jsonl", "w", encoding="utf-8") as fh:
        for pivot, source in pairs:
            p_obj = _token_obj(pivot, pivot_vocab)
            obj = {
                "instruction": [int(t) for t in rng.integers(0, FUSE_PIVOT_VOCAB, FUSE_INSTRUCTION)],
                "pivot": p_obj,
                "source": _token_obj(source, source_vocab),
                "pivot_rows": _rows(rng, len(pivot), FUSE_PIVOT_VOCAB, gold=p_obj["ids"]),
                "source_rows": _rows(rng, len(source), FUSE_SOURCE_VOCAB),
            }
            fh.write(json.dumps(obj) + "\n")
    cells = rng.choice(FUSE_PIVOT_VOCAB * FUSE_SOURCE_VOCAB, size=FUSE_STATS_PAIRS, replace=False)
    counts = rng.integers(1, 51, FUSE_STATS_PAIRS)
    with open(out / "stats.jsonl", "w", encoding="utf-8") as fh:
        for cell, count in sorted(zip(cells.tolist(), counts.tolist())):
            p, s = divmod(cell, FUSE_SOURCE_VOCAB)
            fh.write(json.dumps({"p": p, "s": s, "c": count}) + "\n")
    return {
        "argv": ["fuse-targets", "--examples", "inputs/examples.jsonl",
                 "--stats", "inputs/stats.jsonl",
                 "--pivot-vocab", str(FUSE_PIVOT_VOCAB), "--source-vocab", str(FUSE_SOURCE_VOCAB),
                 "--out-dir", "out/fused"],
        "items": FUSE_EXAMPLES,
        "sizes": {"examples": FUSE_EXAMPLES, "pivot_tokens": len(pairs[0][0]),
                  "source_tokens": len(pairs[0][1]), "stats_pairs": FUSE_STATS_PAIRS,
                  "pivot_vocab": FUSE_PIVOT_VOCAB, "source_vocab": FUSE_SOURCE_VOCAB},
    }


GENERATORS = {
    "merge-ties": gen_merge_ties,
    "search-toy": gen_search_toy,
    "align-long": gen_align_long,
    "fuse-many": gen_fuse_many,
}


def generate(workload: str, seed: int, out) -> dict:
    """Write ``workload``'s inputs for ``seed`` into ``out`` (created) and
    save the manifest next to them as manifest.json."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": int(seed), **GENERATORS[workload](int(seed), out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    ref_s = kernel_seconds(args.workload)
    start = time.perf_counter()
    generate(args.workload, args.seed, args.out)
    print(json.dumps({"generate_s": time.perf_counter() - start, "ref_s": ref_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
