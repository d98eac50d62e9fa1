"""Command-line surface: merge, search, align, fuse, train, inspect.

Machine-readable JSON goes to stdout, human logs to stderr.  Exit codes
are 0 for success, 1 for any domain error, and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import sys
from pathlib import Path

from umm.distro_fusion import (
    DistributionMatrix,
    FusionExample,
    init_toy_model,
    load_fusion_corpus,
    mince_fuse,
    save_distribution,
    save_toy_model,
    toy_train,
)
from umm.errors import IoFailure, LengthMismatch, UmmError, located
from umm.evo_search import config_from_json_obj, run_search
from umm.jsonl import iter_jsonl, want_ints, want_list, want_object
from umm.merge_core import (
    compute_task_vector,
    expand_schedule,
    load_recipe,
    merge,
)
from umm.tensor_store import CheckpointReader, load_checkpoint, save_checkpoint, tensor_summary
from umm.token_align import (
    DEFAULT_MARKERS,
    AlignStats,
    SurfaceNormalizer,
    align_sequences,
    kind_histogram,
    load_stats,
    load_token_seqs,
    project_distribution,
    save_stats,
    token_seq_from_json_obj,
    update_stats,
)

log = logging.getLogger("umm")


def _model_flag(value: str) -> tuple:
    if "=" not in value:
        raise argparse.ArgumentTypeError(
            f"expected SOURCE_ID=PATH, got {value!r}"
        )
    source_id, path = value.split("=", 1)
    return source_id, path


def _parse_markers(value):
    if value is None:
        return DEFAULT_MARKERS
    return tuple(m for m in value.split(",") if m)


def _write_csv(path, fieldnames: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# --- commands -------------------------------------------------------------------

def cmd_merge(args) -> dict:
    with contextlib.ExitStack() as stack:
        # the base is opened, not loaded: merge decodes each tensor once
        base = stack.enter_context(CheckpointReader(args.base))
        recipe = load_recipe(args.recipe)
        overrides = dict(args.model or [])
        unknown = set(overrides) - {m.source_id for m in recipe.per_model}
        if unknown:
            raise ValueError(f"--model names not in recipe: {sorted(unknown)}")
        vectors = []
        for model in recipe.per_model:
            path = overrides.get(model.source_id, model.path)
            if not path:
                raise ValueError(f"no checkpoint path for model {model.source_id!r}")
            log.info("opening model %s from %s", model.source_id, path)
            finetuned = stack.enter_context(CheckpointReader(path))
            vectors.append(compute_task_vector(base, finetuned, model.source_id))
        merged = merge(base, vectors, recipe)
    save_checkpoint(merged, args.out)
    log.info("wrote merged checkpoint to %s", args.out)
    schedule = expand_schedule(recipe, base)
    return {
        "tensors": len(merged),
        "method": recipe.method,
        "lambda": recipe.lambda_scale,
        "groups": schedule.group_table(),
        "out": str(args.out),
    }


def cmd_search(args) -> dict:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = config_from_json_obj(json.load(fh), seed=args.seed, threads=args.threads)
    out = Path(args.out)
    result = run_search(config, out, resume=args.resume)
    (out / "best_recipe.json").write_text(result.best_recipe.dumps() + "\n")
    _write_csv(out / "history.csv", ["generation", "best", "best_so_far"], result.history)
    log.info(
        "search finished: %d generations, best fitness %r",
        result.generations, result.best_fitness,
    )
    return result.to_json_obj()


def cmd_align_stats(args) -> dict:
    norm = SurfaceNormalizer(markers=_parse_markers(args.markers))
    pivot_seqs = load_token_seqs(args.pivot, vocab_size=args.pivot_vocab)
    source_seqs = load_token_seqs(args.source, vocab_size=args.source_vocab)
    if len(pivot_seqs) != len(source_seqs):
        raise LengthMismatch(
            f"{len(pivot_seqs)} pivot sequences vs {len(source_seqs)} source sequences"
        )
    stats = AlignStats(pivot_seqs[0].vocab_size, source_seqs[0].vocab_size)
    totals = {kind: 0 for kind in kind_histogram([])}
    for index, (pivot, source) in enumerate(zip(pivot_seqs, source_seqs)):
        with located(f"pair {index}"):
            segments = align_sequences(pivot, source, norm)
            for kind, count in kind_histogram(segments).items():
                totals[kind] += count
            update_stats(stats, segments, pivot, source)
    save_stats(stats, args.out)
    log.info("wrote %d mapping pairs to %s", len(stats.counts), args.out)
    return {
        "pairs": len(pivot_seqs),
        "kinds": totals,
        "distinct_mappings": len(stats.counts),
        "total_count": stats.total(),
        "out": str(args.out),
    }


def cmd_fuse_targets(args) -> dict:
    stats = load_stats(args.stats, args.pivot_vocab, args.source_vocab)
    norm = SurfaceNormalizer(markers=_parse_markers(args.markers))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    total = picked_pivot = 0
    for index, (lineno, obj) in enumerate(iter_jsonl(args.examples)):
        with located(f"{args.examples}:{lineno}: example {index}"):
            pivot = token_seq_from_json_obj(want_object(obj, "pivot"), stats.pivot_vocab_size,
                                            "pivot.")
            source = token_seq_from_json_obj(want_object(obj, "source"), stats.source_vocab_size,
                                             "source.")
            pivot_dist = DistributionMatrix(want_list(obj, "pivot_rows"))
            source_dist = DistributionMatrix(want_list(obj, "source_rows"))
            segments = align_sequences(pivot, source, norm)
            projected = project_distribution(
                source_dist, segments, stats, pivot, source,
                pivot_fallback=pivot_dist, vocab_map=args.vocab_map,
            )
            example = FusionExample(
                instruction=want_ints(obj, "instruction", []),
                gold=pivot.ids,
                pivot_dist=pivot_dist,
                source_dist_aligned=projected,
            )
            fused = mince_fuse(example)
        if fused is example.pivot_dist:
            picked_pivot += 1
        save_distribution(fused, example.gold, out_dir / f"example_{index:04d}.st")
        total += 1
    if not total:
        raise IoFailure(f"{args.examples} holds no examples")
    log.info("fused %d examples into %s", total, out_dir)
    return {
        "examples": total,
        "picked_pivot": picked_pivot,
        "picked_source": total - picked_pivot,
        "pivot_ratio": picked_pivot / total,
        "out_dir": str(out_dir),
    }


def cmd_toy_train(args) -> dict:
    corpus = load_fusion_corpus(args.corpus)
    vocab = corpus[0].pivot_dist.vocab_size
    model = init_toy_model(vocab, seed=args.init_seed)
    trained, history = toy_train(
        model, corpus, lambda_mix=args.lambda_mix, lr=args.lr, steps=args.steps
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_toy_model(trained, out / "model.st")
    _write_csv(out / "history.csv", ["step", "combined_loss"],
               ({"step": i, "combined_loss": repr(v)} for i, v in enumerate(history)))
    log.info("trained %d steps, loss %r -> %r", args.steps, history[0], history[-1])
    return {
        "steps": args.steps,
        "lambda": args.lambda_mix,
        "vocab_size": vocab,
        "initial_loss": history[0],
        "final_loss": history[-1],
        "out": str(out),
    }


def cmd_inspect(args) -> dict:
    ckpt = load_checkpoint(args.ckpt)
    return {
        "tensors": tensor_summary(ckpt),
        "count": len(ckpt),
        "metadata": dict(sorted(ckpt.metadata.items())),
    }


# --- wiring --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umm",
        description="Checkpoint merging and distribution-fusion toolkit.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed a subcommand would use")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker thread bound for parallel evaluation")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="merge checkpoints per a recipe")
    p.add_argument("--base", required=True)
    p.add_argument("--model", action="append", type=_model_flag, metavar="ID=PATH",
                   help="checkpoint path for a recipe model (overrides recipe paths)")
    p.add_argument("--recipe", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("search", help="evolve merge coefficients")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("align-stats", help="align token files and count mappings")
    p.add_argument("--pivot", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--markers", default=None,
                   help="comma-separated word-boundary markers to strip")
    p.add_argument("--pivot-vocab", type=int, default=None)
    p.add_argument("--source-vocab", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align_stats)

    p = sub.add_parser("fuse-targets", help="project, fuse, and emit target rows")
    p.add_argument("--examples", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--markers", default=None)
    p.add_argument("--pivot-vocab", type=int, default=None)
    p.add_argument("--source-vocab", type=int, default=None)
    p.add_argument("--vocab-map", default="proportional",
                   choices=["proportional", "argmax"])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_fuse_targets)

    p = sub.add_parser("toy-train", help="train the bigram model on fused targets")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lambda", dest="lambda_mix", type=float, required=True)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--init-seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_toy_train)

    p = sub.add_parser("inspect", help="print a checkpoint's tensor table")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        result = args.func(args)
    except (UmmError, OSError, ValueError) as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
