"""Outside-in tracing of the umm layers, for the traced benchmark run.

The program has no tracing of its own, so this module wraps the public
entry points of each ``umm`` module from the outside.  Installing a
``Tracer`` rebinds every module attribute that holds a wrapped function
(``from ... import`` copies included) and replaces wrapped methods on
their class; uninstalling puts the originals back.

Each wrapped call is a span.  Its self time is its duration minus the
time its child spans cover, and it is credited to the span's layer.
The pass itself is the root span, so the time outside every layer span
is the command's own (``cli.self``) and the layer self times plus
``cli.self`` add up to the traced pass time.  Helpers that are not
listed below count toward the self time of the span that calls them.
Counts (calls, bytes, DP cells, merged parameters, cache hits) come from
arguments, results and file sizes, never from clocks.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_load(counts, args, kwargs, result):
    counts["load_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_save(counts, args, kwargs, result):
    counts["save_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_merge(counts, args, kwargs, result):
    base = _arg(args, kwargs, 0, "base")
    vectors = _arg(args, kwargs, 1, "vectors")
    counts["params_merged"] += sum(t.data.size for t in base.tensors.values()) * len(vectors)


def _count_candidate(counts, args, kwargs, result):
    _, invoked = result
    counts["cache_hits"] += not invoked


def _count_dp(counts, args, kwargs, result):
    pivot = _arg(args, kwargs, 0, "pivot")
    source = _arg(args, kwargs, 1, "source")
    counts["dp_cells"] += (len(pivot) + 1) * (len(source) + 1)


def _count_fuse(counts, args, kwargs, result):
    counts["picked_pivot"] += result is _arg(args, kwargs, 0, "example").pivot_dist


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str  # "function" or "Class.method"
    layer: str
    count: object = None  # (counts, args, kwargs, result) -> None


TARGETS = (
    Target("umm.tensor_store", "load_checkpoint", "tensor_store.load", _count_load),
    Target("umm.tensor_store", "save_checkpoint", "tensor_store.save", _count_save),
    Target("umm.tensor_store", "checkpoint_digest", "tensor_store.digest"),
    Target("umm.merge_core", "compute_task_vector", "merge_core.task_vector"),
    Target("umm.merge_core", "ties_trim", "merge_core.trim"),
    Target("umm.merge_core", "ties_elect", "merge_core.elect"),
    Target("umm.merge_core", "ties_disjoint_merge", "merge_core.disjoint"),
    Target("umm.merge_core", "merge", "merge_core.merge", _count_merge),
    Target("umm.cmaes", "cmaes_ask", "cmaes.ask"),
    Target("umm.cmaes", "cmaes_tell", "cmaes.tell"),
    Target("umm.evo_search", "run_search", "evo_search.search"),
    Target("umm.evo_search", "evaluate_candidate", "evo_search.candidate", _count_candidate),
    Target("umm.evo_search", "ToyRegressionEvaluator.evaluate", "evo_search.evaluate"),
    Target("umm.evo_search", "L2ToTargetEvaluator.evaluate", "evo_search.evaluate"),
    Target("umm.evo_search", "ExternalEvaluator.evaluate", "evo_search.evaluate"),
    Target("umm.toy_mlp", "mlp_forward", "toy_mlp.forward"),
    Target("umm.token_align", "align_sequences", "token_align.align", _count_dp),
    Target("umm.token_align", "alignment_cost", "token_align.align", _count_dp),
    Target("umm.token_align", "update_stats", "token_align.stats"),
    Target("umm.token_align", "project_distribution", "token_align.project"),
    Target("umm.token_align", "load_token_seqs", "token_align.io"),
    Target("umm.token_align", "load_stats", "token_align.io"),
    Target("umm.token_align", "save_stats", "token_align.io"),
    Target("umm.distro_fusion", "DistributionMatrix.__post_init__", "distro_fusion.validate"),
    Target("umm.distro_fusion", "mince_fuse", "distro_fusion.fuse", _count_fuse),
    Target("umm.distro_fusion", "save_distribution", "distro_fusion.save"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))
ROOT_LAYER = "cli.self"


def resolve(target: Target):
    """(owner, attribute name, original) for a class-level target, or
    (None, name, original) for a module function."""
    module = importlib.import_module(target.module)
    if "." in target.qualname:
        cls_name, attr = target.qualname.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return None, target.qualname, getattr(module, target.qualname)


def umm_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "umm" or name.startswith("umm."))]


class Tracer:
    """Installs span wrappers and accumulates one pass's layer figures."""

    def __init__(self):
        self._patches = []  # (owner, name, original)
        self._stack = []
        self._thread = None
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    # --- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("umm.cli")  # binds every module the commands use
        try:
            for target in TARGETS:
                owner, name, original = resolve(target)
                wrapper = self._wrap(original, target)
                if owner is not None:
                    setattr(owner, name, wrapper)
                    self._patches.append((owner, name, original))
                    continue
                for module in umm_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def patches(self) -> list:
        return list(self._patches)

    # --- spans --------------------------------------------------------------

    def _wrap(self, original, target: Target):
        tracer, layer, count = self, target.layer, target.count

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                raise RuntimeError(f"{layer} called outside the traced thread")
            frame = [0.0]  # time covered by child spans
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._stack[-1][0] += elapsed
                tracer.self_s[layer] += elapsed - frame[0]
                tracer.calls[layer] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def run(self, fn):
        """Call ``fn`` as the root span; returns (result, seconds)."""
        if not self._patches:
            raise RuntimeError("tracer is not installed")
        self.reset()
        self._thread = threading.get_ident()
        frame = [0.0]
        self._stack = [frame]
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            self._stack = []
            self._thread = None
            self.self_s[ROOT_LAYER] += elapsed - frame[0]
        return result, elapsed

    # --- figures ------------------------------------------------------------

    def times(self) -> dict:
        """Self seconds per layer, plus the command's own time."""
        out = {f"{layer}_s": self.self_s[layer] for layer in LAYERS}
        out[f"{ROOT_LAYER}_s"] = self.self_s[ROOT_LAYER]
        return out

    def exact_counts(self) -> dict:
        c, n = self.calls, self.counts
        return {
            "tensor_store.load_calls": c["tensor_store.load"],
            "tensor_store.load_mb": n["load_bytes"] / 2**20,
            "tensor_store.save_calls": c["tensor_store.save"],
            "tensor_store.save_mb": n["save_bytes"] / 2**20,
            "tensor_store.digest_calls": c["tensor_store.digest"],
            "merge_core.merge_calls": c["merge_core.merge"],
            "merge_core.params_merged": n["params_merged"],
            "cmaes.generations": c["cmaes.tell"],
            "evo_search.candidates": c["evo_search.candidate"],
            "evo_search.evaluator_calls": c["evo_search.evaluate"],
            "evo_search.cache_hits": n["cache_hits"],
            "toy_mlp.forward_calls": c["toy_mlp.forward"],
            "token_align.align_calls": c["token_align.align"],
            "token_align.dp_cells": n["dp_cells"],
            "token_align.project_calls": c["token_align.project"],
            "distro_fusion.fuse_calls": c["distro_fusion.fuse"],
            "distro_fusion.picked_pivot": n["picked_pivot"],
        }
