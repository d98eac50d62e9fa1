"""Evolutionary search over merge-recipe coefficients.

A genome is a recipe's coefficients as one flat vector: per model, then
per group, the weight, plus the density for TIES.  Decoding it onto a
recipe clips weights to [0, 1] and densities to [0.05, 1], so the
optimizer itself runs unconstrained.

Candidates are scored by an evaluator: either a builtin (pure numpy) or
an external command run per candidate.  Every evaluator's
``evaluate(merged, path)`` gets the merged checkpoint and the path it
was written to, and uses what it needs: a builtin scores the checkpoint
in memory, a command gets the file.  The external protocol: the
command template's "{checkpoint}" is replaced by the merged-checkpoint
path, and the last line the command prints to stdout must be JSON
{"fitness": <finite float>}, higher is better.  Results are cached by
the hash of recipe, source digests, and evaluator identity.

The search loop persists its full state (including generator state)
after every generation, so an interrupted run resumed with the same
config reproduces the uninterrupted result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import reprlib
import shlex
import signal
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from umm.cmaes import (
    SIGMA_MAX,
    SIGMA_MIN,
    cmaes_ask,
    cmaes_init,
    cmaes_tell,
    default_pop_size,
    state_from_json_obj,
    state_to_json_obj,
)
from umm.errors import (
    EvaluatorFailed,
    EvaluatorProtocol,
    LengthMismatch,
    MalformedInput,
)
from umm.jsonl import (
    read_json,
    reject_unknown,
    want_int,
    want_number,
    want_numbers,
    want_object,
    want_objects,
    want_pairs,
    want_str,
)
from umm.merge_core import (
    METHODS,
    GroupCoeffs,
    MergeRecipe,
    ModelCoeffs,
    compute_task_vector,
    group_count,
    merge,
)
from umm.tensor_store import (
    Checkpoint,
    checkpoint_digest,
    load_checkpoint,
    publish,
    require_compat,
    save_checkpoint,
)
from umm.toy_mlp import mlp_forward

WEIGHT_LO, WEIGHT_HI = 0.0, 1.0
DENSITY_LO, DENSITY_HI = 0.05, 1.0
DEFAULT_SIGMA0 = 0.15
DEFAULT_ITERATIONS = 30
DEFAULT_TIMEOUT = 3600.0

# an evaluator output line quoted in an error keeps about this many characters
_EXCERPT = reprlib.Repr()
_EXCERPT.maxstring = 200


# --- genome codec ---------------------------------------------------------

def encode_genome(recipe: MergeRecipe) -> np.ndarray:
    """The recipe's coefficients as a float64 genome: per model, then per
    group, the weight, plus the density for ties."""
    pairs = np.array([(g.weight, g.density) for m in recipe.per_model for g in m.groups],
                     np.float64).reshape(-1, 2)
    return (pairs if recipe.method == "ties" else pairs[:, :1]).reshape(-1)


def decode_genome(genome, like: MergeRecipe) -> MergeRecipe:
    """A recipe with ``like``'s method, group size, lambda scale, models
    and group count, holding the genome's values clipped into their boxes."""
    values = np.asarray(genome, dtype=np.float64).reshape(-1)
    shape = (len(like.per_model), like.num_groups, 2 if like.method == "ties" else 1)
    if values.size != math.prod(shape):
        raise LengthMismatch(f"genome has {values.size} values, recipe needs {math.prod(shape)}")
    # each model lists its groups in order, each group as (weight[, density])
    per_group = values.reshape(shape)
    weights = np.clip(per_group[..., 0], WEIGHT_LO, WEIGHT_HI).tolist()
    if like.method == "ties":
        densities = np.clip(per_group[..., 1], DENSITY_LO, DENSITY_HI).tolist()
    else:
        densities = [[1.0] * like.num_groups for _ in like.per_model]
    per_model = [
        ModelCoeffs(source_id=m.source_id,
                    groups=[GroupCoeffs(weight=w, density=d) for w, d in zip(ws, ds)],
                    path=m.path)
        for m, ws, ds in zip(like.per_model, weights, densities)
    ]
    return MergeRecipe(like.method, like.group_size, like.lambda_scale, per_model)


# --- evaluators ------------------------------------------------------------

class ExternalEvaluator:
    """Runs a command per candidate and parses its last stdout line.

    The command runs in a session of its own; on timeout its whole
    process group is killed, so children of a wrapping shell go too.
    """

    def __init__(self, command: str, timeout: float):
        self.command = command
        self.words = shlex.split(command)  # ValueError for an unclosed quote
        self.timeout = timeout

    @property
    def evaluator_id(self) -> str:
        return f"cmd:{self.command}"

    def evaluate(self, merged: Checkpoint, checkpoint_path) -> float:
        tokens = [t.replace("{checkpoint}", str(checkpoint_path)) for t in self.words]
        try:
            # a byte that is not UTF-8 reads as \xNN: an error quotes it,
            # and a log line holding one does not hide the fitness line
            proc = subprocess.Popen(
                tokens, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                encoding="utf-8", errors="backslashreplace", start_new_session=True,
            )
        except OSError as exc:
            raise EvaluatorFailed(f"cannot run evaluator {tokens[0]!r}: {exc}") from exc
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=self.timeout)
            except subprocess.TimeoutExpired as exc:
                raise EvaluatorFailed(f"evaluator timed out after {self.timeout}s") from exc
            finally:
                if proc.returncode is None:
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or stdout.strip().splitlines()[-1:]
            raise EvaluatorFailed(f"evaluator exited {proc.returncode}: "
                                  f"{_EXCERPT.repr(tail[0]) if tail else '(no output)'}")
        lines = [line for line in stdout.splitlines() if line.strip()]
        if not lines:
            raise EvaluatorProtocol("evaluator printed nothing to stdout")
        try:
            fitness = want_number(json.loads(lines[-1]), "fitness")
        except (json.JSONDecodeError, RecursionError, MalformedInput) as exc:
            raise EvaluatorProtocol(f"last stdout line {_EXCERPT.repr(lines[-1])}: {exc}") from exc
        return fitness


class L2ToTargetEvaluator:
    """Fitness = negative sum of squared differences to a target checkpoint."""

    def __init__(self, target: Checkpoint):
        self.target = target
        self._digest = checkpoint_digest(target)

    @property
    def evaluator_id(self) -> str:
        return f"l2-to-target:{self._digest}"

    def evaluate(self, merged: Checkpoint, checkpoint_path) -> float:
        require_compat(self.target, merged, "target vs merged")
        total = 0.0
        for name in self.target.names():
            diff = merged.array(name).astype(np.float64) - self.target.array(name).astype(np.float64)
            total += float(np.sum(diff * diff))
        return -total


DEFAULT_REGRESSION_TARGETS = (("sin", 2.5), ("cos", 1.5))


class ToyRegressionEvaluator:
    """Scores a checkpoint as a tanh MLP on fixed 1-d regression targets.

    Fitness is the negative sum of per-target mean squared errors, so a
    model that fits every target perfectly scores 0.
    """

    def __init__(self, targets, lo: float, hi: float, points: int):
        self.targets = targets
        self.xs = np.linspace(lo, hi, points)
        self.ys = [{"sin": np.sin, "cos": np.cos}[kind](freq * self.xs) for kind, freq in targets]
        self._spec = json.dumps(
            {"targets": self.targets, "lo": lo, "hi": hi, "points": points},
            sort_keys=True,
        )

    @property
    def evaluator_id(self) -> str:
        return f"toy-regression:{self._spec}"

    def evaluate(self, merged: Checkpoint, checkpoint_path) -> float:
        pred = mlp_forward(merged, self.xs)
        total = 0.0
        for ys in self.ys:
            total += float(np.mean((pred - ys) ** 2))
        return -total


def make_evaluator(spec: dict):
    """Build an evaluator from its JSON spec (see SearchConfig).  Every
    value is checked here, so a bad one is named before any checkpoint
    is read or any candidate is scored."""
    where = "search config: evaluator."

    def bad(key: str, need: str, value) -> ValueError:
        return ValueError(f"{where}{key} must be {need}, got {reprlib.repr(value)}")

    reject_unknown(spec, ("command", "timeout", "builtin", "target_path", "targets", "lo", "hi",
                          "points"), where)
    command = want_str(spec, "command", None, where)
    if command is not None:
        timeout = want_number(spec, "timeout", DEFAULT_TIMEOUT, where)
        if "{checkpoint}" not in command:
            raise bad("command", "a command line with the {checkpoint} placeholder", command)
        if timeout <= 0.0:
            raise bad("timeout", "> 0", timeout)
        try:
            return ExternalEvaluator(command, timeout)
        except ValueError as exc:
            raise bad("command", f"a command line that splits into words ({exc})",
                      command) from exc
    builtin = want_str(spec, "builtin", None, where)
    if builtin == "l2-to-target":
        return L2ToTargetEvaluator(load_checkpoint(want_str(spec, "target_path", where=where)))
    if builtin == "toy-regression":
        targets = want_pairs(spec, "targets", DEFAULT_REGRESSION_TARGETS, where)
        for index, (kind, freq) in enumerate(targets):
            if kind not in ("sin", "cos"):
                raise bad(f"targets[{index}]", "a sin or cos target", [kind, freq])
        lo, hi = want_number(spec, "lo", -2.0, where), want_number(spec, "hi", 2.0, where)
        points = want_int(spec, "points", 64, where)
        if points < 1:
            raise bad("points", ">= 1", points)
        try:
            return ToyRegressionEvaluator(targets, lo, hi, points)
        except MemoryError as exc:
            raise bad("points", "small enough to allocate", points) from exc
    raise ValueError(f"{where}builtin must be toy-regression or l2-to-target when there is "
                     f"no command, got {reprlib.repr(builtin)}")


# --- sources and caching -----------------------------------------------------

@dataclass
class SourceSet:
    """Base checkpoint plus task vectors, with a combined content digest.
    Each vector holds its loaded fine-tuned checkpoint, not its deltas:
    every candidate's merge takes each delta as it merges that tensor."""

    base: Checkpoint
    vectors: list
    digest: str


def load_sources(base_path, models: list) -> SourceSet:
    """The base and one task vector per model ({source_id, path} dicts),
    in source_id order, each checkpoint loaded once.  A fine-tuned
    checkpoint is loaded and digested when its turn comes, so set-up peaks
    at one digest's working set above what it returns."""
    base = load_checkpoint(base_path)
    digests = [checkpoint_digest(base)]
    vectors = []
    for model in sorted(models, key=lambda m: m["source_id"]):
        sid = model["source_id"]
        finetuned = load_checkpoint(model["path"])
        vectors.append(compute_task_vector(base, finetuned, sid))
        digests.append(f"{sid}:{checkpoint_digest(finetuned)}")
    return SourceSet(base, vectors, hashlib.sha256("|".join(digests).encode()).hexdigest())


class FitnessCache:
    """Two-level fitness memo: in-process dict plus optional directory."""

    def __init__(self, directory=None):
        self.directory = Path(directory) if directory else None
        if self.directory:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory = {}
        self._lock = threading.Lock()

    @staticmethod
    def key(recipe: MergeRecipe, sources_digest: str, evaluator_id: str) -> str:
        blob = json.dumps(
            {
                "recipe": recipe.to_json_obj(),
                "sources": sources_digest,
                "evaluator": evaluator_id,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def get(self, key: str):
        with self._lock:
            if key in self._memory:
                return self._memory[key]
        if self.directory:
            path = self.directory / f"{key}.json"
            if path.exists():
                value = want_number(read_json(path), "fitness", where=f"{path}: ")
                with self._lock:
                    self._memory[key] = value
                return value
        return None

    def put(self, key: str, fitness: float) -> None:
        with self._lock:
            self._memory[key] = fitness
        if self.directory:
            with publish(self.directory / f"{key}.json", text=True) as fh:
                fh.write(json.dumps({"fitness": fitness}))


def evaluate_candidate(recipe: MergeRecipe, evaluator, workdir: Path, sources: SourceSet,
                       cache: FitnessCache, retries: int = 1,
                       tag: str = "candidate") -> tuple:
    """Merge per recipe, write the checkpoint to ``workdir``, score it and
    memoize.  The evaluator gets both the merged checkpoint and the path
    of the file written.

    Returns (fitness, invoked) where invoked is False on a cache hit.
    """
    key = FitnessCache.key(recipe, sources.digest, evaluator.evaluator_id)
    hit = cache.get(key)
    if hit is not None:
        return hit, False
    merged = merge(sources.base, sources.vectors, recipe)
    path = workdir / f"{tag}.st"
    save_checkpoint(merged, path)
    for attempt in range(retries + 1):
        try:
            fitness = evaluator.evaluate(merged, path)
            break
        except (EvaluatorFailed, EvaluatorProtocol) as exc:
            # a command that could not start would not start on a retry either
            if attempt == retries or isinstance(exc.__cause__, OSError):
                raise
    cache.put(key, fitness)
    return fitness, True


# --- search configuration and loop ----------------------------------------------

@dataclass
class SearchConfig:
    method: str
    group_size: int
    base_path: str
    models: list  # [{source_id, path}]
    evaluator: dict
    lambda_scale: float
    iterations: int
    pop_size: int  # None: the CMA-ES default for the genome length
    sigma0: float
    seed: int
    cache_dir: str
    threads: int
    retries: int


def config_from_json_obj(obj: dict, seed: int = None, threads: int = None) -> SearchConfig:
    """The one maker of a SearchConfig: each field typed, defaulted and
    checked; ``seed`` and ``threads``, when given, replace the values
    ``obj`` holds."""
    where = "search config: "
    models = []
    for i, m in enumerate(want_objects(obj, "models", where=where)):
        at = f"{where}models[{i}]."
        reject_unknown(m, ("source_id", "path"), at)
        models.append({key: want_str(m, key, where=at) for key in ("source_id", "path")})
    reject_unknown(obj, [f.name for f in fields(SearchConfig)], where)
    config = SearchConfig(
        method=want_str(obj, "method", where=where),
        group_size=want_int(obj, "group_size", where=where),
        base_path=want_str(obj, "base_path", where=where),
        models=models,
        evaluator=want_object(obj, "evaluator", where=where),
        lambda_scale=want_number(obj, "lambda_scale", 1.0, where),
        iterations=want_int(obj, "iterations", DEFAULT_ITERATIONS, where),
        pop_size=want_int(obj, "pop_size", None, where),
        sigma0=want_number(obj, "sigma0", DEFAULT_SIGMA0, where),
        seed=want_int(obj, "seed", 0, where) if seed is None else seed,
        cache_dir=want_str(obj, "cache_dir", None, where),
        threads=want_int(obj, "threads", 1, where) if threads is None else threads,
        retries=want_int(obj, "retries", 1, where),
    )
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}")
    if config.group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {config.group_size}")
    if config.iterations < 0:
        raise ValueError("iterations must be >= 0")
    if not config.models:
        raise ValueError("config lists no models")
    ids = [m["source_id"] for m in config.models]
    repeated = sorted({sid for sid in ids if ids.count(sid) > 1})
    if repeated:
        raise ValueError(f"models repeat source_id {repeated}: each must be distinct")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    if config.retries < 0:
        raise ValueError(f"retries must be >= 0, got {config.retries}")
    if config.pop_size is not None and config.pop_size < 2:
        raise ValueError(f"pop_size must be null or >= 2, got {config.pop_size}")
    if config.lambda_scale < 0.0:
        raise ValueError(f"lambda_scale must be >= 0, got {config.lambda_scale!r}")
    if not SIGMA_MIN < config.sigma0 < SIGMA_MAX:
        raise ValueError(f"sigma0 must be in ({SIGMA_MIN}, {SIGMA_MAX}), got {config.sigma0!r}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    return config


@dataclass
class SearchResult:
    best_genome: np.ndarray
    best_recipe: MergeRecipe
    best_fitness: float
    history: list  # per generation: {generation, best, best_so_far}
    evaluations: int
    evaluator_invocations: int
    generations: int
    pop_size: int

    def to_json_obj(self) -> dict:
        return {
            "best_genome": [float(v) for v in self.best_genome],
            "best_recipe": self.best_recipe.to_json_obj(),
            "best_fitness": self.best_fitness,
            "history": self.history,
            "evaluations": self.evaluations,
            "evaluator_invocations": self.evaluator_invocations,
            "generations": self.generations,
            "pop_size": self.pop_size,
        }


def _search_fingerprint(config: SearchConfig, sources_digest: str, dim: int, pop: int) -> str:
    # iterations deliberately excluded: a state file is a valid resume
    # point for any horizon, since per-generation evolution ignores it
    blob = json.dumps(
        {
            "method": config.method,
            "group_size": config.group_size,
            "lambda_scale": config.lambda_scale,
            "sigma0": config.sigma0,
            "seed": config.seed,
            "sources": sources_digest,
            "dim": dim,
            "pop": pop,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def run_search(config: SearchConfig, workdir, resume: bool = False) -> SearchResult:
    """Iterated ask/evaluate/tell maximization of candidate fitness.

    State is persisted to <workdir>/search_state.json after every
    generation; ``resume=True`` continues from it when present.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # a bad evaluator spec ends the search before a source checkpoint is read
    evaluator = make_evaluator(config.evaluator)
    sources = load_sources(config.base_path, config.models)

    # the search starts at every weight 0.5 and every density 1.0
    _, num_groups = group_count(sources.base.metadata, config.group_size)
    start = MergeRecipe(config.method, config.group_size, config.lambda_scale, [
        ModelCoeffs(m["source_id"], [GroupCoeffs(0.5) for _ in range(num_groups)], m["path"])
        for m in config.models])
    mean = encode_genome(start)
    dim = mean.size
    pop = config.pop_size or default_pop_size(dim)

    cache = FitnessCache(config.cache_dir)
    fingerprint = _search_fingerprint(config, sources.digest, dim, pop)
    state_path = workdir / "search_state.json"

    def score(recipe: MergeRecipe, tag: str) -> tuple:
        return evaluate_candidate(
            recipe, evaluator, workdir, sources, cache=cache,
            retries=config.retries, tag=tag,
        )

    def save_state() -> None:
        with publish(state_path, text=True) as fh:
            fh.write(json.dumps({
                "fingerprint": fingerprint,
                "cmaes": state_to_json_obj(state),
                "best_genome": best_genome.tolist(),
                "best_fitness": best_fitness,
                "history": history,
                "evaluations": evaluations,
                "invocations": invocations,
            }))

    if resume and state_path.exists():
        saved = read_json(state_path)
        where = f"{state_path}: "
        if want_str(saved, "fingerprint", where=where) != fingerprint:
            raise ValueError("search_state.json does not match this configuration")
        state = state_from_json_obj(want_object(saved, "cmaes", where=where), f"{where}cmaes.")
        if (state.dim, state.pop_size) != (dim, pop):
            raise MalformedInput(f"{where}cmaes: dim {state.dim} and pop_size "
                                 f"{state.pop_size}, expected {dim} and {pop}")
        best_genome = np.asarray(want_numbers(saved, "best_genome", where=where), np.float64)
        if best_genome.shape != (dim,):
            raise MalformedInput(f"{where}best_genome has {best_genome.size} entries, "
                                 f"expected {dim}")
        best_fitness = want_number(saved, "best_fitness", where=where)
        history = []
        for i, row in enumerate(want_objects(saved, "history", where=where)):
            at = f"{where}history[{i}]."
            if (generation := want_int(row, "generation", where=at)) != i:
                raise MalformedInput(f"{at}generation {generation} must be {i}")
            best = want_number(row, "best", where=at)
            # the loop keeps the best so far, or takes a generation's best above it
            follows = max(history[-1]["best_so_far"], best) if history else best
            if (best_so_far := want_number(row, "best_so_far", where=at)) != follows:
                raise MalformedInput(f"{at}best_so_far {best_so_far!r} must be {follows!r}")
            history.append({"generation": i, "best": best, "best_so_far": best_so_far})
        evaluations = want_int(saved, "evaluations", where=where)
        invocations = want_int(saved, "invocations", where=where)
        # a row and the start recipe's score, then a row and pop scores per generation
        for key, count, need in (("history", len(history), state.generation + 1),
                                 ("evaluations", evaluations, 1 + state.generation * pop)):
            if count != need:
                raise MalformedInput(f"{where}{key} counts {count}, expected {need} after "
                                     f"{state.generation} generations")
        if not 0 <= invocations <= evaluations:
            raise MalformedInput(f"{where}invocations {invocations} must be in [0, {evaluations}]")
        if best_fitness != history[-1]["best_so_far"]:
            raise MalformedInput(f"{where}best_fitness {best_fitness!r} must be the last "
                                 f"history best_so_far, {history[-1]['best_so_far']!r}")
    else:
        best_genome = mean
        try:
            state = cmaes_init(dim, best_genome, config.sigma0, pop_size=pop, seed=config.seed)
        except MemoryError as exc:
            raise ValueError(f"search config: pop_size must be small enough to allocate, "
                             f"got {pop}") from exc
        best_fitness, invoked = score(start, "initial")
        evaluations = 1
        invocations = int(invoked)
        history = [{"generation": 0, "best": best_fitness, "best_so_far": best_fitness}]
        save_state()

    while state.generation < config.iterations:
        genomes = cmaes_ask(state)
        recipes = [decode_genome(g, start) for g in genomes]
        tags = [f"gen{state.generation + 1:04d}-cand{i:03d}" for i in range(len(recipes))]
        if config.threads > 1:
            with ThreadPoolExecutor(max_workers=config.threads) as pool:
                outcomes = list(pool.map(score, recipes, tags))
        else:
            outcomes = [score(r, t) for r, t in zip(recipes, tags)]
        fitnesses = [f for f, _ in outcomes]
        evaluations += len(fitnesses)
        invocations += sum(int(inv) for _, inv in outcomes)
        gen_best_idx = int(np.argmax(fitnesses))
        if fitnesses[gen_best_idx] > best_fitness:
            best_fitness = fitnesses[gen_best_idx]
            best_genome = np.asarray(genomes[gen_best_idx], dtype=np.float64).copy()
        cmaes_tell(state, genomes, [-f for f in fitnesses])
        history.append({
            "generation": state.generation,
            "best": float(fitnesses[gen_best_idx]),
            "best_so_far": best_fitness,
        })
        save_state()

    return SearchResult(
        best_genome=best_genome,
        best_recipe=decode_genome(best_genome, start),
        best_fitness=best_fitness,
        history=history,
        evaluations=evaluations,
        evaluator_invocations=invocations,
        generations=state.generation,
        pop_size=pop,
    )
