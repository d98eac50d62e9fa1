"""Evolutionary search over merge-recipe coefficients.

A genome is the flat coefficient vector of one recipe: for TIES,
(weight, density) per model per group, model-major; for task_arithmetic
and linear, weights only.  Decoding clips weights to [0, 1] and
densities to [0.05, 1], so the optimizer itself runs unconstrained.

Candidates are scored by an evaluator: either a builtin (pure numpy) or
an external command run per candidate.  The external protocol: the
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
import shlex
import signal
import subprocess
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from umm.cmaes import (
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
)
from umm.jsonl import want_int, want_number, want_str
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
    require_compat,
    save_checkpoint,
)
from umm.toy_mlp import mlp_forward

WEIGHT_LO, WEIGHT_HI = 0.0, 1.0
DENSITY_LO, DENSITY_HI = 0.05, 1.0
DEFAULT_SIGMA0 = 0.15
DEFAULT_ITERATIONS = 30
DEFAULT_TIMEOUT = 3600.0


# --- genome codec ---------------------------------------------------------

@dataclass
class RecipeTemplate:
    """Fixed recipe structure a genome fills with coefficients."""

    method: str
    group_size: int
    num_groups: int
    source_ids: list
    lambda_scale: float = 1.0
    model_paths: dict = field(default_factory=dict)

    @property
    def per_group_values(self) -> int:
        return 2 if self.method == "ties" else 1

    @property
    def genome_length(self) -> int:
        return len(self.source_ids) * self.num_groups * self.per_group_values


def initial_mean(template: RecipeTemplate) -> np.ndarray:
    """Search start: every weight 0.5, every density 1.0."""
    if template.method == "ties":
        return np.tile([0.5, 1.0], len(template.source_ids) * template.num_groups)
    return np.full(template.genome_length, 0.5)


def decode_genome(genome, template: RecipeTemplate) -> MergeRecipe:
    """Clip genome values into their boxes and build the recipe."""
    values = np.asarray(genome, dtype=np.float64).reshape(-1)
    if values.size != template.genome_length:
        raise LengthMismatch(
            f"genome has {values.size} values, template needs {template.genome_length}"
        )
    per_model = []
    idx = 0
    for sid in template.source_ids:
        groups = []
        for _ in range(template.num_groups):
            weight = float(np.clip(values[idx], WEIGHT_LO, WEIGHT_HI))
            idx += 1
            if template.method == "ties":
                density = float(np.clip(values[idx], DENSITY_LO, DENSITY_HI))
                idx += 1
            else:
                density = 1.0
            groups.append(GroupCoeffs(weight=weight, density=density))
        per_model.append(
            ModelCoeffs(source_id=sid, groups=groups, path=template.model_paths.get(sid, ""))
        )
    return MergeRecipe(
        method=template.method,
        group_size=template.group_size,
        lambda_scale=template.lambda_scale,
        per_model=per_model,
    )


# --- evaluators ------------------------------------------------------------

class ExternalEvaluator:
    """Runs a command per candidate and parses its last stdout line.

    The command runs in a session of its own; on timeout its whole
    process group is killed, so children of a wrapping shell go too.
    """

    def __init__(self, command: str, timeout: float = DEFAULT_TIMEOUT):
        if "{checkpoint}" not in command:
            raise ValueError("evaluator command must contain the {checkpoint} placeholder")
        self.command = command
        self.timeout = float(timeout)

    @property
    def evaluator_id(self) -> str:
        return f"cmd:{self.command}"

    def evaluate(self, checkpoint_path) -> float:
        tokens = [
            t.replace("{checkpoint}", str(checkpoint_path)) for t in shlex.split(self.command)
        ]
        try:
            proc = subprocess.Popen(
                tokens, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True,
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
            raise EvaluatorFailed(
                f"evaluator exited {proc.returncode}: {tail[0] if tail else '(no output)'}"
            )
        lines = [line for line in stdout.splitlines() if line.strip()]
        if not lines:
            raise EvaluatorProtocol("evaluator printed nothing to stdout")
        try:
            obj = json.loads(lines[-1])
        except json.JSONDecodeError as exc:
            raise EvaluatorProtocol(f"last stdout line is not JSON: {lines[-1]!r}") from exc
        if not isinstance(obj, dict) or "fitness" not in obj:
            raise EvaluatorProtocol(f"expected {{\"fitness\": <float>}}, got {lines[-1]!r}")
        fitness = obj["fitness"]
        if isinstance(fitness, bool) or not isinstance(fitness, (int, float)) or not math.isfinite(fitness):
            raise EvaluatorProtocol(f"fitness must be a finite number, got {fitness!r}")
        return float(fitness)


class L2ToTargetEvaluator:
    """Fitness = negative sum of squared differences to a target checkpoint."""

    def __init__(self, target: Checkpoint):
        self.target = target
        self._digest = checkpoint_digest(target)

    @property
    def evaluator_id(self) -> str:
        return f"l2-to-target:{self._digest}"

    def evaluate(self, checkpoint_path) -> float:
        merged = load_checkpoint(checkpoint_path)
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

    def __init__(self, targets=DEFAULT_REGRESSION_TARGETS, lo: float = -2.0,
                 hi: float = 2.0, points: int = 64):
        self.targets = [(str(kind), float(freq)) for kind, freq in targets]
        self.xs = np.linspace(float(lo), float(hi), int(points))
        self.ys = []
        for kind, freq in self.targets:
            if kind == "sin":
                self.ys.append(np.sin(freq * self.xs))
            elif kind == "cos":
                self.ys.append(np.cos(freq * self.xs))
            else:
                raise ValueError(f"unknown target kind {kind!r} (use sin or cos)")
        self._spec = json.dumps(
            {"targets": self.targets, "lo": float(lo), "hi": float(hi), "points": int(points)},
            sort_keys=True,
        )

    @property
    def evaluator_id(self) -> str:
        return f"toy-regression:{self._spec}"

    def evaluate(self, checkpoint_path) -> float:
        ckpt = load_checkpoint(checkpoint_path)
        pred = mlp_forward(ckpt, self.xs)
        total = 0.0
        for ys in self.ys:
            total += float(np.mean((pred - ys) ** 2))
        return -total


def make_evaluator(spec: dict):
    """Build an evaluator from its JSON spec (see SearchConfig)."""
    if not isinstance(spec, dict):
        raise ValueError("evaluator spec must be an object")
    if "command" in spec:
        return ExternalEvaluator(spec["command"], timeout=spec.get("timeout", DEFAULT_TIMEOUT))
    builtin = spec.get("builtin")
    if builtin == "l2-to-target":
        if "target_path" not in spec:
            raise ValueError("l2-to-target evaluator needs target_path")
        return L2ToTargetEvaluator(load_checkpoint(spec["target_path"]))
    if builtin == "toy-regression":
        return ToyRegressionEvaluator(
            targets=spec.get("targets", DEFAULT_REGRESSION_TARGETS),
            lo=spec.get("lo", -2.0),
            hi=spec.get("hi", 2.0),
            points=spec.get("points", 64),
        )
    raise ValueError(f"unknown evaluator spec {spec!r}")


# --- sources and caching -----------------------------------------------------

@dataclass
class SourceSet:
    """Base checkpoint plus task vectors, with a combined content digest."""

    base: Checkpoint
    vectors: list
    digest: str


def build_sources(base: Checkpoint, finetuned: dict) -> SourceSet:
    """finetuned maps source_id -> Checkpoint, or -> a path loaded when its
    turn comes, so that set-up holds one loaded checkpoint at a time."""
    digests = [checkpoint_digest(base)]
    vectors = []
    for sid in sorted(finetuned):
        ckpt = finetuned[sid]
        if not isinstance(ckpt, Checkpoint):
            ckpt = load_checkpoint(ckpt)
        vectors.append(compute_task_vector(base, ckpt, sid))
        digests.append(f"{sid}:{checkpoint_digest(ckpt)}")
    return SourceSet(base, vectors, hashlib.sha256("|".join(digests).encode()).hexdigest())


def load_sources(base_path, models: list) -> SourceSet:
    """models: list of {source_id, path} dicts."""
    base = load_checkpoint(base_path)
    return build_sources(base, {m["source_id"]: m["path"] for m in models})


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
                value = float(json.loads(path.read_text())["fitness"])
                with self._lock:
                    self._memory[key] = value
                return value
        return None

    def put(self, key: str, fitness: float) -> None:
        with self._lock:
            self._memory[key] = fitness
        if self.directory:
            path = self.directory / f"{key}.json"
            # one temp file per writer: writers of the same key must not share it
            tmp = path.with_name(f"{key}.{uuid.uuid4().hex}.tmp")
            tmp.write_text(json.dumps({"fitness": fitness}))
            os.replace(tmp, path)


def evaluate_candidate(recipe: MergeRecipe, evaluator, workdir, sources: SourceSet,
                       cache: FitnessCache = None, retries: int = 1,
                       tag: str = "candidate") -> tuple:
    """Merge per recipe, score the written checkpoint, memoize.

    Returns (fitness, invoked) where invoked is False on a cache hit.
    """
    key = FitnessCache.key(recipe, sources.digest, evaluator.evaluator_id)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit, False
    merged = merge(sources.base, sources.vectors, recipe)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{tag}.st"
    save_checkpoint(merged, path)
    last_error = None
    for _ in range(max(1, retries + 1)):
        try:
            fitness = evaluator.evaluate(path)
            last_error = None
            break
        except (EvaluatorFailed, EvaluatorProtocol) as exc:
            last_error = exc
    if last_error is not None:
        raise last_error
    if cache is not None:
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
    lambda_scale: float = 1.0
    iterations: int = DEFAULT_ITERATIONS
    pop_size: int = None
    sigma0: float = DEFAULT_SIGMA0
    seed: int = 0
    cache_dir: str = None
    threads: int = 1
    retries: int = 1

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not self.models:
            raise ValueError("config lists no models")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if not isinstance(self.evaluator, dict):
            raise ValueError(f"evaluator must be an object, got {self.evaluator!r}")
        if self.pop_size is not None and (type(self.pop_size) is not int or self.pop_size < 2):
            raise ValueError(f"pop_size must be null or an integer >= 2, got {self.pop_size!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ValueError(f"cache_dir must be null or a string, got {self.cache_dir!r}")


def config_from_json_obj(obj: dict) -> SearchConfig:
    where = "search config: "
    try:
        config = SearchConfig(
            method=want_str(obj, "method", where=where),
            group_size=want_int(obj, "group_size", where=where),
            base_path=want_str(obj, "base_path", where=where),
            models=[
                {"source_id": want_str(m, "source_id", where=f"{where}models[{i}]."),
                 "path": want_str(m, "path", where=f"{where}models[{i}].")}
                for i, m in enumerate(obj["models"])
            ],
            evaluator=obj["evaluator"],
            lambda_scale=want_number(obj, "lambda_scale", 1.0, where),
            iterations=want_int(obj, "iterations", DEFAULT_ITERATIONS, where),
            pop_size=obj.get("pop_size"),
            sigma0=want_number(obj, "sigma0", DEFAULT_SIGMA0, where),
            seed=want_int(obj, "seed", 0, where),
            cache_dir=obj.get("cache_dir"),
            threads=want_int(obj, "threads", 1, where),
            retries=want_int(obj, "retries", 1, where),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"search config missing or malformed field: {exc}") from exc
    config.validate()
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


def _persist(state_path: Path, payload: dict) -> None:
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, state_path)


def run_search(config: SearchConfig, workdir, resume: bool = False,
               sources: SourceSet = None) -> SearchResult:
    """Iterated ask/evaluate/tell maximization of candidate fitness.

    State is persisted to <workdir>/search_state.json after every
    generation; ``resume=True`` continues from it when present.
    """
    config.validate()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if sources is None:
        sources = load_sources(config.base_path, config.models)

    _, num_groups = group_count(sources.base.metadata, config.group_size)
    template = RecipeTemplate(
        method=config.method,
        group_size=config.group_size,
        num_groups=num_groups,
        source_ids=[m["source_id"] for m in config.models],
        lambda_scale=config.lambda_scale,
        model_paths={m["source_id"]: m["path"] for m in config.models},
    )
    dim = template.genome_length
    pop = config.pop_size or default_pop_size(dim)

    evaluator = make_evaluator(config.evaluator)
    cache = FitnessCache(os.environ.get("UMM_CACHE_DIR") or config.cache_dir)
    fingerprint = _search_fingerprint(config, sources.digest, dim, pop)
    state_path = workdir / "search_state.json"

    def score(recipe: MergeRecipe, tag: str) -> tuple:
        return evaluate_candidate(
            recipe, evaluator, workdir, sources, cache=cache,
            retries=config.retries, tag=tag,
        )

    def save_state() -> None:
        _persist(state_path, {
            "fingerprint": fingerprint,
            "cmaes": state_to_json_obj(state),
            "best_genome": best_genome.tolist(),
            "best_fitness": best_fitness,
            "history": history,
            "evaluations": evaluations,
            "invocations": invocations,
        })

    if resume and state_path.exists():
        saved = json.loads(state_path.read_text())
        if saved.get("fingerprint") != fingerprint:
            raise ValueError("search_state.json does not match this configuration")
        state = state_from_json_obj(saved["cmaes"])
        best_genome = np.asarray(saved["best_genome"], dtype=np.float64)
        best_fitness = float(saved["best_fitness"])
        history = list(saved["history"])
        evaluations = int(saved["evaluations"])
        invocations = int(saved["invocations"])
    else:
        best_genome = initial_mean(template)
        state = cmaes_init(dim, best_genome, config.sigma0, pop_size=pop, seed=config.seed)
        best_fitness, invoked = score(decode_genome(best_genome, template), "initial")
        evaluations = 1
        invocations = int(invoked)
        history = [{"generation": 0, "best": best_fitness, "best_so_far": best_fitness}]
        save_state()

    while state.generation < config.iterations:
        genomes = cmaes_ask(state)
        recipes = [decode_genome(g, template) for g in genomes]
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
        cmaes_tell(state, genomes, fitnesses, maximize=True)
        history.append({
            "generation": state.generation,
            "best": float(fitnesses[gen_best_idx]),
            "best_so_far": best_fitness,
        })
        save_state()

    return SearchResult(
        best_genome=best_genome,
        best_recipe=decode_genome(best_genome, template),
        best_fitness=best_fitness,
        history=history,
        evaluations=evaluations,
        evaluator_invocations=invocations,
        generations=state.generation,
        pop_size=pop,
    )
