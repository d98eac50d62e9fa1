"""Covariance matrix adaptation evolution strategy, self-contained.

Rank-one plus rank-mu update with cumulative step-size adaptation,
using the standard tutorial parameterization: population 4 + floor(3 ln n),
mu = floor(pop/2) recombination points with log weights, and the usual
learning rates c_sigma, d_sigma, c_c, c_1, c_mu derived from mu_eff.
The implementation minimizes; callers maximizing a fitness negate it.

State is a plain dataclass that serializes to JSON (including the PCG64
generator state) so long searches can be checkpointed and resumed
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from umm.errors import (
    CovarianceNotPD,
    InvalidDimension,
    LengthMismatch,
    MalformedInput,
    NonFiniteFitness,
    StepSizeOutOfRange,
)
from umm.jsonl import want_int, want_number, want_numbers, want_object, want_str

SIGMA_MIN = 1e-300
SIGMA_MAX = 1e300
EIG_FLOOR_RATIO = 1e-14


def default_pop_size(dim: int) -> int:
    return 4 + int(3 * math.log(dim))


@dataclass
class CmaesParams:
    """Strategy constants derived from dimension and population size."""

    dim: int
    pop_size: int
    mu: int
    weights: np.ndarray
    mueff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float

    @staticmethod
    def make(dim: int, pop_size: int) -> "CmaesParams":
        n = float(dim)
        mu = pop_size // 2
        raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1, dtype=np.float64))
        weights = raw / raw.sum()
        mueff = float(1.0 / np.sum(weights**2))
        c_sigma = (mueff + 2.0) / (n + mueff + 5.0)
        d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
        c_c = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
        c_1 = 2.0 / ((n + 1.3) ** 2 + mueff)
        c_mu = min(1.0 - c_1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((n + 2.0) ** 2 + mueff))
        chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
        return CmaesParams(dim, pop_size, mu, weights, mueff,
                           c_sigma, d_sigma, c_c, c_1, c_mu, chi_n)


@dataclass
class CmaesState:
    """Full mutable search-distribution state."""

    params: CmaesParams
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    path_sigma: np.ndarray
    path_cov: np.ndarray
    generation: int
    rng: np.random.Generator
    # eigendecomposition cache, refreshed whenever cov changes
    eig_vectors: np.ndarray = field(default=None, repr=False)
    eig_sqrt: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def pop_size(self) -> int:
        return self.params.pop_size


def _decompose(state: CmaesState) -> None:
    """Refresh the eigendecomposition cache; enforce positive definiteness."""
    cov = 0.5 * (state.cov + state.cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[-1] <= 0 or eigvals[0] <= EIG_FLOOR_RATIO * eigvals[-1]:
        raise CovarianceNotPD(
            f"covariance eigenvalues [{eigvals[0]:.3e}, {eigvals[-1]:.3e}] "
            f"violate the positive-definiteness floor"
        )
    state.cov = cov
    state.eig_vectors = eigvecs
    state.eig_sqrt = np.sqrt(eigvals)


def cmaes_init(dim: int, mean0, sigma0: float, pop_size: int = None, seed: int = 0) -> CmaesState:
    """Fresh state: identity covariance, zero paths, generation 0."""
    if not isinstance(dim, int) or dim < 1:
        raise InvalidDimension(f"dim must be a positive integer, got {dim!r}")
    if not SIGMA_MIN < sigma0 < SIGMA_MAX:
        raise StepSizeOutOfRange(f"sigma0 {sigma0!r} outside ({SIGMA_MIN}, {SIGMA_MAX})")
    mean = np.asarray(mean0, dtype=np.float64).reshape(-1).copy()
    if mean.size != dim:
        raise LengthMismatch(f"mean0 has {mean.size} entries for dim {dim}")
    if pop_size is None:
        pop_size = default_pop_size(dim)
    if pop_size < 2:
        raise InvalidDimension(f"pop_size must be >= 2, got {pop_size}")
    state = CmaesState(
        params=CmaesParams.make(dim, pop_size),
        mean=mean,
        sigma=float(sigma0),
        cov=np.eye(dim),
        path_sigma=np.zeros(dim),
        path_cov=np.zeros(dim),
        generation=0,
        rng=np.random.default_rng(seed),
    )
    _decompose(state)
    return state


def cmaes_ask(state: CmaesState) -> list:
    """Sample pop_size candidates from N(mean, sigma^2 C).

    Each call consumes generator state, so repeated asks yield fresh
    draws unless the caller restores the rng.
    """
    z = state.rng.standard_normal((state.pop_size, state.dim))
    steps = (z * state.eig_sqrt) @ state.eig_vectors.T
    return [state.mean + state.sigma * step for step in steps]


def cmaes_tell(state: CmaesState, genomes: list, fitnesses) -> CmaesState:
    """One generation update from evaluated candidates.

    Candidates are ranked lowest fitness first; ranking ties resolve by
    candidate index.
    """
    p = state.params
    if len(genomes) != p.pop_size or len(fitnesses) != p.pop_size:
        raise LengthMismatch(
            f"expected {p.pop_size} genomes and fitnesses, got "
            f"{len(genomes)} and {len(fitnesses)}"
        )
    values = np.asarray(fitnesses, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise NonFiniteFitness(f"fitness values contain NaN/Inf: {values.tolist()}")

    order = np.argsort(values, kind="stable")
    selected = np.stack([np.asarray(genomes[i], dtype=np.float64) for i in order[: p.mu]])

    mean_old = state.mean
    mean_new = p.weights @ selected
    y_w = (mean_new - mean_old) / state.sigma

    inv_sqrt = state.eig_vectors @ np.diag(1.0 / state.eig_sqrt) @ state.eig_vectors.T

    c_s, d_s = p.c_sigma, p.d_sigma
    state.path_sigma = (1.0 - c_s) * state.path_sigma + math.sqrt(
        c_s * (2.0 - c_s) * p.mueff
    ) * (inv_sqrt @ y_w)

    gen1 = state.generation + 1
    ps_norm = float(np.linalg.norm(state.path_sigma))
    hsig = float(
        ps_norm / math.sqrt(1.0 - (1.0 - c_s) ** (2 * gen1)) / p.chi_n
        < 1.4 + 2.0 / (p.dim + 1.0)
    )
    state.path_cov = (1.0 - p.c_c) * state.path_cov + hsig * math.sqrt(
        p.c_c * (2.0 - p.c_c) * p.mueff
    ) * y_w

    # rank-one + rank-mu covariance update; c1a compensates a missed
    # rank-one contribution when hsig is 0
    c1a = p.c_1 * (1.0 - (1.0 - hsig) * p.c_c * (2.0 - p.c_c))
    cov = (1.0 - c1a - p.c_mu) * state.cov
    cov += p.c_1 * np.outer(state.path_cov, state.path_cov)
    y_sel = (selected - mean_old) / state.sigma
    cov += p.c_mu * (y_sel.T * p.weights) @ y_sel
    state.cov = cov

    state.sigma *= math.exp(min(1.0, (c_s / d_s) * (ps_norm / p.chi_n - 1.0)))
    if not (SIGMA_MIN < state.sigma < SIGMA_MAX):
        raise StepSizeOutOfRange(f"sigma {state.sigma!r} left ({SIGMA_MIN}, {SIGMA_MAX})")

    state.mean = mean_new
    state.generation = gen1
    _decompose(state)
    return state


# --- persistence --------------------------------------------------------------

def state_to_json_obj(state: CmaesState) -> dict:
    return {
        "dim": state.dim,
        "pop_size": state.pop_size,
        "mean": state.mean.tolist(),
        "sigma": state.sigma,
        "cov": state.cov.reshape(-1).tolist(),
        "path_sigma": state.path_sigma.tolist(),
        "path_cov": state.path_cov.tolist(),
        "generation": state.generation,
        "rng_state": _rng_state_to_obj(state.rng),
    }


def state_from_json_obj(obj: dict, where: str = "") -> CmaesState:
    """The state ``state_to_json_obj`` wrote.  A field of the wrong type or
    length, a number that is not finite, a ``sigma`` outside
    (SIGMA_MIN, SIGMA_MAX) or a negative ``generation`` raises
    MalformedInput naming ``where`` and the field."""
    dim = want_int(obj, "dim", where=where)
    pop_size = want_int(obj, "pop_size", where=where)
    if dim < 1 or pop_size < 2:
        raise MalformedInput(f"{where}dim {dim} must be >= 1 and pop_size {pop_size} >= 2")
    sigma = want_number(obj, "sigma", where=where)
    if not SIGMA_MIN < sigma < SIGMA_MAX:
        raise MalformedInput(f"{where}sigma {sigma!r} outside ({SIGMA_MIN}, {SIGMA_MAX})")
    generation = want_int(obj, "generation", where=where)
    if generation < 0:
        raise MalformedInput(f"{where}generation {generation} must be >= 0")

    def vector(key: str, size: int) -> np.ndarray:
        values = np.asarray(want_numbers(obj, key, where=where), dtype=np.float64)
        if values.size != size:
            raise MalformedInput(f"{where}{key} has {values.size} entries, expected {size}")
        return values

    state = CmaesState(
        params=CmaesParams.make(dim, pop_size),
        mean=vector("mean", dim),
        sigma=sigma,
        cov=vector("cov", dim * dim).reshape(dim, dim),
        path_sigma=vector("path_sigma", dim),
        path_cov=vector("path_cov", dim),
        generation=generation,
        rng=_rng_from_obj(want_object(obj, "rng_state", where=where), f"{where}rng_state."),
    )
    _decompose(state)
    return state


def _rng_state_to_obj(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return {
        "bit_generator": st["bit_generator"],
        "state": str(st["state"]["state"]),
        "inc": str(st["state"]["inc"]),
        "has_uint32": st["has_uint32"],
        "uinteger": st["uinteger"],
    }


def _want_uint(obj: dict, key: str, where: str) -> int:
    """A non-negative integer written as a decimal string."""
    text = want_str(obj, key, where=where)
    if not text.isdecimal():
        raise MalformedInput(f"{where}{key} must be a decimal integer string, got {text!r}")
    return int(text)


def _rng_from_obj(obj: dict, where: str = "") -> np.random.Generator:
    state = {
        "bit_generator": want_str(obj, "bit_generator", where=where),
        "state": {"state": _want_uint(obj, "state", where), "inc": _want_uint(obj, "inc", where)},
        "has_uint32": want_int(obj, "has_uint32", where=where),
        "uinteger": want_int(obj, "uinteger", where=where),
    }
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"{where.rstrip('.')} is not a PCG64 generator state: {exc}") from exc
    return rng
