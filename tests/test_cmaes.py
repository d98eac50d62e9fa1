import json
import math

import numpy as np
import pytest

from umm.cmaes import (
    CmaesParams,
    cmaes_ask,
    cmaes_init,
    cmaes_tell,
    default_pop_size,
    state_from_json_obj,
    state_to_json_obj,
)
from umm.errors import (
    CovarianceNotPD,
    InvalidDimension,
    LengthMismatch,
    NonFiniteFitness,
    StepSizeOutOfRange,
)


def sphere(x):
    return float(np.sum(x * x))


# --- init ------------------------------------------------------------------

def test_init_dim1_identity_cov():
    state = cmaes_init(1, [0.0], 0.3)
    assert state.cov.tolist() == [[1.0]]
    assert state.generation == 0
    assert np.all(state.path_sigma == 0) and np.all(state.path_cov == 0)


def test_default_pop_size_dim10():
    assert default_pop_size(10) == 4 + int(3 * math.log(10)) == 10
    state = cmaes_init(10, np.zeros(10), 0.5)
    assert state.pop_size == 10


def test_init_same_seed_same_state():
    a = cmaes_init(3, [1.0, 2.0, 3.0], 0.5, seed=42)
    b = cmaes_init(3, [1.0, 2.0, 3.0], 0.5, seed=42)
    assert np.array_equal(a.mean, b.mean)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert np.array_equal(cmaes_ask(a)[0], cmaes_ask(b)[0])


def test_init_rejects_bad_dim():
    with pytest.raises(InvalidDimension):
        cmaes_init(0, [], 0.5)


def test_init_rejects_bad_sigma():
    with pytest.raises(StepSizeOutOfRange):
        cmaes_init(2, [0.0, 0.0], 0.0)


def test_init_rejects_mean_length():
    with pytest.raises(LengthMismatch):
        cmaes_init(3, [0.0, 0.0], 0.5)


def test_params_standard_formulas():
    p = CmaesParams.make(10, 10)
    assert p.mu == 5
    raw = np.log(5.5) - np.log(np.arange(1, 6))
    np.testing.assert_allclose(p.weights, raw / raw.sum())
    mueff = 1.0 / np.sum(p.weights**2)
    np.testing.assert_allclose(p.mueff, mueff)
    np.testing.assert_allclose(p.c_sigma, (mueff + 2) / (10 + mueff + 5))
    np.testing.assert_allclose(p.c_1, 2.0 / (11.3**2 + mueff))
    np.testing.assert_allclose(p.chi_n, math.sqrt(10) * (1 - 1 / 40 + 1 / 2100))


# --- ask ----------------------------------------------------------------------

def test_ask_degenerate_sigma_hugs_mean():
    state = cmaes_init(4, [1.0, -2.0, 3.0, 0.5], 1e-12, seed=1)
    for genome in cmaes_ask(state):
        assert np.all(np.abs(genome - state.mean) < 1e-10)


def test_ask_sample_covariance_matches():
    state = cmaes_init(2, [0.0, 0.0], 0.7, pop_size=100000, seed=7)
    samples = np.stack(cmaes_ask(state))
    emp = np.cov(samples.T, bias=True)
    target = 0.49
    assert abs(emp[0, 0] - target) < 0.05 * target
    assert abs(emp[1, 1] - target) < 0.05 * target
    assert abs(emp[0, 1]) < 0.05 * target


def test_ask_advances_rng():
    state = cmaes_init(3, np.zeros(3), 0.5, seed=5)
    saved = state.rng.bit_generator.state
    first = cmaes_ask(state)
    second = cmaes_ask(state)
    assert not np.array_equal(first[0], second[0])
    state.rng.bit_generator.state = saved
    replay = cmaes_ask(state)
    assert np.array_equal(first[0], replay[0])


def test_resumed_state_with_a_singular_cov_is_rejected():
    saved = state_to_json_obj(cmaes_init(2, [0.0, 0.0], 0.5))
    saved["cov"] = [1.0, 1.0, 1.0, 1.0]
    with pytest.raises(CovarianceNotPD):
        state_from_json_obj(saved)


# --- tell -----------------------------------------------------------------------

def test_tell_equal_fitnesses_stays_finite():
    state = cmaes_init(3, np.zeros(3), 0.5, seed=3)
    genomes = cmaes_ask(state)
    cmaes_tell(state, genomes, [1.0] * state.pop_size)
    assert np.all(np.isfinite(state.mean))
    assert np.all(np.isfinite(state.cov))
    assert state.generation == 1


def test_tell_length_mismatch():
    state = cmaes_init(2, np.zeros(2), 0.5)
    genomes = cmaes_ask(state)
    with pytest.raises(LengthMismatch):
        cmaes_tell(state, genomes, [1.0])


def test_tell_nonfinite_fitness():
    state = cmaes_init(2, np.zeros(2), 0.5)
    genomes = cmaes_ask(state)
    fits = [1.0] * state.pop_size
    fits[0] = float("nan")
    with pytest.raises(NonFiniteFitness):
        cmaes_tell(state, genomes, fits)


def test_tell_keeps_cov_symmetric_pd():
    state = cmaes_init(5, np.full(5, 2.0), 0.4, seed=11)
    for _ in range(40):
        genomes = cmaes_ask(state)
        cmaes_tell(state, genomes, [sphere(g) for g in genomes])
        assert np.max(np.abs(state.cov - state.cov.T)) < 1e-12
        eigvals = np.linalg.eigvalsh(state.cov)
        assert eigvals[0] > 1e-14 * eigvals[-1]


# --- persistence ---------------------------------------------------------------------

def test_state_json_round_trip_resumes_identically():
    base = cmaes_init(4, np.full(4, 2.0), 0.5, seed=17)
    forked = None
    for gen in range(12):
        if gen == 5:
            blob = json.dumps(state_to_json_obj(base))
            forked = state_from_json_obj(json.loads(blob))
        genomes = cmaes_ask(base)
        cmaes_tell(base, genomes, [sphere(g) for g in genomes])
        if forked is not None and gen >= 5:
            genomes_f = cmaes_ask(forked)
            cmaes_tell(forked, genomes_f, [sphere(g) for g in genomes_f])
    assert np.array_equal(base.mean, forked.mean)
    assert np.array_equal(base.cov, forked.cov)
    assert base.sigma == forked.sigma
    assert base.generation == forked.generation
    assert base.rng.bit_generator.state == forked.rng.bit_generator.state
