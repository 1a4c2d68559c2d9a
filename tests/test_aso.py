"""Atom-search checks: analytic spot values, schedule monotonicity,
benchmark convergence against a random-search baseline, and the
hyperparameter decode contract."""

import ctypes
import dataclasses
import logging
import multiprocessing
import os

import numpy as np
import pytest

from dosids import aso, parallel
from dosids.alexclf import Hyperparameters
from dosids.aso import (AsoConfig, SearchSpace, BATCH_CHOICES, H_MAX, H_MIN_BASE,
                        compute_masses, constraint_force, decode_hyperparameters,
                        depth_function, drift_factor, hyperparameter_space,
                        interaction_forces, k_best_count, lagrange_multiplier,
                        length_scale, optimize, random_search, step,
                        tune_hyperparameters)
from dosids.seeding import substream
from dosids.settings import check_settings


def test_masses_endpoints():
    m = compute_masses([1.0, 2.0])
    scaled = np.array([1.0, np.exp(-1.0)])
    assert np.allclose(m, scaled / scaled.sum(), atol=1e-15)


def test_masses_three_atoms_spot_values():
    m = compute_masses([1.0, 2.0, 3.0])
    scaled = np.array([1.0, np.exp(-0.5), np.exp(-1.0)])
    expected = scaled / scaled.sum()
    assert np.abs(m - expected).max() < 1e-12


def test_masses_uniform_when_flat():
    assert np.allclose(compute_masses([4.0] * 5), 0.2)


def test_masses_properties():
    rng = np.random.default_rng(0)
    fit = rng.normal(size=40)
    m = compute_masses(fit)
    assert np.isclose(m.sum(), 1.0, atol=1e-12)
    assert np.all(m > 0)
    assert m.argmax() == fit.argmin()  # best atom is heaviest


def test_masses_reject_nan():
    with pytest.raises(ValueError):
        compute_masses([1.0, np.nan])


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_masses_reject_infinite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        compute_masses([1.0, bad, 2.0])


def test_depth_function_spot_value():
    cfg = AsoConfig(depth_weight=50.0, iterations=100)
    assert np.isclose(depth_function(1, cfg), 50.0 * np.exp(-0.2))


def test_depth_function_vanishes_at_end():
    cfg = AsoConfig(depth_weight=50.0, iterations=100)
    assert depth_function(100, cfg) == pytest.approx(
        50.0 * (1.0 / 100.0) ** 3 * np.exp(-20.0))
    assert all(depth_function(nt, cfg) > 0 for nt in range(1, 101))


def test_schedules_strictly_decreasing():
    cfg = AsoConfig(iterations=200)
    eta = [depth_function(nt, cfg) for nt in range(1, 201)]
    lam = [lagrange_multiplier(nt, cfg) for nt in range(1, 201)]
    assert all(a > b for a, b in zip(eta, eta[1:]))
    assert all(a > b for a, b in zip(lam, lam[1:]))


def test_drift_factor_values():
    cfg = AsoConfig(iterations=100)
    assert drift_factor(100, cfg) == 0.1
    assert drift_factor(50, cfg) == pytest.approx(0.1 * np.sin(np.pi / 4))
    assert drift_factor(1, cfg) < 0.002


def test_lagrange_multiplier_endpoint():
    cfg = AsoConfig(multiplier_weight=0.2, iterations=77)
    expected = 0.2 * np.exp(-20.0)
    assert abs(lagrange_multiplier(77, cfg) - expected) / expected < 1e-15


def test_k_best_count_schedule():
    assert k_best_count(200, 10, 200) == 2
    assert k_best_count(50, 10, 200) == 6       # sqrt(1/4) = 1/2
    assert k_best_count(0, 10, 200) == 10       # start-of-run limit
    ks = [k_best_count(nt, 10, 200) for nt in range(1, 201)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


def test_length_scale_cases():
    assert length_scale([0.0, 0.0], [[3.0, 4.0], [3.0, 4.0]]) == 5.0
    assert length_scale([1.0, 2.0], [[1.0, 2.0]]) == 0.0
    assert length_scale([0.0, 0.0], [[6.0, 8.0]]) == 10.0


def test_h_scaled_distance_clamps():
    """The pair distance over the length scale is clamped into
    [h_min, h_max] before the force bracket: the force from one neighbour
    matches the force computed by hand from the clamped value."""
    cfg = AsoConfig(iterations=100)
    h_min = H_MIN_BASE + drift_factor(10, cfg)
    eta = depth_function(10, cfg)
    cases = [(0.8, 1.0, h_min),        # ratio below the floor
             (1.15, 1.0, 1.15),        # pass-through region
             (2.0, 1.0, H_MAX),        # above the ceiling
             (1.0, 0.0, h_min)]        # degenerate length scale
    for distance, sigma, h in cases:
        draw = substream(4, "pair").random(1)[0]
        force = interaction_forces(np.zeros((1, 1)), np.array([[distance]]),
                                   np.array([sigma]), substream(4, "pair").random((1, 1)),
                                   10, cfg)[0]
        expected = draw * (-eta * (2.0 * h ** -13.0 - h ** -7.0))
        assert np.isclose(force[0], expected, rtol=1e-12, atol=0.0), (distance, sigma)


def test_force_bracket_regimes():
    # short range repels, long range attracts
    h = 1.1
    assert 2 * h ** -13 - h ** -7 > 0
    h = 1.24
    assert 2 * h ** -13 - h ** -7 < 0


def test_interaction_force_directions():
    cfg = AsoConfig(iterations=100, seed=0)
    x_i = np.zeros((1, 2))
    neighbor = np.array([[1.0, 0.0]])
    ones = np.ones((1, 1))

    # ratio clamped to h_min -> repulsive bracket -> force away from neighbor
    force = interaction_forces(x_i, neighbor, np.array([10.0]), ones, 10, cfg)[0]
    assert force[0] < 0
    # ratio clamped to h_max -> attractive bracket -> force toward neighbor
    force = interaction_forces(x_i, neighbor, np.array([0.1]), ones, 10, cfg)[0]
    assert force[0] > 0


def test_interaction_force_self_only_is_zero():
    cfg = AsoConfig(iterations=50)
    force = interaction_forces(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]),
                               np.array([1.0]), substream(0, "t").random((1, 1)), 5, cfg)[0]
    assert np.array_equal(force, np.zeros(2))


def test_constraint_force_geometry():
    cfg = AsoConfig(multiplier_weight=0.2, iterations=100)
    assert np.array_equal(constraint_force([1.0, 2.0], [1.0, 2.0], 10, cfg),
                          np.zeros(2))
    force = constraint_force([0.0, 0.0], [3.0, -4.0], 10, cfg)
    assert force[0] > 0 and force[1] < 0  # points from x_i toward best


def test_step_stationary_fixed_point():
    # one dominant atom at the best position with zero velocity stays put
    cfg = AsoConfig(population=2, iterations=10, seed=3,
                    multiplier_weight=1e-30, depth_weight=1e-30)
    space = SearchSpace([-5.0, -5.0], [5.0, 5.0])
    positions = np.array([[1.0, 1.0], [1.0, 1.0]])
    velocities = np.zeros((2, 2))
    new_pos, new_vel = step(positions, velocities, np.array([0.0, 1.0]),
                            positions[0], 1, cfg, space)
    assert np.allclose(new_pos, positions, atol=1e-20)


def test_step_clamps_to_bounds_and_zeroes_velocity():
    cfg = AsoConfig(population=2, iterations=5, seed=1)
    space = SearchSpace([0.0], [1.0])
    positions = np.array([[0.99], [0.01]])
    velocities = np.array([[50.0], [-50.0]])
    new_pos, new_vel = step(positions, velocities, np.array([0.1, 0.2]),
                            positions[0], 1, cfg, space)
    assert np.all(new_pos >= 0.0) and np.all(new_pos <= 1.0)
    assert new_vel[0, 0] == 0.0 and new_vel[1, 0] == 0.0


def test_optimize_sphere_small_budget():
    space = SearchSpace([-5.0, -5.0], [5.0, 5.0])
    result = optimize(lambda x: float((x ** 2).sum()), space,
                      AsoConfig(population=12, iterations=60, seed=4))
    assert result.fitness < 1e-2
    assert result.evaluations == 12 * 61


def test_optimize_constant_objective():
    space = SearchSpace([0.0], [1.0])
    result = optimize(lambda x: 7.5, space, AsoConfig(population=4, iterations=5, seed=0))
    assert result.fitness == 7.5


def test_optimize_deterministic():
    space = SearchSpace([-2.0, -2.0], [2.0, 2.0])
    cfg = AsoConfig(population=8, iterations=25, seed=11)
    rosen = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
    a = optimize(rosen, space, cfg)
    b = optimize(rosen, space, cfg)
    assert np.array_equal(a.position, b.position)
    assert a.fitness == b.fitness
    assert a.trace == b.trace


def test_optimize_trace_non_increasing_and_bounded():
    space = SearchSpace([-5.0] * 3, [5.0] * 3)
    result = optimize(lambda x: float(np.abs(x).sum()), space,
                      AsoConfig(population=10, iterations=40, seed=2))
    best = [row[1] for row in result.trace]
    assert all(a >= b for a, b in zip(best, best[1:]))
    assert len(result.trace) == 40
    assert np.all(result.position >= -5.0) and np.all(result.position <= 5.0)


def test_optimize_k_trace_hits_two():
    space = SearchSpace([-1.0], [1.0])
    result = optimize(lambda x: float(x[0] ** 2), space,
                      AsoConfig(population=7, iterations=30, seed=5))
    assert result.trace[-1][3] == 2


def test_optimize_nan_resample_then_abort():
    space = SearchSpace([0.0], [1.0])

    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        return np.nan if calls["n"] == 1 else float(x[0])

    result = optimize(flaky, space, AsoConfig(population=3, iterations=2, seed=6))
    assert np.isfinite(result.fitness)

    with pytest.raises(RuntimeError):
        optimize(lambda x: np.nan, space, AsoConfig(population=3, iterations=2, seed=6))


def test_config_validation():
    with pytest.raises(ValueError):
        check_settings(AsoConfig(population=1))
    with pytest.raises(ValueError):
        SearchSpace([0.0], [0.0])


def reference_decode_hyperparameters(position) -> Hyperparameters:
    """The generic per-dimension decoder the tuner used before
    decode_hyperparameters read the five coordinates directly, kept as its
    oracle: continuous dimensions as is, integer ones rounded and clipped,
    and the categorical batch index rounded, clipped and looked up."""
    space = hyperparameter_space()
    kinds = ["continuous", "continuous", "continuous", "categorical", "integer"]
    values = []
    for i, v in enumerate(np.asarray(position, dtype=np.float64)):
        if kinds[i] == "continuous":
            values.append(float(v))
        elif kinds[i] == "integer":
            values.append(int(np.clip(round(v), space.lower[i], space.upper[i])))
        else:
            values.append(BATCH_CHOICES[int(np.clip(round(v), space.lower[i], space.upper[i]))])
    momentum, log_lr, log_wd, batch, epochs = values
    return Hyperparameters(momentum=momentum, weight_decay=10.0 ** log_wd,
                           epochs=epochs, learning_rate=10.0 ** log_lr,
                           batch_size=batch)


def assert_decodes_like_reference(positions):
    for position in positions:
        got = dataclasses.astuple(decode_hyperparameters(position))
        want = dataclasses.astuple(reference_decode_hyperparameters(position))
        assert got == want, position
        assert [type(v) for v in got] == [type(v) for v in want], position


def test_decode_matches_reference_on_random_positions():
    space = hyperparameter_space()
    rng = np.random.default_rng(21)
    assert_decodes_like_reference(rng.uniform(space.lower, space.upper, (4000, 5)))
    # a box one span wider on every side, where only the clip keeps the
    # batch index and the epochs in range
    span = space.upper - space.lower
    assert_decodes_like_reference(rng.uniform(space.lower - span, space.upper + span,
                                              (2000, 5)))


def test_decode_matches_reference_on_every_half_point():
    space = hyperparameter_space()
    rng = np.random.default_rng(22)
    # every half-point of both axes, plus the one just outside each end
    batches = np.arange(space.lower[3] - 0.5, space.upper[3] + 0.75, 0.5)
    epochs = np.arange(space.lower[4] - 0.5, space.upper[4] + 0.75, 0.5)
    grid = np.array([[b, e] for b in batches for e in epochs])
    positions = rng.uniform(space.lower, space.upper, (len(grid), 5))
    positions[:, 3:] = grid
    assert len(positions) == 9 * 163
    assert_decodes_like_reference(positions)


def test_decode_matches_reference_on_both_corners():
    space = hyperparameter_space()
    span = space.upper - space.lower
    assert_decodes_like_reference([space.lower, space.upper,
                                   space.lower - span, space.upper + span])
    assert decode_hyperparameters(space.lower).batch_size == BATCH_CHOICES[0]
    assert decode_hyperparameters(space.upper).epochs == 100


def test_decode_hyperparameters_valid_everywhere():
    space = hyperparameter_space()
    rng = np.random.default_rng(12)
    for _ in range(200):
        hp = decode_hyperparameters(rng.uniform(space.lower, space.upper))
        check_settings(hp)
        assert hp.batch_size in BATCH_CHOICES
        assert 20 <= hp.epochs <= 100


def test_reference_optimum_is_representable():
    hp = decode_hyperparameters([0.9, -3.0, np.log10(0.005), 1.0, 100.0])
    ref = Hyperparameters()
    assert hp.momentum == ref.momentum
    assert np.isclose(hp.learning_rate, ref.learning_rate, rtol=1e-12)
    assert np.isclose(hp.weight_decay, ref.weight_decay, rtol=1e-12)
    assert hp.batch_size == ref.batch_size
    assert hp.epochs == ref.epochs


def test_tune_recovers_planted_optimum():
    target = np.array([0.9, -3.0, np.log10(0.005), 1.0, 60.0])
    space = hyperparameter_space()
    scale = space.upper - space.lower

    def trainable(hp: Hyperparameters) -> float:
        pos = np.array([hp.momentum, np.log10(hp.learning_rate),
                        np.log10(hp.weight_decay),
                        BATCH_CHOICES.index(hp.batch_size), hp.epochs])
        return float((np.abs(pos - target) / scale).sum())

    result = tune_hyperparameters(trainable, AsoConfig(population=16, iterations=60, seed=3))
    hp = result.hyperparameters
    assert hp.batch_size == 32
    assert abs(hp.momentum - 0.9) < 0.049
    assert abs(np.log10(hp.learning_rate) + 3.0) < 0.3
    assert abs(np.log10(hp.weight_decay) - np.log10(0.005)) < 0.25
    assert abs(hp.epochs - 60) <= 8


def test_aso_beats_random_search_on_sphere():
    space = SearchSpace([-5.0, -5.0], [5.0, 5.0])
    sphere = lambda x: float((x ** 2).sum())
    cfg = AsoConfig(population=20, iterations=200, seed=8)
    aso_result = optimize(sphere, space, cfg)
    _, rs_best = random_search(sphere, space, aso_result.evaluations, seed=8)
    assert aso_result.fitness * 10.0 <= rs_best


def _nan_on_ridge(x):
    """Sphere with a NaN stripe, so that some atoms need resampling."""
    return float("nan") if x[0] > 0.9 else float((x ** 2).sum())


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_optimize_treats_infinite_fitness_as_nan(bad):
    """An infinite value resamples the atom exactly as NaN does, so no
    position the objective sees is ever NaN; a resample that is still
    infinite stops the search."""
    space = SearchSpace([-1.0, -1.0], [1.0, 1.0])
    cfg = AsoConfig(population=6, iterations=10, seed=3)
    seen = []

    def inf_on_ridge(x):
        seen.append(x.copy())
        return bad if x[0] > 0.9 else float((x ** 2).sum())

    result = optimize(inf_on_ridge, space, cfg)
    reference = optimize(_nan_on_ridge, space, cfg)
    assert np.isfinite(np.array(seen)).all()
    assert result.position.tobytes() == reference.position.tobytes()
    assert result.fitness == reference.fitness and result.trace == reference.trace
    with pytest.raises(RuntimeError, match="resampled atom"):
        optimize(lambda x: bad, space, cfg)


def test_optimize_same_result_on_one_and_two_workers(caplog):
    space = SearchSpace([-1.0, -1.0], [1.0, 1.0])
    cfg = AsoConfig(population=6, iterations=10, seed=3)
    results = []
    for workers in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dosids.aso"):
            results.append(optimize(_nan_on_ridge, space, cfg, workers=workers))
        assert any("resampled" in r.getMessage() for r in caplog.records)
    one, two = results
    assert one.position.tobytes() == two.position.tobytes()
    assert one.fitness == two.fitness and one.trace == two.trace
    assert one.evaluations == two.evaluations == 6 * 11
    assert multiprocessing.active_children() == []


def test_tune_same_result_on_one_and_two_cpus(monkeypatch, tmp_path):
    """The worker count comes from the CPUs available; the result must not
    depend on it, and no worker may outlive the call."""
    def trainable(hp):
        (tmp_path / str(os.getpid())).touch()
        return abs(hp.momentum - 0.8) + abs(np.log10(hp.learning_rate) + 2.0)

    cfg = AsoConfig(population=6, iterations=4, seed=9)
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        results[cpus] = tune_hyperparameters(trainable, cfg)
        assert multiprocessing.active_children() == []
    pids = {int(p.name) for p in tmp_path.iterdir()}
    assert os.getpid() in pids and 1 <= len(pids - {os.getpid()}) <= 2
    one, two = results[1], results[2]
    assert one.hyperparameters == two.hyperparameters
    assert one.validation_error == two.validation_error
    assert one.trace == two.trace and one.evaluations == two.evaluations


def test_tune_worker_error_propagates_and_reaps(monkeypatch):
    def trainable(hp):
        if hp.batch_size == 128:
            raise ValueError("proxy run failed")
        return hp.momentum

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(ValueError, match="proxy run failed"):
        tune_hyperparameters(trainable, AsoConfig(population=8, iterations=3, seed=1))
    assert multiprocessing.active_children() == []


def test_tune_workers_run_blas_on_one_thread(monkeypatch, tmp_path):
    get_threads = parallel.openblas_function(
        ("openblas_get_num_threads", "openblas_get_num_threads64_",
         "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"))
    if get_threads is None:
        pytest.skip("no OpenBLAS with a known thread-count getter is loaded")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int

    def trainable(hp):
        (tmp_path / f"{os.getpid()}-{get_threads()}").touch()
        return hp.momentum

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    tune_hyperparameters(trainable, AsoConfig(population=4, iterations=1, seed=0))
    assert {p.name.split("-")[1] for p in tmp_path.iterdir()} == {"1"}
