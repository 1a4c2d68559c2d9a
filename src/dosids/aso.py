"""Atom-search optimization over box-bounded spaces.

A population of atoms carries positions, velocities and fitness-derived
masses. Each iteration, every atom feels a Lennard-Jones-style
interaction force from the current K best atoms (K shrinks from N to 2
over the run) plus a constraint force pulling toward the best-known
position. Both force scales decay exponentially, so the swarm explores
early and settles late. Minimization convention throughout.

Per-atom, per-iteration random substreams make results independent of
evaluation order and bit-reproducible from the config seed.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .alexclf import Hyperparameters
from .seeding import substream
from .settings import check_settings, setting

log = logging.getLogger(__name__)

H_MIN_BASE = 1.1    # scaled-distance lower clamp before drift
H_MAX = 1.24        # scaled-distance upper clamp


@dataclass
class SearchSpace:
    """Box bounds; positions are continuous points inside them."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower/upper must be 1-D and the same length")
        if not np.all(self.lower < self.upper):
            raise ValueError("need lower < upper in every dimension")

    @property
    def dims(self) -> int:
        return self.lower.shape[0]


@dataclass
class AsoConfig:
    population: int = setting(20, least=2)
    iterations: int = setting(30, least=1)
    depth_weight: float = setting(50.0, above=0.0)        # interaction force scale
    multiplier_weight: float = setting(0.2, above=0.0)    # constraint force scale
    seed: int = 0


@dataclass
class AsoResult:
    position: np.ndarray
    fitness: float
    trace: list[tuple[int, float, float, int]]   # (iteration, best, mean, K)
    evaluations: int = 0


# ---- the individual update rules -----------------------------------------

def compute_masses(fitnesses) -> np.ndarray:
    """Exponentially scaled, normalized masses; the best atom is heaviest.

    All-equal fitness degenerates to uniform masses.
    """
    fit = np.asarray(fitnesses, dtype=np.float64)
    if fit.size == 0:
        raise ValueError("no atoms")
    if not np.isfinite(fit).all():
        raise ValueError("non-finite fitness reached mass computation")
    best, worst = fit.min(), fit.max()
    if worst == best:
        scaled = np.ones_like(fit)
    else:
        scaled = np.exp(-(fit - best) / (worst - best))
    return scaled / scaled.sum()


def depth_function(nt: int, cfg: AsoConfig) -> float:
    """Interaction strength: cubic ramp-down times exp(-20 nt/mT)."""
    mt = cfg.iterations
    return cfg.depth_weight * (1.0 - (nt - 1) / mt) ** 3 * math.exp(-20.0 * nt / mt)


def drift_factor(nt: int, cfg: AsoConfig) -> float:
    """Quarter-sine rise from 0 to 0.1 across the run."""
    return 0.1 * math.sin(0.5 * math.pi * nt / cfg.iterations)


def lagrange_multiplier(nt: int, cfg: AsoConfig) -> float:
    """Constraint force scale: exp(-20 nt/mT) times the multiplier weight."""
    return cfg.multiplier_weight * math.exp(-20.0 * nt / cfg.iterations)


def length_scale(x_i: np.ndarray, kbest_positions: np.ndarray) -> float:
    """Distance from x_i to the centroid of the current K-best atoms."""
    centroid = np.asarray(kbest_positions, dtype=np.float64).mean(axis=0)
    return float(np.linalg.norm(np.asarray(x_i, dtype=np.float64) - centroid))


def interaction_forces(x: np.ndarray, kbest: np.ndarray, sigma: np.ndarray,
                       rand_pair: np.ndarray, nt: int, cfg: AsoConfig) -> np.ndarray:
    """Forces on atoms x [n, d] from the K-best atoms [K, d], given each
    atom's length scale [n] and pair draws [n, K]. Each pair pulls by its
    draw times -eta * (2 h^-13 - h^-7) toward the neighbor, so a positive
    bracket repels; zero-distance pairs (the atom itself) add nothing."""
    eta = depth_function(nt, cfg)
    h_min = H_MIN_BASE + drift_factor(nt, cfg)
    diffs = kbest[None, :, :] - x[:, None, :]                 # [n, K, d]
    dist = np.linalg.norm(diffs, axis=2)                      # [n, K]
    live = dist > 0.0
    flat = sigma <= 0.0
    h = np.clip(dist / np.where(flat, 1.0, sigma)[:, None], h_min, H_MAX)
    h[flat] = h_min
    magnitude = -eta * (2.0 * h ** -13.0 - h ** -7.0)
    unit = np.divide(diffs, dist[:, :, None], out=np.zeros_like(diffs),
                     where=live[:, :, None])
    forces = ((rand_pair * magnitude)[:, :, None] * unit).sum(axis=1)
    forces[~live.any(axis=1)] = 0.0   # +0.0, not the -0.0 a sum of signed zeros can give
    return forces


def constraint_force(x_i: np.ndarray, best_position: np.ndarray, nt: int,
                     cfg: AsoConfig) -> np.ndarray:
    """Pull toward the best-so-far position, decaying over the run."""
    lam = lagrange_multiplier(nt, cfg)
    return lam * (np.asarray(best_position, dtype=np.float64)
                  - np.asarray(x_i, dtype=np.float64))


def k_best_count(nt: int, n: int, mt: int) -> int:
    """Neighborhood size: N at the start, exactly 2 at the last iteration."""
    k = math.floor(n - (n - 2) * math.sqrt(nt / mt))
    return int(np.clip(k, 2, n))


# ---- the driver ------------------------------------------------------------

def _evaluate(objective, value, position, space: SearchSpace, cfg: AsoConfig,
              nt: int, i: int) -> tuple[float, np.ndarray]:
    """Accept one objective value; a non-finite one (NaN or +-inf) resamples
    the atom uniformly once."""
    first = float(value)
    if math.isfinite(first):
        return first, position
    rng_resample = substream(cfg.seed, "resample", nt, i)
    resampled = rng_resample.uniform(space.lower, space.upper)
    value = float(objective(resampled))
    if not math.isfinite(value):
        raise RuntimeError(f"objective returned {value} for the resampled atom as well; "
                           "cannot continue")
    log.warning("objective returned %s; atom resampled", first)
    return value, resampled


def step(positions: np.ndarray, velocities: np.ndarray, fitnesses: np.ndarray,
         best_position: np.ndarray, nt: int, cfg: AsoConfig,
         space: SearchSpace) -> tuple[np.ndarray, np.ndarray]:
    """Advance every atom one iteration (fitnesses are the current ones).

    Acceleration is (interaction + constraint) / mass; velocity gets a
    per-dimension uniform damping draw; positions clamp to the bounds
    with the velocity zeroed on any clamped dimension.
    """
    n, d = positions.shape
    masses = compute_masses(fitnesses)
    k = k_best_count(nt, n, cfg.iterations)
    kbest_idx = np.argsort(fitnesses, kind="stable")[:k]
    kbest = positions[kbest_idx]
    # Atom i's K pair draws then its d damping draws, from its own substream.
    draws = np.stack([substream(cfg.seed, "step", nt, i).random(k + d) for i in range(n)])
    # One 1-D norm per atom: a batched norm(axis=1) differs in the last ulp.
    sigma = np.array([length_scale(x, kbest) for x in positions])
    forces = interaction_forces(positions, kbest, sigma, draws[:, :k], nt, cfg)
    accel = (forces + constraint_force(positions, best_position, nt, cfg)) / masses[:, None]
    new_velocities = draws[:, k:] * velocities + accel
    moved = positions + new_velocities
    new_positions = np.clip(moved, space.lower, space.upper)
    new_velocities[new_positions != moved] = 0.0
    return new_positions, new_velocities


def optimize(objective, space: SearchSpace, cfg: AsoConfig, workers: int = 1) -> AsoResult:
    """Minimize `objective` over the box; deterministic given cfg.seed.

    Each generation (the initial population, then every iteration's new
    positions) is evaluated as one batch, on `workers` processes when
    more than one. Resampling after a non-finite value and the best-so-far
    update then run in atom order, so the result does not depend on
    `workers`.
    """
    check_settings(cfg)
    n, mt, d = cfg.population, cfg.iterations, space.dims
    rng0 = substream(cfg.seed, "init")
    positions = rng0.uniform(space.lower, space.upper, (n, d))
    span = space.upper - space.lower
    velocities = rng0.uniform(-span / 10.0, span / 10.0, (n, d))
    fitnesses = np.empty(n)

    with parallel.map_jobs(objective, workers) as evaluate_all:
        def evaluate_generation(positions, nt):
            for i, value in enumerate(evaluate_all(list(positions))):
                fitnesses[i], positions[i] = _evaluate(objective, value, positions[i],
                                                       space, cfg, nt, i)

        evaluate_generation(positions, 0)
        best_i = int(np.argmin(fitnesses))
        best_position = positions[best_i].copy()
        best_fitness = float(fitnesses[best_i])

        trace: list[tuple[int, float, float, int]] = []
        for nt in range(1, mt + 1):
            k = k_best_count(nt, n, mt)
            positions, velocities = step(positions, velocities, fitnesses,
                                         best_position, nt, cfg, space)
            evaluate_generation(positions, nt)
            for i in range(n):
                if fitnesses[i] < best_fitness:
                    best_fitness = float(fitnesses[i])
                    best_position = positions[i].copy()
            trace.append((nt, best_fitness, float(fitnesses.mean()), k))
    return AsoResult(position=best_position, fitness=best_fitness,
                     trace=trace, evaluations=n * (mt + 1))


def random_search(objective, space: SearchSpace, evaluations: int,
                  seed: int = 0) -> tuple[np.ndarray, float]:
    """Uniform-sampling baseline at a matched evaluation budget."""
    rng = substream(seed, "random-search")
    best_x, best_f = None, math.inf
    for _ in range(evaluations):
        x = rng.uniform(space.lower, space.upper)
        f = float(objective(x))
        if f < best_f:
            best_f, best_x = f, x
    return best_x, best_f


# ---- classifier hyperparameter tuning ---------------------------------------

BATCH_CHOICES = [16, 32, 64, 128]


def hyperparameter_space() -> SearchSpace:
    """5-D space: momentum, log10 lr, log10 weight decay, batch index, epochs."""
    return SearchSpace(
        lower=np.array([0.5, -4.0, -4.0, 0.0, 20.0]),
        upper=np.array([0.99, -1.0, -1.5, 3.0, 100.0]),
    )


def decode_hyperparameters(position: np.ndarray) -> Hyperparameters:
    """Momentum as is, learning rate and weight decay from log10, and the
    batch index and epochs rounded, then clipped to the box."""
    space = hyperparameter_space()
    momentum, log_lr, log_wd, batch, epochs = map(float, position)
    batch, epochs = np.clip([round(batch), round(epochs)], space.lower[3:], space.upper[3:])
    return Hyperparameters(momentum=momentum, weight_decay=10.0 ** log_wd, epochs=int(epochs),
                           learning_rate=10.0 ** log_lr, batch_size=BATCH_CHOICES[int(batch)])


@dataclass
class TuneResult:
    hyperparameters: Hyperparameters
    validation_error: float
    trace: list = field(default_factory=list)
    evaluations: int = 0


def tune_hyperparameters(trainable, cfg: AsoConfig) -> TuneResult:
    """Search the hyperparameter box for the lowest validation error.

    `trainable` maps a Hyperparameters value to a validation error
    (lower is better), typically by a short budgeted training run on an
    inner train/validation split. Each generation's candidates are scored
    on min(population, available CPUs) processes; the result does not
    depend on that count.
    """
    space = hyperparameter_space()

    def objective(position):
        return float(trainable(decode_hyperparameters(position)))

    result = optimize(objective, space, cfg,
                      workers=min(cfg.population, parallel.available_cpus()))
    hp = decode_hyperparameters(result.position)
    check_settings(hp)
    return TuneResult(hyperparameters=hp, validation_error=result.fitness,
                      trace=result.trace, evaluations=result.evaluations)
