"""Adversarial-oversampling contracts: loss values, shape/range/count
invariants, determinism, and the tiny-class fallback."""

import logging
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from dosids import augment, parallel
from dosids import ndgrad as ng
from dosids.augment import (GanConfig, discriminator_accuracy, discriminator_loss,
                            generator_loss, jitter_rows,
                            median_targets, oversample_minorities, sample_rows,
                            train_dcgan)
from dosids.seeding import substream
from conftest import cluster_dataset


def blob_rows(seed, n=80, features=10, sigma=0.05):
    rng = np.random.default_rng(seed)
    center = rng.uniform(0.3, 0.7, features)
    return np.clip(center + rng.normal(0, sigma, (n, features)), 0, 1)


def small_cfg(seed=0, **kw):
    defaults = dict(epochs=5, batch_size=8, seed=seed)
    defaults.update(kw)
    return GanConfig(**defaults)


# ---- losses ------------------------------------------------------------------

def test_generator_loss_at_half():
    loss = generator_loss(ng.Tensor(np.full(4, 0.5)))
    assert np.isclose(float(loss.data), np.log(2.0))


def test_generator_loss_confident_limit():
    loss = generator_loss(ng.Tensor(np.full(4, 1.0 - 1e-15)))
    assert float(loss.data) < 1e-12


def test_generator_loss_hand_value():
    loss = generator_loss(ng.Tensor(np.array([0.5, 0.25])))
    assert np.isclose(float(loss.data), (np.log(2.0) + np.log(4.0)) / 2.0)


def test_discriminator_loss_equilibrium():
    p = ng.Tensor(np.full(3, 0.5))
    loss = discriminator_loss(p, p)
    assert np.isclose(float(loss.data), 2.0 * np.log(2.0))


def test_discriminator_loss_perfect_limit():
    real = ng.Tensor(np.full(3, 1.0 - 1e-15))
    fake = ng.Tensor(np.full(3, 1e-15))
    assert float(discriminator_loss(real, fake).data) < 1e-12


def test_discriminator_loss_hand_value():
    loss = discriminator_loss(ng.Tensor(np.array([0.8])), ng.Tensor(np.array([0.3])))
    assert np.isclose(float(loss.data), -np.log(0.8) - np.log(0.7))


def test_losses_finite_at_extremes():
    zero = ng.Tensor(np.zeros(3))
    one = ng.Tensor(np.ones(3))
    assert np.isfinite(float(generator_loss(zero).data))
    assert np.isfinite(float(discriminator_loss(zero, one).data))



def test_loss_gradchecks():
    """Finite differences through clip, log, negation and 1 - p."""
    rng = np.random.default_rng(41)
    real = ng.Tensor(rng.uniform(0.05, 0.95, 6), requires_grad=True)
    fake = ng.Tensor(rng.uniform(0.05, 0.95, 6), requires_grad=True)
    assert ng.grad_check(lambda: generator_loss(fake), [fake]) < 1e-6
    assert ng.grad_check(lambda: discriminator_loss(real, fake), [real, fake]) < 1e-6


def test_losses_zero_gradient_where_clip_binds():
    """D(G(z)) = 0 and D(x) = 0 clip at the floor, and so does 1 - D(G(z))
    at D(G(z)) = 1: those entries get exactly zero gradient."""
    fake = ng.Tensor(np.array([0.0, 0.5]), requires_grad=True)
    generator_loss(fake).backward()
    assert fake.grad[0] == 0.0 and fake.grad[1] == -1.0
    real = ng.Tensor(np.array([0.0, 0.5]), requires_grad=True)
    fake = ng.Tensor(np.array([1.0, 0.5]), requires_grad=True)
    discriminator_loss(real, fake).backward()
    assert real.grad[0] == 0.0 and real.grad[1] == -1.0
    assert fake.grad[0] == 0.0 and fake.grad[1] == 1.0

# ---- forward contracts ----------------------------------------------------------

def test_generator_output_range_and_shape():
    cfg = small_cfg()
    pair = train_dcgan(blob_rows(0, n=24), cfg)
    z = ng.Tensor(substream(1, "z").standard_normal((8, cfg.noise_dim)))
    out = pair.generator(z, train=False)
    assert out.shape == (8, 10)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_generator_deterministic():
    cfg = small_cfg()
    pair = train_dcgan(blob_rows(0, n=24), cfg)
    z = ng.Tensor(substream(2, "z").standard_normal((4, cfg.noise_dim)))
    a = pair.generator(z, train=False).data
    b = pair.generator(z, train=False).data
    assert np.array_equal(a, b)


def test_discriminator_probability_contract():
    cfg = small_cfg()
    pair = train_dcgan(blob_rows(3, n=24), cfg)
    rows = ng.Tensor(blob_rows(4, n=5))
    p = pair.discriminator(rows, train=False)
    assert p.shape == (5,)
    assert np.all(p.data > 0.0) and np.all(p.data < 1.0)
    assert np.array_equal(p.data, pair.discriminator(rows, train=False).data)


# ---- training -------------------------------------------------------------------

def test_train_dcgan_loss_history_length():
    pair = train_dcgan(blob_rows(5, n=16), small_cfg(epochs=1))
    assert len(pair.loss_history) == 1
    pair = train_dcgan(blob_rows(5, n=16), small_cfg(epochs=7))
    assert len(pair.loss_history) == 7


def test_train_dcgan_losses_finite():
    pair = train_dcgan(blob_rows(6, n=32), small_cfg(epochs=6))
    arr = np.array(pair.loss_history)
    assert np.isfinite(arr).all()


def test_train_dcgan_deterministic():
    rows = blob_rows(7, n=32)
    a = train_dcgan(rows, small_cfg(seed=9))
    b = train_dcgan(rows, small_cfg(seed=9))
    for pa, pb in zip(a.generator.parameters(), b.generator.parameters()):
        assert np.array_equal(pa.data, pb.data)
    for pa, pb in zip(a.discriminator.parameters(), b.discriminator.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert a.loss_history == b.loss_history


def test_train_dcgan_small_class_shrinks_batch():
    pair = train_dcgan(blob_rows(8, n=10), small_cfg(batch_size=32))
    assert len(pair.loss_history) == 5  # trained despite n < 2*batch


def test_train_dcgan_refuses_tiny_class():
    with pytest.raises(ValueError, match="adversarial"):
        train_dcgan(blob_rows(9, n=3), small_cfg())


def test_discriminator_equilibrium_band_two_clusters():
    # reference run: a converged pair leaves the discriminator near chance
    rng = np.random.default_rng(3)
    c1, c2 = rng.uniform(0.25, 0.45, 6), rng.uniform(0.55, 0.8, 6)
    rows = np.clip(np.concatenate([c1 + rng.normal(0, 0.04, (130, 6)),
                                   c2 + rng.normal(0, 0.04, (130, 6))]), 0, 1)
    rng.shuffle(rows)
    train, probe = rows[:200], rows[200:]
    accs = []
    for seed in range(3):
        pair = train_dcgan(train, GanConfig(epochs=50, seed=seed))
        accs.append(discriminator_accuracy(pair, probe, substream(seed, "probe")))
    assert 0.3 <= float(np.median(accs)) <= 0.7


# ---- sampling and oversampling -----------------------------------------------------

def test_sample_rows_count_and_range():
    pair = train_dcgan(blob_rows(10, n=32), small_cfg())
    out = sample_rows(pair, 17, substream(0, "s"))
    assert out.shape == (17, 10)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert sample_rows(pair, 0, substream(0, "s")).shape == (0, 10)


def test_jitter_rows_cycle_and_clip():
    rows = np.array([[0.0, 1.0], [0.5, 0.5]])
    out = jitter_rows(rows, 5, substream(1, "j"))
    assert out.shape == (5, 2)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_median_targets_policy():
    ds = cluster_dataset(20, [50, 40, 30, 10, 5], n_features=6)
    targets = median_targets(ds)
    assert targets == {3: 30, 4: 30}


def test_oversample_counts_exact():
    ds = cluster_dataset(21, [60, 30, 8], n_features=8)
    out = oversample_minorities(ds, {1: 60, 2: 40}, small_cfg())
    assert np.array_equal(out.class_counts(), [60, 60, 40])


def test_oversample_empty_targets_identity():
    ds = cluster_dataset(22, [20, 20], n_features=6)
    assert oversample_minorities(ds, {}, small_cfg()) is ds


def test_oversample_accepts_class_names():
    ds = cluster_dataset(23, [30, 12], n_features=6)
    out = oversample_minorities(ds, {"c1": 25}, small_cfg())
    assert out.class_counts()[1] == 25
    with pytest.raises(ValueError, match="unknown class"):
        oversample_minorities(ds, {"zz": 25}, small_cfg())


def test_oversample_rejects_shrinking_target():
    ds = cluster_dataset(24, [30, 12], n_features=6)
    with pytest.raises(ValueError, match="below"):
        oversample_minorities(ds, {1: 5}, small_cfg())


def test_oversample_preserves_original_prefix():
    ds = cluster_dataset(25, [40, 10], n_features=7)
    out = oversample_minorities(ds, {1: 30}, small_cfg())
    assert np.array_equal(out.features[:ds.n_rows], ds.features)
    assert np.array_equal(out.labels[:ds.n_rows], ds.labels)
    assert np.all(out.labels[ds.n_rows:] == 1)


def test_oversample_synthetic_rows_in_unit_box():
    ds = cluster_dataset(26, [40, 10], n_features=7)
    out = oversample_minorities(ds, {1: 60}, small_cfg())
    synth = out.features[ds.n_rows:]
    assert np.all(synth >= 0.0) and np.all(synth <= 1.0)


def test_oversample_deterministic():
    ds = cluster_dataset(27, [40, 10], n_features=7)
    a = oversample_minorities(ds, {1: 40}, small_cfg(seed=5))
    b = oversample_minorities(ds, {1: 40}, small_cfg(seed=5))
    assert np.array_equal(a.features, b.features)


def test_oversample_tiny_class_falls_back_to_jitter(caplog):
    ds = cluster_dataset(28, [40, 3], n_features=6)
    with caplog.at_level(logging.WARNING):
        out = oversample_minorities(ds, {1: 20}, small_cfg())
    assert "jitter" in caplog.text
    assert out.class_counts()[1] == 20
    # jittered rows hug the original three rows
    originals = ds.features[ds.labels == 1]
    synth = out.features[ds.n_rows:]
    dists = np.abs(synth[:, None, :] - originals[None, :, :]).max(axis=2).min(axis=1)
    assert dists.max() < 0.1


def _record_pids(monkeypatch, log_dir, owner, name):
    """Wrap owner.name so that every call touches a file named after the
    calling process, in the directory log_dir() gives at call time."""
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        (log_dir() / f"{name}-{os.getpid()}").touch()
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)


def _pids(directory, name):
    return {int(p.name.split("-")[1]) for p in directory.glob(f"{name}-*")}


def test_oversample_same_result_on_one_and_two_cpus(monkeypatch, tmp_path):
    """Two GAN classes and a jitter class: the worker count comes from the
    CPUs available, and the result must not depend on it."""
    ds = cluster_dataset(29, [40, 12, 10, 3], n_features=6)
    targets = {1: 30, 2: 25, 3: 20}
    cpus = 1
    _record_pids(monkeypatch, lambda: tmp_path / str(cpus), augment, "train_dcgan")
    _record_pids(monkeypatch, lambda: tmp_path / str(cpus), parallel, "_init_worker")
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    results = {}
    for cpus in (1, 2):
        (tmp_path / str(cpus)).mkdir()
        results[cpus] = oversample_minorities(ds, targets, small_cfg(seed=6))
        assert multiprocessing.active_children() == []
    assert _pids(tmp_path / "1", "train_dcgan") == {os.getpid()}
    assert not _pids(tmp_path / "1", "_init_worker")
    workers = _pids(tmp_path / "2", "_init_worker")
    assert len(workers) == 2 and os.getpid() not in workers
    assert _pids(tmp_path / "2", "train_dcgan") <= workers
    one, two = results[1], results[2]
    assert one.features.tobytes() == two.features.tobytes()
    assert one.labels.tobytes() == two.labels.tobytes()
    assert np.array_equal(one.class_counts(), [40, 30, 25, 20])


def test_oversample_one_gan_class_does_not_fork(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    _record_pids(monkeypatch, lambda: tmp_path, parallel, "_init_worker")
    ds = cluster_dataset(30, [40, 12, 3], n_features=6)
    oversample_minorities(ds, {1: 20, 2: 10}, small_cfg())
    assert not _pids(tmp_path, "_init_worker")


def test_serial_oversample_does_not_import_multiprocessing():
    code = ("import sys\n"
            "from conftest import cluster_dataset\n"
            "from dosids.augment import GanConfig, oversample_minorities\n"
            "ds = cluster_dataset(31, [40, 12], n_features=6)\n"
            "oversample_minorities(ds, {1: 20}, GanConfig(epochs=1, batch_size=8))\n"
            "assert 'multiprocessing' not in sys.modules\n")
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests_dir), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests_dir]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_oversample_worker_error_propagates_and_reaps(monkeypatch):
    def failing_train(rows, cfg):
        raise FloatingPointError("gan diverged")

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(augment, "train_dcgan", failing_train)
    ds = cluster_dataset(32, [40, 12, 10], n_features=6)
    with pytest.raises(FloatingPointError, match="gan diverged"):
        oversample_minorities(ds, {1: 30, 2: 30}, small_cfg())
    assert multiprocessing.active_children() == []


def test_gan_config_validation():
    with pytest.raises(ValueError):
        GanConfig(noise_dim=0).validate()
    with pytest.raises(ValueError):
        GanConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        GanConfig(batch_size=1).validate()
