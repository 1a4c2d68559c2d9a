"""Each network computes in the dtype it was built in.

A hook on `make_from_op` sees every op output and, through the backward
closures, every gradient. A hook on `SGD.step` sees the parameter
gradients, the velocities and the parameters. One training run and one
inference pass per network must show the build dtype everywhere, float32
(the pipeline's) and float64 (the tests' and the gradient checks') alike.
"""

import numpy as np
import pytest

from dosids import ndgrad as ng
from dosids.alexclf import Hyperparameters, build_classifier, predict, train_classifier
from dosids.augment import GanConfig, discriminator_accuracy, sample_rows, train_dcgan
from dosids.checkpoint import load_arrays, save_arrays
from dosids.ndgrad import nn, ops, tensor
from dosids.resfeat import build_feature_extractor, extract_features, train_feature_extractor
from dosids.seeding import substream
from conftest import cluster_dataset

DTYPES = [np.float32, np.float64]


@pytest.fixture
def seen(monkeypatch):
    """(what, dtype) for every op output and gradient, and, at each SGD
    step, every parameter gradient, velocity and parameter."""
    seen = []
    make_from_op, step = tensor.make_from_op, nn.SGD.step

    def hooked_make_from_op(data, parents, backward):
        seen.append(("op output", data.dtype))

        def hooked_backward(g):
            seen.append(("gradient", g.dtype))
            backward(g)

        return make_from_op(data, parents, hooked_backward)

    def hooked_step(opt):
        seen.extend(("parameter gradient", p.grad.dtype) for p in opt.params
                    if p.grad is not None)
        step(opt)
        seen.extend(("velocity", v.dtype) for v in opt.velocity)
        seen.extend(("parameter", p.data.dtype) for p in opt.params)

    monkeypatch.setattr(tensor, "make_from_op", hooked_make_from_op)
    monkeypatch.setattr(ops, "make_from_op", hooked_make_from_op)
    monkeypatch.setattr(nn.SGD, "step", hooked_step)
    return seen


def assert_all(seen, dtype, *kinds):
    assert {what for what, _ in seen} >= set(kinds)
    assert {(what, dt) for what, dt in seen} == {(what, np.dtype(dtype)) for what, _ in seen}


def state_dtypes(module):
    return {np.asarray(a).dtype for a in module.state_arrays().values()}


@pytest.mark.parametrize("dtype", DTYPES)
def test_gan_pair_computes_in_its_dtype(seen, dtype):
    rows = cluster_dataset(1, [8], n_features=10).features.astype(dtype)
    pair = train_dcgan(rows, GanConfig(epochs=1, batch_size=4, seed=2))   # two steps
    assert_all(seen, dtype, "op output", "gradient", "parameter gradient", "velocity")
    seen.clear()
    assert sample_rows(pair, 5, substream(3, "sample")).dtype == dtype
    assert sample_rows(pair, 0, substream(3, "sample")).dtype == dtype
    discriminator_accuracy(pair, rows, substream(3, "probe"))
    assert_all(seen, dtype, "op output")
    assert state_dtypes(pair.generator) == state_dtypes(pair.discriminator) == {np.dtype(dtype)}


@pytest.mark.parametrize("dtype", DTYPES)
def test_extractor_and_head_compute_in_its_dtype(seen, dtype):
    ds = cluster_dataset(4, [6, 6], n_features=10)        # float64 rows, cast on entry
    f = build_feature_extractor(10, blocks=5, seed=5, dtype=dtype)
    train_feature_extractor(f, ds, epochs=1, lr=0.5, seed=6, batch_size=12)  # one step
    assert_all(seen, dtype, "op output", "gradient", "parameter gradient", "velocity")
    seen.clear()
    assert extract_features(f, ds).dtype == dtype
    assert extract_features(f, ds.features[:0]).dtype == dtype
    assert_all(seen, dtype, "op output")
    assert state_dtypes(f) == {np.dtype(dtype)}


@pytest.mark.parametrize("dtype", DTYPES)
def test_classifier_computes_in_its_dtype(seen, dtype):
    ds = cluster_dataset(7, [6, 6, 6], n_features=10)
    clf = build_classifier(10, 3, seed=8, dtype=dtype)
    hp = Hyperparameters(epochs=1, batch_size=18, learning_rate=0.5)   # one step
    train_classifier(clf, ds.features * 20.0, ds.labels, hp, seed=9)   # the clip fires
    assert_all(seen, dtype, "op output", "gradient", "parameter gradient", "velocity")
    seen.clear()
    pred, probs = predict(clf, ds.features)
    assert probs.dtype == dtype
    assert predict(clf, ds.features[:0])[1].dtype == dtype
    assert_all(seen, dtype, "op output")
    assert state_dtypes(clf) == {np.dtype(dtype)}


def test_float32_classifier_state_round_trips_in_float32(tmp_path):
    """A checkpoint loads as float64 arrays; load_state puts each back in
    its slot's dtype, so the loaded classifier predicts the trained one's
    bytes."""
    ds = cluster_dataset(10, [20, 20, 20], n_features=12)
    clf, _ = train_classifier(build_classifier(12, 3, seed=11, dtype=np.float32),
                              ds.features, ds.labels, Hyperparameters(epochs=2), seed=12)
    save_arrays(tmp_path / "clf.ckpt", clf.state_arrays())
    loaded = build_classifier(12, 3, seed=13, dtype=np.float32)
    loaded.load_state(load_arrays(tmp_path / "clf.ckpt"))
    loaded.trained = True
    assert state_dtypes(loaded) == {np.dtype(np.float32)}
    for key, value in clf.state_arrays().items():
        assert loaded.state_arrays()[key].tobytes() == value.tobytes(), key
    want, got = predict(clf, ds.features), predict(loaded, ds.features)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_python_numbers_take_the_tensor_dtype():
    x = ng.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    for y in (x + 1.0, 1.0 + x, x * 2.0, 2.0 * x, x - 1.0, 1.0 - x, -x, x + 1):
        assert y.data.dtype == np.float32
    assert ng.Tensor([1, 2]).data.dtype == np.float64
    assert ng.leaky_relu(x).data.dtype == np.float32
    assert ng.dropout(x, 0.5, True, np.random.default_rng(0)).data.dtype == np.float32
    assert ng.softmax_probs(np.ones((2, 3), dtype=np.float32)).dtype == np.float32
