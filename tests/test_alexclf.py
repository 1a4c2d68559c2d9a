"""Classifier checks: layer census, kernel shrinking, training behavior,
prediction contracts, and the full-network gradient check."""

import logging

import numpy as np
import pytest

from dosids import ndgrad as ng
from dosids.alexclf import (AlexNetClassifier, Hyperparameters, build_classifier,
                            predict, train_classifier)
from dosids.ndgrad import Tensor, grad_check, ops
from dosids.settings import check_settings


def toy_features(seed=0, n_per_class=80, n_classes=3, dim=16, sigma=0.03):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, (n_classes, dim))
    x = np.concatenate([np.clip(c + rng.normal(0, sigma, (n_per_class, dim)), 0, 1)
                        for c in centers])
    y = np.repeat(np.arange(n_classes), n_per_class)
    return x, y


def quick_hp(**kw):
    defaults = dict(epochs=5, learning_rate=0.01, batch_size=32,
                    momentum=0.9, weight_decay=0.0005)
    defaults.update(kw)
    return Hyperparameters(**defaults)


def test_layer_census(monkeypatch):
    clf = build_classifier(16, 10, seed=0)
    assert len(clf.convs) == 3 and all(isinstance(c, ng.Conv1d) for c in clf.convs)
    assert clf.pools == [(2, 2), (2, 2), (2, 2)]
    assert clf.flat_dim == 64 * 2
    lrn_calls = []
    monkeypatch.setattr(ng, "lrn", lambda h: lrn_calls.append(h.shape) or ops.lrn(h))
    clf.logits(Tensor(np.zeros((3, 1, 16))), train=False)
    assert lrn_calls == [(3, 32, 8), (3, 64, 4)]    # after the first two pools


def test_softmax_width_matches_classes():
    clf = build_classifier(16, 10, seed=0)
    assert clf.softmax_head.weight.shape[0] == 10


def test_build_deterministic():
    a = build_classifier(12, 4, seed=3)
    b = build_classifier(12, 4, seed=3)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_build_rejects_degenerate():
    with pytest.raises(ValueError):
        build_classifier(16, 1, seed=0)
    with pytest.raises(ValueError):
        build_classifier(0, 3, seed=0)


def test_kernels_shrink_on_narrow_input(caplog):
    with caplog.at_level(logging.WARNING):
        clf = build_classifier(4, 3, seed=1)
    assert "shrunk" in caplog.text
    x = Tensor(np.random.default_rng(0).uniform(0, 1, (5, 1, 4)))
    assert clf.logits(x, train=False).shape == (5, 3)


def test_forward_on_minimal_width():
    clf = build_classifier(1, 2, seed=2)
    x = Tensor(np.random.default_rng(1).uniform(0, 1, (3, 1, 1)))
    assert clf.logits(x, train=False).shape == (3, 2)


def test_hyperparameters_validation():
    check_settings(Hyperparameters())
    for bad in (dict(momentum=1.0), dict(learning_rate=0.0), dict(batch_size=0),
                dict(epochs=0), dict(weight_decay=-0.1)):
        with pytest.raises(ValueError):
            check_settings(quick_hp(**bad))


def test_hyperparameters_dict_round_trip():
    hp = quick_hp(epochs=42)
    assert Hyperparameters.from_dict(hp.to_dict()) == hp


def test_train_trace_shape_and_flag():
    x, y = toy_features(1)
    clf = build_classifier(16, 3, seed=4)
    assert not clf.trained
    clf, trace = train_classifier(clf, x, y, quick_hp(epochs=6), seed=5)
    assert clf.trained
    assert len(trace) == 6
    assert [row[0] for row in trace] == [1, 2, 3, 4, 5, 6]


def test_train_reference_defaults_are_published_optimum():
    hp = Hyperparameters()
    assert (hp.momentum, hp.weight_decay, hp.epochs,
            hp.learning_rate, hp.batch_size) == (0.9, 0.005, 100, 0.001, 32)


def test_train_separable_data_high_accuracy():
    x, y = toy_features(2)
    clf = build_classifier(16, 3, seed=6)
    clf, trace = train_classifier(clf, x, y, quick_hp(epochs=30), seed=7)
    # trace accuracy is dropout-noised train-mode accuracy; judge the
    # learned model on the training set in eval mode
    pred, _ = predict(clf, x)
    assert (pred == y).mean() >= 0.95
    assert trace[-1][1] < trace[0][1]


def test_train_deterministic():
    x, y = toy_features(3)

    def run():
        clf = build_classifier(16, 3, seed=8)
        clf, trace = train_classifier(clf, x, y, quick_hp(epochs=3), seed=9)
        return [p.data.copy() for p in clf.parameters()], trace

    pa, ta = run()
    pb, tb = run()
    assert ta == tb
    for a, b in zip(pa, pb):
        assert np.array_equal(a, b)


def test_train_rejects_mismatched_rows():
    x, y = toy_features(4)
    clf = build_classifier(16, 3, seed=10)
    with pytest.raises(ValueError, match="row count"):
        train_classifier(clf, x, y[:-1], quick_hp(), seed=0)


def test_train_rejects_invalid_hyperparameters():
    x, y = toy_features(5)
    clf = build_classifier(16, 3, seed=11)
    with pytest.raises(ValueError):
        train_classifier(clf, x, y, quick_hp(batch_size=0), seed=0)


def test_predict_requires_training():
    clf = build_classifier(16, 3, seed=12)
    with pytest.raises(ValueError, match="trained"):
        predict(clf, np.zeros((2, 16)))


def test_predict_probabilities_and_ties():
    x, y = toy_features(6, n_per_class=40)
    clf = build_classifier(16, 3, seed=13)
    clf, _ = train_classifier(clf, x, y, quick_hp(epochs=4), seed=14)
    pred, probs = predict(clf, x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)
    assert np.array_equal(pred, probs.argmax(axis=1))
    again, _ = predict(clf, x)
    assert np.array_equal(pred, again)
    # argmax keeps the lowest index on exact ties
    assert np.array([[0.4, 0.4, 0.2]]).argmax(axis=1)[0] == 0


def test_predict_argmax_invariant_to_logit_scaling():
    x, y = toy_features(7, n_per_class=30)
    clf = build_classifier(16, 3, seed=15)
    clf, _ = train_classifier(clf, x, y, quick_hp(epochs=4), seed=16)
    logits = clf.logits(Tensor(x[:20][:, None, :]), train=False).data
    base = ng.softmax_probs(logits).argmax(axis=1)
    for scale in (0.5, 3.0, 17.0):
        assert np.array_equal(ng.softmax_probs(logits * scale).argmax(axis=1), base)


def test_dropout_train_only():
    x, y = toy_features(8, n_per_class=20)
    clf = build_classifier(16, 3, seed=17)
    clf, _ = train_classifier(clf, x, y, quick_hp(epochs=2), seed=18)
    xt = Tensor(x[:8][:, None, :])
    a = clf.logits(xt, train=False).data
    b = clf.logits(xt, train=False).data
    assert np.array_equal(a, b)
    rng = np.random.default_rng(0)
    c = clf.logits(xt, train=True, rng=rng).data
    d = clf.logits(xt, train=True, rng=rng).data
    assert not np.array_equal(c, d)  # fresh masks differ


def test_full_classifier_gradcheck():
    clf = build_classifier(12, 3, seed=19)
    x = Tensor(np.random.default_rng(20).uniform(0.1, 0.9, (3, 1, 12)))
    targets = np.array([0, 1, 2])

    def loss_fn():
        logits = clf.logits(x, train=True)  # no rng: dropout off, lrn live
        return ng.softmax_cross_entropy(logits, targets)[0]

    err = grad_check(loss_fn, clf.parameters(), max_coords=300,
                     rng=np.random.default_rng(21))
    assert err < 1e-4


def test_state_arrays_round_trip():
    x, y = toy_features(9, n_per_class=25)
    clf = build_classifier(16, 3, seed=22)
    clf, _ = train_classifier(clf, x, y, quick_hp(epochs=3), seed=23)
    pred, probs = predict(clf, x)
    clone = build_classifier(16, 3, seed=77)
    clone.load_state(clf.state_arrays())
    clone.trained = True
    pred2, probs2 = predict(clone, x)
    assert np.array_equal(pred, pred2)
    assert np.allclose(probs, probs2)


def test_predict_rejects_wrong_width_before_any_forward():
    clf = build_classifier(6, 3, seed=24)
    clf.trained = True
    clf.logits = lambda *args, **kwargs: pytest.fail("forward ran")
    with pytest.raises(ValueError, match="classifier expects 6 features, got 9"):
        predict(clf, np.zeros((4, 9)))
