"""The shared training loop and inference forward.

`ng.fit` and `ng.eval_rows` replaced two hand-written training loops and
two batched inference loops. Those loops are kept here verbatim as
references, and the shared versions must reproduce them byte for byte.
Also covered: gradient clipping, the classifier's step-decay schedule and
the row-count check both networks now share.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from dosids import ndgrad as ng
from dosids.alexclf import (Hyperparameters, build_classifier, predict,
                            step_decayed_lr, train_classifier)
from dosids.resfeat import build_feature_extractor, extract_features, train_feature_extractor
from dosids.seeding import substream
from conftest import cluster_dataset


def reference_clip(params, max_norm, clipped):
    """The clip as written before it moved into `ndgrad`; appends to
    `clipped` whenever it scales."""
    total = np.sqrt(sum(float((p.grad ** 2).sum())
                        for p in params if p.grad is not None))
    if total > max_norm:
        clipped.append(total)
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale


def reference_train_classifier(clf, features, labels, hp, seed, clipped):
    """`train_classifier`'s loop as written before `ng.fit`."""
    n = features.shape[0]
    params = clf.parameters()
    opt = ng.SGD(params, hp.learning_rate, hp.momentum, hp.weight_decay)
    rng = substream(seed, "alexclf-train")
    trace = []
    for epoch in range(1, hp.epochs + 1):
        opt.learning_rate = step_decayed_lr(epoch, hp.epochs, hp.learning_rate)
        perm = rng.permutation(n)
        losses, hits, seen = [], 0, 0
        for start in range(0, n, hp.batch_size):
            idx = perm[start:start + hp.batch_size]
            xb = ng.Tensor(features[idx][:, None, :])
            yb = labels[idx]
            logits = clf.logits(xb, train=True, rng=rng)
            loss, probs = ng.softmax_cross_entropy(logits, yb)
            opt.zero_grad()
            loss.backward()
            reference_clip(params, 5.0, clipped)
            opt.step()
            losses.append(float(loss.data))
            hits += int((probs.argmax(axis=1) == yb).sum())
            seen += len(idx)
        trace.append((epoch, float(np.mean(losses)), hits / seen))
    return trace


def reference_train_extractor(f, features, labels, epochs, lr, seed, batch_size, clipped):
    """`train_feature_extractor`'s loop as written before `ng.fit`."""
    n_classes = int(labels.max()) + 1
    head = ng.Dense(f.feature_dim, n_classes, rng=substream(seed, "resfeat-head"))
    params = f.parameters() + head.parameters()
    opt = ng.SGD(params, lr, momentum=0.9)
    rng = substream(seed, "resfeat-train")
    n = features.shape[0]
    history = []
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(n)
        losses, hits, seen = [], 0, 0
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            xb = ng.Tensor(features[idx][:, None, :])
            yb = labels[idx]
            logits = head(f.forward(xb, train=True, rng=rng))
            loss, probs = ng.softmax_cross_entropy(logits, yb)
            opt.zero_grad()
            loss.backward()
            reference_clip(params, 5.0, clipped)
            opt.step()
            losses.append(float(loss.data))
            hits += int((probs.argmax(axis=1) == yb).sum())
            seen += len(idx)
        history.append((epoch, float(np.mean(losses)), hits / seen))
    return history


def reference_rows(forward, features, batch_size, width):
    """The batched no-graph loop `predict` and `extract_features` each had."""
    parts = []
    with ng.no_grad():
        for start in range(0, features.shape[0], batch_size):
            parts.append(forward(ng.Tensor(features[start:start + batch_size][:, None, :])))
    return (np.concatenate(parts, axis=0) if parts
            else np.empty((0, width), dtype=np.float64))


def assert_same_state(a, b):
    sa, sb = a.state_arrays(), b.state_arrays()
    assert list(sa) == list(sb)
    for key in sa:
        assert sa[key].tobytes() == sb[key].tobytes(), key


def test_fit_reproduces_the_classifier_loop():
    ds = cluster_dataset(1, [20, 17, 13], n_features=12, sigma=0.1)
    features = ds.features * 20.0       # large inputs make the clip fire
    # 50 rows in batches of 16; 4 epochs run all three step-decay phases
    hp = Hyperparameters(epochs=4, learning_rate=0.5, batch_size=16,
                         momentum=0.9, weight_decay=0.005)
    clipped = []
    ref = build_classifier(12, 3, seed=2)
    ref_trace = reference_train_classifier(ref, features, ds.labels, hp, 3, clipped)
    clf, trace = train_classifier(build_classifier(12, 3, seed=2), features,
                                  ds.labels, hp, seed=3)
    assert clipped, "the clip never fired; the comparison misses its path"
    assert trace == ref_trace
    assert_same_state(clf, ref)


def test_fit_reproduces_the_extractor_loop():
    ds = cluster_dataset(4, [20, 15, 10], n_features=10, sigma=0.1)
    clipped = []
    ref = build_feature_extractor(10, blocks=3, seed=5)
    ref_history = reference_train_extractor(ref, ds.features, ds.labels, epochs=3,
                                            lr=0.5, seed=6, batch_size=8, clipped=clipped)
    f = train_feature_extractor(build_feature_extractor(10, blocks=3, seed=5),
                                ds, epochs=3, lr=0.5, seed=6, batch_size=8)
    assert clipped, "the clip never fired; the comparison misses its path"
    assert f.train_history == ref_history
    assert_same_state(f, ref)


def test_eval_rows_reproduces_the_inference_loops():
    ds = cluster_dataset(7, [150, 150], n_features=12)
    clf, _ = train_classifier(build_classifier(12, 2, seed=8), ds.features, ds.labels,
                              Hyperparameters(epochs=1, batch_size=64), seed=9)
    _, probs = predict(clf, ds.features)    # 300 rows: two batches of 256
    ref = reference_rows(lambda x: ng.softmax_probs(clf.logits(x, train=False).data),
                         ds.features, 256, 2)
    assert probs.tobytes() == ref.tobytes()

    f = train_feature_extractor(build_feature_extractor(12, blocks=2, seed=10), ds,
                                epochs=1, lr=0.01, seed=11)
    ref = reference_rows(lambda x: f.forward(x, train=False).data, ds.features, 7,
                         f.feature_dim)
    assert extract_features(f, ds, batch_size=7).tobytes() == ref.tobytes()
    empty = ng.eval_rows(lambda x: pytest.fail("forward ran"), np.empty((0, 12)), 7, 5)
    assert empty.shape == (0, 5) and empty.dtype == np.float64


@pytest.mark.parametrize("n_labels", [15, 23])
@pytest.mark.parametrize("network", ["classifier", "extractor"])
def test_both_networks_reject_mismatched_rows(network, n_labels):
    rng = np.random.default_rng(12)
    features = rng.uniform(0, 1, (20, 8))
    labels = np.arange(n_labels) % 3
    with pytest.raises(ValueError, match="features and labels disagree on row count"):
        if network == "classifier":
            train_classifier(build_classifier(8, 3, seed=13), features, labels,
                             Hyperparameters(epochs=1), seed=14)
        else:
            train_feature_extractor(build_feature_extractor(8, blocks=2, seed=13),
                                    SimpleNamespace(features=features, labels=labels),
                                    epochs=1, lr=0.01, seed=14)


def grads(*values):
    params = []
    for value in values:
        p = ng.Tensor(np.zeros(np.shape(value) if value is not None else 2),
                      requires_grad=True)
        p.grad = None if value is None else np.array(value, dtype=np.float64)
        params.append(p)
    return params


def test_clip_rescales_to_the_max_norm_above_it():
    params = grads([3.0, 4.0], [[12.0]])        # global norm 13
    ng.clip_gradients(params, 5.0)
    assert np.allclose(params[0].grad, [3.0 * 5 / 13, 4.0 * 5 / 13], rtol=1e-15)
    assert np.allclose(params[1].grad, [[12.0 * 5 / 13]], rtol=1e-15)
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    assert total == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("values", [([3.0, 4.0],), ([1.0, 2.0], [0.5])])
def test_clip_leaves_gradients_at_or_below_the_max_norm(values):
    params = grads(*values)                     # norm exactly 5, then below it
    before = [p.grad for p in params]
    ng.clip_gradients(params, 5.0)
    assert all(p.grad is b for p, b in zip(params, before))


def test_clip_skips_missing_gradients():
    params = grads(None, [6.0, 8.0], None)      # norm 10 from the one gradient
    ng.clip_gradients(params, 5.0)
    assert params[0].grad is None and params[2].grad is None
    assert np.allclose(params[1].grad, [3.0, 4.0], rtol=1e-15)
    below = grads(None, [3.0, 4.0])
    ng.clip_gradients(below, 5.0)
    assert below[0].grad is None and np.array_equal(below[1].grad, [3.0, 4.0])


@pytest.mark.parametrize("total, boundaries", [(8, (5, 7)), (100, (51, 76)), (4, (3, 4))])
def test_step_decay_drops_at_half_and_three_quarters(total, boundaries):
    """Epochs are 1-based: epoch e has spent (e - 1) / total of the budget."""
    tenth, hundredth = boundaries
    lr = 0.3
    rates = [step_decayed_lr(e, total, lr) for e in range(1, total + 1)]
    assert rates[:tenth - 1] == [lr] * (tenth - 1)
    assert rates[tenth - 1:hundredth - 1] == [lr * 0.1] * (hundredth - tenth)
    assert rates[hundredth - 1:] == [lr * 0.01] * (total - hundredth + 1)
