"""The Module protocol shared by the four networks: attribute-path names,
parameters in definition order, and strict state loading."""

import numpy as np
import pytest

from dosids import ndgrad as ng
from dosids.alexclf import build_classifier, predict
from dosids.augment import (NOISE_DIM, GanConfig, discriminator_accuracy, sample_rows,
                            train_dcgan)
from dosids.resfeat import build_feature_extractor, extract_features
from dosids.seeding import substream

NETWORKS = ("extractor", "classifier", "generator", "discriminator")


def build_networks(seed):
    """name -> (module, eval-mode forward). Every batch norm has seen
    train-mode batches, so its running statistics are not the defaults."""
    rng = np.random.default_rng(0)
    rows = rng.uniform(0.2, 0.8, (12, 10))
    x = ng.Tensor(rows[:, None, :])
    f = build_feature_extractor(10, blocks=5, seed=seed)
    f.forward(x, train=True)
    pair = train_dcgan(rows, GanConfig(epochs=1, batch_size=4, seed=seed))
    z = ng.Tensor(rng.standard_normal((5, NOISE_DIM)))
    return {
        "extractor": (f, lambda m: m.forward(x, train=False)),
        "classifier": (build_classifier(10, 3, seed=seed),
                       lambda m: m.logits(x, train=False)),
        "generator": (pair.generator, lambda m: m(z, train=False)),
        "discriminator": (pair.discriminator,
                          lambda m: m(ng.Tensor(rows), train=False)),
    }


@pytest.mark.parametrize("name", NETWORKS)
def test_module_protocol(name):
    module, forward = build_networks(1)[name]
    clone, _ = build_networks(2)[name]
    named = module.named_parameters()
    names = [n for n, _ in named] + [n for n, _ in module.named_buffers()]
    assert len(set(names)) == len(names)
    params = module.parameters()
    assert len(params) == len(named)
    assert all(p is q for p, (_, q) in zip(params, named))

    assert not np.array_equal(forward(clone).data, forward(module).data)
    clone.load_state(module.state_arrays())
    assert np.array_equal(forward(clone).data, forward(module).data)


def test_names_are_attribute_paths():
    f = build_feature_extractor(10, blocks=5, seed=0)
    names = [n for n, _ in f.named_parameters()]
    assert names[:3] == ["stem.weight", "bn_stem.gamma", "bn_stem.beta"]
    assert names[3:9] == ["blocks.0.conv1.weight", "blocks.0.bn1.gamma",
                          "blocks.0.bn1.beta", "blocks.0.conv2.weight",
                          "blocks.0.bn2.gamma", "blocks.0.bn2.beta"]
    assert "blocks.4.proj.weight" in names and "blocks.3.proj.weight" not in names
    assert names[-2:] == ["blocks.4.bn_proj.gamma", "blocks.4.bn_proj.beta"]
    buffers = [n for n, _ in f.named_buffers()]
    assert buffers[:2] == ["bn_stem.running.mean", "bn_stem.running.var"]
    assert "blocks.4.bn_proj.running.var" in buffers

    clf = build_classifier(16, 3, seed=0)
    assert [n for n, _ in clf.named_parameters()] == [
        "convs.0.weight", "convs.0.bias", "convs.1.weight", "convs.1.bias",
        "convs.2.weight", "convs.2.bias", "dense1.weight", "dense1.bias",
        "dense2.weight", "dense2.bias", "softmax_head.weight", "softmax_head.bias"]
    assert clf.named_buffers() == []


def test_load_state_rejects_shape_mismatch_and_loads_nothing():
    state = build_classifier(16, 3, seed=0).state_arrays()
    clf = build_classifier(12, 3, seed=1)
    before = {k: v.copy() for k, v in clf.state_arrays().items()}
    with pytest.raises(ValueError, match="'dense1.weight' has shape"):
        clf.load_state(state)
    after = clf.state_arrays()
    assert all(np.array_equal(after[k], v) for k, v in before.items())


def test_load_state_rejects_missing_and_unexpected_keys():
    clf = build_classifier(16, 3, seed=0)
    state = clf.state_arrays()
    with pytest.raises(ValueError, match="unexpected state key 'bogus.weight'"):
        clf.load_state({**state, "bogus.weight": np.zeros(2)})
    del state["convs.0.bias"]
    with pytest.raises(ValueError, match="missing 'convs.0.bias'"):
        clf.load_state(state)


def _spy(monkeypatch, owner, attr) -> list:
    """Replace owner.attr by a wrapper that keeps every tensor it returns."""
    original, outputs = getattr(owner, attr), []

    def spy(*args, **kwargs):
        outputs.append(original(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(owner, attr, spy)
    return outputs


def test_inference_entry_points_build_no_graph(monkeypatch):
    """predict, extract_features, sample_rows and discriminator_accuracy
    give the bytes of the graph-building eval forward, and no tensor their
    forwards return carries a graph."""
    rng = np.random.default_rng(0)
    rows = rng.uniform(0.2, 0.8, (12, 10))
    x = ng.Tensor(rows[:, None, :])
    spied = []

    f = build_feature_extractor(10, blocks=5, seed=3)
    f.forward(x, train=True)
    f.frozen = True
    expected = f.forward(x, train=False)
    assert expected.requires_grad
    spied.append(_spy(monkeypatch, f, "forward"))
    assert extract_features(f, rows).tobytes() == expected.data.tobytes()

    clf = build_classifier(10, 3, seed=3)
    clf.trained = True
    expected = ng.softmax_probs(clf.logits(x, train=False).data)
    spied.append(_spy(monkeypatch, clf, "logits"))
    assert predict(clf, rows)[1].tobytes() == expected.tobytes()

    pair = train_dcgan(rows, GanConfig(epochs=1, batch_size=4, seed=3))
    z = ng.Tensor(substream(3, "sample").standard_normal((5, NOISE_DIM)))
    expected = np.clip(pair.generator(z, train=False).data, 0.0, 1.0)
    fake = sample_rows(pair, 12, substream(3, "probe"))
    p_real = pair.discriminator(ng.Tensor(rows), train=False).data
    p_fake = pair.discriminator(ng.Tensor(fake), train=False).data
    accuracy = ((p_real > 0.5).sum() + (p_fake <= 0.5).sum()) / 24.0
    spied.append(_spy(monkeypatch, pair, "generator"))
    spied.append(_spy(monkeypatch, pair, "discriminator"))
    assert sample_rows(pair, 5, substream(3, "sample")).tobytes() == expected.tobytes()
    assert discriminator_accuracy(pair, rows, substream(3, "probe")) == accuracy

    for outputs in spied:
        assert outputs
        assert all(not t.requires_grad and t._parents == () for t in outputs)
