"""Residual extractor checks: the additive-skip identity, gradient flow
through both paths, training/freezing contracts, and extraction purity."""

import numpy as np
import pytest

from dosids import ndgrad as ng
from dosids.ndgrad import Tensor, grad_check
from dosids.resfeat import (FeatureExtractor, ResidualBlock,
                            build_feature_extractor, extract_features,
                            train_feature_extractor)
from dosids.seeding import substream
from conftest import cluster_dataset


def test_block_identity_when_main_path_zeroed():
    block = ResidualBlock(4, 4, stride=1, rng=substream(0, "b"))
    for conv in (block.conv1, block.conv2, block.conv3):
        conv.weight.data[:] = 0.0
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 6)))
    out = block(x, train=False)  # fresh running stats
    assert np.array_equal(out.data, x.data)


def test_block_shape_with_channel_change_and_stride():
    block = ResidualBlock(4, 8, stride=2, rng=substream(1, "b"))
    x = Tensor(np.random.default_rng(2).normal(size=(3, 4, 9)))
    out = block(x, train=True)
    assert out.shape == (3, 8, 5)
    assert block.proj is not None


def test_block_gradient_flows_through_both_paths():
    block = ResidualBlock(3, 3, stride=1, rng=substream(2, "b"))
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 5)), requires_grad=True)
    params = block.parameters()
    err = grad_check(lambda: block(x, train=True).mean(),
                     [x] + params, max_coords=120,
                     rng=np.random.default_rng(0))
    assert err < 1e-4


def test_build_block_counts():
    assert len(build_feature_extractor(20, blocks=16, seed=0).blocks) == 16
    assert len(build_feature_extractor(20, blocks=4, seed=0).blocks) == 4
    with pytest.raises(ValueError):
        build_feature_extractor(20, blocks=0)


def test_build_channel_schedule_doubles_every_four():
    f = build_feature_extractor(32, blocks=9, base_channels=16, seed=0)
    widths = [b.conv1.weight.shape[0] for b in f.blocks]
    assert widths == [16, 16, 16, 16, 32, 32, 32, 32, 64]
    assert f.feature_dim == 64


def test_build_deterministic():
    a = build_feature_extractor(12, blocks=3, seed=42)
    b = build_feature_extractor(12, blocks=3, seed=42)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_train_reaches_high_accuracy_on_separable_data():
    ds = cluster_dataset(5, [100, 100], n_features=14, sigma=0.04)
    f = build_feature_extractor(14, blocks=4, seed=5)
    f = train_feature_extractor(f, ds, epochs=20, lr=0.01, seed=6)
    assert f.train_history[-1][2] >= 0.95
    assert f.train_history[-1][1] < f.train_history[0][1]  # loss shrank


def test_train_epochs_zero_freezes_at_init():
    ds = cluster_dataset(6, [10, 10], n_features=8)
    f = build_feature_extractor(8, blocks=2, seed=7)
    before = [p.data.copy() for p in f.parameters()]
    f = train_feature_extractor(f, ds, epochs=0, lr=0.01)
    assert f.frozen
    for p, b in zip(f.parameters(), before):
        assert np.array_equal(p.data, b)


def test_train_refuses_single_class():
    ds = cluster_dataset(7, [20], n_features=8)
    f = build_feature_extractor(8, blocks=2, seed=8)
    with pytest.raises(ValueError, match="2 classes"):
        train_feature_extractor(f, ds, epochs=3, lr=0.01)


def test_train_refuses_frozen():
    ds = cluster_dataset(8, [10, 10], n_features=8)
    f = build_feature_extractor(8, blocks=2, seed=9)
    f = train_feature_extractor(f, ds, epochs=0, lr=0.01)
    with pytest.raises(ValueError, match="frozen"):
        train_feature_extractor(f, ds, epochs=1, lr=0.01)


def test_extract_requires_frozen():
    ds = cluster_dataset(9, [10, 10], n_features=8)
    f = build_feature_extractor(8, blocks=2, seed=10)
    with pytest.raises(ValueError, match="freeze"):
        extract_features(f, ds)


def test_extract_width_mismatch():
    ds = cluster_dataset(10, [10, 10], n_features=6)
    f = build_feature_extractor(8, blocks=2, seed=11)
    f.frozen = True
    with pytest.raises(ValueError, match="built for"):
        extract_features(f, ds)


def test_extract_deterministic_and_rowwise():
    ds = cluster_dataset(11, [30, 30], n_features=10)
    f = build_feature_extractor(10, blocks=3, seed=12)
    f = train_feature_extractor(f, ds, epochs=2, lr=0.01, seed=13)
    a = extract_features(f, ds)
    b = extract_features(f, ds)
    assert np.array_equal(a, b)
    assert a.shape == (60, f.feature_dim)
    # row order preserved & purely rowwise: identical rows -> identical features
    dup = cluster_dataset(11, [30, 30], n_features=10)
    dup.features[1] = dup.features[0]
    feats = extract_features(f, dup)
    assert np.array_equal(feats[0], feats[1])
    # batching must not change values
    assert np.allclose(extract_features(f, ds, batch_size=7), a)


def test_extract_finite_on_unit_box_inputs():
    rng = np.random.default_rng(14)
    ds = cluster_dataset(12, [40, 40], n_features=9)
    f = build_feature_extractor(9, blocks=4, seed=15)
    f = train_feature_extractor(f, ds, epochs=3, lr=0.01, seed=16)
    probe = cluster_dataset(13, [20, 20], n_features=9)
    probe.features[:] = rng.uniform(0, 1, probe.features.shape)
    assert np.isfinite(extract_features(f, probe)).all()


def test_full_network_gradcheck_desk_preset():
    f = build_feature_extractor(10, blocks=4, seed=17)
    head = ng.Dense(f.feature_dim, 3, rng=substream(18, "head"))
    x = Tensor(np.random.default_rng(19).uniform(0.1, 0.9, (2, 1, 10)))
    targets = np.array([0, 2])

    def loss_fn():
        logits = head(f.forward(x, train=True))
        return ng.softmax_cross_entropy(logits, targets)[0]

    err = grad_check(loss_fn, f.parameters() + head.parameters(),
                     max_coords=300, rng=np.random.default_rng(20))
    assert err < 1e-4


def test_state_arrays_round_trip():
    ds = cluster_dataset(14, [15, 15], n_features=8)
    f = build_feature_extractor(8, blocks=2, seed=21)
    f = train_feature_extractor(f, ds, epochs=2, lr=0.01, seed=22)
    feats = extract_features(f, ds)
    clone = build_feature_extractor(8, blocks=2, seed=99)
    clone.load_state(f.state_arrays())
    clone.frozen = True
    assert np.allclose(extract_features(clone, ds), feats)
