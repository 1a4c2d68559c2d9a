"""1D residual feature extractor.

A stem convolution feeds a stack of residual blocks; each block runs
three conv+batchnorm stages with two interior ReLUs, and adds a skip path
(identity, or a 1x1 projection when the channel count or stride changes).
Global average pooling turns the final map into a fixed-length feature
vector. Training attaches a throwaway softmax head, fits end to end, then
discards the head and freezes the trunk for feature extraction.
"""

import logging

import numpy as np

from . import ndgrad as ng
from .alexclf import _shrink_odd
from .seeding import substream

log = logging.getLogger(__name__)

DROPOUT_RATE = 0.2    # on the pooled vector while training
MOMENTUM = 0.9        # SGD momentum of the supervised pretraining
LEARNING_RATE = 0.01  # SGD rate of the pipeline's pretraining


class ResidualBlock(ng.Module):
    def __init__(self, c_in: int, c_out: int, stride: int = 1, rng=None):
        self.conv1 = ng.Conv1d(c_in, c_out, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = ng.BatchNorm1d(c_out)
        self.conv2 = ng.Conv1d(c_out, c_out, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = ng.BatchNorm1d(c_out)
        self.conv3 = ng.Conv1d(c_out, c_out, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn3 = ng.BatchNorm1d(c_out)
        if stride != 1 or c_in != c_out:
            self.proj = ng.Conv1d(c_in, c_out, 1, stride=stride, padding=0, bias=False, rng=rng)
            self.bn_proj = ng.BatchNorm1d(c_out)
        else:
            self.proj = None
            self.bn_proj = None

    def __call__(self, x: ng.Tensor, train: bool) -> ng.Tensor:
        h = ng.relu(self.bn1(self.conv1(x), train))
        h = ng.relu(self.bn2(self.conv2(h), train))
        h = self.bn3(self.conv3(h), train)
        skip = x if self.proj is None else self.bn_proj(self.proj(x), train)
        return h + skip


class FeatureExtractor(ng.Module):
    """Frozen after training; extraction is then a pure function. The
    feature vector is as wide as the final block. Computes in `dtype`, as
    does the temporary head that training attaches."""

    def __init__(self, input_features: int, blocks: int = 16, base_channels: int = 16,
                 seed: int = 0, dtype=np.float64):
        if blocks < 1:
            raise ValueError("need at least one residual block")
        if input_features < 1:
            raise ValueError("input_features must be >= 1")
        rng = substream(seed, "resfeat-init")
        self.input_features = input_features
        self.frozen = False

        # width doubles every 4 blocks, downsampling at each doubling
        channels = [base_channels * (2 ** (i // 4)) for i in range(blocks)]

        stem_kernel = _shrink_odd(7, input_features)
        self.stem = ng.Conv1d(1, channels[0], stem_kernel, stride=1,
                              padding=stem_kernel // 2, bias=False, rng=rng)
        self.bn_stem = ng.BatchNorm1d(channels[0])

        self.blocks: list[ResidualBlock] = []
        c_in = channels[0]
        length = input_features
        for i, c_out in enumerate(channels):
            stride = 2 if (i > 0 and c_out != channels[i - 1] and length >= 2) else 1
            self.blocks.append(ResidualBlock(c_in, c_out, stride, rng))
            length = (length - 1) // stride + 1
            c_in = c_out

        self.feature_dim = c_in
        self.cast(dtype)

    def forward(self, x: ng.Tensor, train: bool,
                rng: np.random.Generator | None = None) -> ng.Tensor:
        """[batch, 1, input_features] -> [batch, feature_dim].

        Dropout on the pooled vector applies only when training supplies
        an rng; gradient checks run train-mode batch norm without it."""
        h = ng.relu(self.bn_stem(self.stem(x), train))
        for block in self.blocks:
            h = block(h, train)
        pooled = ng.global_avg_pool1d(h).reshape(h.shape[0], self.feature_dim)
        if train and rng is not None:
            pooled = ng.dropout(pooled, DROPOUT_RATE, train, rng)
        return pooled


build_feature_extractor = FeatureExtractor


def train_feature_extractor(f: FeatureExtractor, train_ds, epochs: int, lr: float,
                            seed: int = 0, batch_size: int = 32) -> FeatureExtractor:
    """Supervised pretraining (`ng.fit`) with a temporary softmax head, then
    freeze.

    epochs=0 freezes the randomly initialized trunk (smoke mode). The
    per-epoch (epoch, loss, accuracy) trace lands on f.train_history.
    """
    if f.frozen:
        raise ValueError("extractor is already frozen")
    features = np.asarray(train_ds.features, dtype=f.dtype)
    labels = np.asarray(train_ds.labels, dtype=np.int64)
    if features.shape[1] != f.input_features:
        raise ValueError(f"extractor was built for {f.input_features} features, "
                         f"dataset has {features.shape[1]}")
    if epochs > 0 and np.unique(labels).size < 2:
        raise ValueError("feature extractor training needs at least 2 classes")

    f.train_history = []
    if epochs > 0:
        head = ng.Dense(f.feature_dim, int(labels.max()) + 1,
                        rng=substream(seed, "resfeat-head")).cast(f.dtype)
        f.train_history = ng.fit(lambda x, rng: head(f.forward(x, train=True, rng=rng)),
                                 f.parameters() + head.parameters(), features, labels,
                                 epochs, batch_size, substream(seed, "resfeat-train"),
                                 lambda epoch: lr, MOMENTUM)
    f.frozen = True
    return f


def extract_features(f: FeatureExtractor, d, batch_size: int = ng.EVAL_BATCH) -> np.ndarray:
    """Eval-mode forward over all rows; [rows, feature_dim], order kept."""
    if not f.frozen:
        raise ValueError("freeze the extractor (train_feature_extractor) first")
    features = np.asarray(d.features if hasattr(d, "features") else d, dtype=f.dtype)
    if features.shape[1] != f.input_features:
        raise ValueError(f"extractor was built for {f.input_features} features, "
                         f"got {features.shape[1]}")
    return ng.eval_rows(lambda x: f.forward(x, train=False).data, features, batch_size,
                        f.feature_dim)
