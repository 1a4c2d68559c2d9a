"""Reduced 1D AlexNet-style classifier over extracted feature vectors.

Trunk: three conv layers, each followed by max pooling, with divisive
channel normalization after the first two pooling stages. Head: two
dropout-guarded hidden dense layers and a softmax projection over the
attack classes. Kernels shrink automatically when the input vector is
shorter than the default schedule expects.
"""

import logging
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ndgrad as ng
from .seeding import substream
from .settings import check_settings, setting

log = logging.getLogger(__name__)

CONV_CHANNELS = (32, 64, 64)
KERNEL_SIZES = (7, 5, 3)      # shrunk to odd sizes that fit narrow inputs
DENSE_WIDTHS = (128, 64)
DROPOUT_RATE = 0.5            # on the inputs of both hidden dense layers


@dataclass
class Hyperparameters:
    """SGD settings searched by the tuner. Defaults are the reference
    optimum used when tuning is skipped."""

    momentum: float = setting(0.9, least=0.0, below=1.0)
    weight_decay: float = setting(0.005, least=0.0)
    epochs: int = setting(100, least=1)
    learning_rate: float = setting(0.001, above=0.0)
    batch_size: int = setting(32, least=1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparameters":
        hp = cls(**{name: parse(d[name]) for name, parse in HYPERPARAMETER_TYPES.items()})
        check_settings(hp)
        return hp


# field name -> type; parses saved hyperparameters
HYPERPARAMETER_TYPES = {f.name: f.type for f in fields(Hyperparameters)}


def _shrink_odd(kernel: int, length: int) -> int:
    """Largest odd kernel <= min(kernel, length); odd keeps lengths stable
    under same-padding."""
    k = min(kernel, length)
    if k % 2 == 0:
        k -= 1
    return max(k, 1)


def step_decayed_lr(epoch: int, total_epochs: int, initial_lr: float) -> float:
    """The configured rate is the *initial* one: drop tenfold at half the
    budget and a hundredfold at three quarters, so candidates that learn
    fast early still settle late."""
    fraction = (epoch - 1) / total_epochs
    if fraction < 0.5:
        return initial_lr
    if fraction < 0.75:
        return initial_lr * 0.1
    return initial_lr * 0.01


class AlexNetClassifier(ng.Module):
    """Computes in `dtype`; training and prediction cast their rows to it."""

    def __init__(self, feature_dim: int, n_classes: int, seed: int = 0, dtype=np.float64):
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        if feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        rng = substream(seed, "alexclf-init")
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        self.trained = False

        self.convs = []
        self.pools = []      # (window, stride) per stage
        length = feature_dim
        c_in = 1
        for stage, (c_out, kernel) in enumerate(zip(CONV_CHANNELS, KERNEL_SIZES)):
            k = _shrink_odd(kernel, length)
            if k != kernel:
                log.warning("conv stage %d: kernel %d shrunk to %d for length %d",
                            stage + 1, kernel, k, length)
            self.convs.append(ng.Conv1d(c_in, c_out, k, stride=1, padding=k // 2,
                                        bias=True, rng=rng))
            if length >= 2:
                self.pools.append((2, 2))
                length = (length - 2) // 2 + 1
            else:
                self.pools.append((1, 1))
            c_in = c_out
        self.flat_dim = c_in * length

        self.dense1 = ng.Dense(self.flat_dim, DENSE_WIDTHS[0], rng=rng)
        self.dense2 = ng.Dense(DENSE_WIDTHS[0], DENSE_WIDTHS[1], rng=rng)
        self.softmax_head = ng.Dense(DENSE_WIDTHS[1], n_classes, rng=rng)
        self.cast(dtype)

    def logits(self, x: ng.Tensor, train: bool,
               rng: np.random.Generator | None = None) -> ng.Tensor:
        """x is [batch, 1, feature_dim]. Dropout guards the two hidden
        dense layers and applies only when training supplies an rng."""
        h = x
        for stage, (conv, (window, stride)) in enumerate(zip(self.convs, self.pools)):
            h = ng.relu(conv(h))
            h = ng.max_pool1d(h, window, stride)
            if stage < 2:
                h = ng.lrn(h)
        h = h.reshape(h.shape[0], self.flat_dim)
        use_dropout = train and rng is not None
        if use_dropout:
            h = ng.dropout(h, DROPOUT_RATE, train, rng)
        h = ng.relu(self.dense1(h))
        if use_dropout:
            h = ng.dropout(h, DROPOUT_RATE, train, rng)
        h = ng.relu(self.dense2(h))
        return self.softmax_head(h)


build_classifier = AlexNetClassifier


def _check_width(clf: AlexNetClassifier, features: np.ndarray):
    if features.shape[1] != clf.feature_dim:
        raise ValueError(f"classifier expects {clf.feature_dim} features, "
                         f"got {features.shape[1]}")


def train_classifier(clf: AlexNetClassifier, features: np.ndarray, labels: np.ndarray,
                     hp: Hyperparameters, seed: int = 0
                     ) -> tuple[AlexNetClassifier, list[tuple[int, float, float]]]:
    """Mini-batch SGD on cross-entropy (`ng.fit`); returns the classifier
    plus a per-epoch (epoch, mean loss, train accuracy) trace.

    hp.learning_rate is the initial rate of a step-decay schedule."""
    check_settings(hp)
    features = np.asarray(features, dtype=clf.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    _check_width(clf, features)
    trace = ng.fit(lambda x, rng: clf.logits(x, train=True, rng=rng), clf.parameters(),
                   features, labels, hp.epochs, hp.batch_size,
                   substream(seed, "alexclf-train"),
                   lambda epoch: step_decayed_lr(epoch, hp.epochs, hp.learning_rate),
                   hp.momentum, hp.weight_decay)
    clf.trained = True
    return clf, trace


def predict(clf: AlexNetClassifier, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode argmax classes and the full probability matrix.

    Ties resolve to the lowest class index.
    """
    if not clf.trained:
        raise ValueError("classifier has not been trained")
    features = np.asarray(features, dtype=clf.dtype)
    _check_width(clf, features)
    probs = ng.eval_rows(lambda x: ng.softmax_probs(clf.logits(x, train=False).data),
                         features, ng.EVAL_BATCH, clf.n_classes)
    return probs.argmax(axis=1), probs
