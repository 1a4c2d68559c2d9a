"""Per-class adversarial oversampling of minority flow classes.

One generator/discriminator pair trains on the normalized rows of a
single class; sampling the trained generator then tops the class up to
its target count. Rows are treated as one-channel sequences so both
networks are 1D-convolutional: the generator expands a noise vector
through a dense stem and strided transposed convolutions, the
discriminator contracts through strided convolutions into a global
pooled probability. Classes too small to train adversarially fall back
to duplicate-with-jitter sampling.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import ndgrad as ng
from . import parallel
from .flowdata import Dataset
from .seeding import substream, substream_seed
from .settings import check_settings, setting

log = logging.getLogger(__name__)

MIN_GAN_ROWS = 4
NOISE_DIM = 32        # generator input width
LEARNING_RATE = 0.1   # SGD rate of both networks
PROB_FLOOR = 1e-12
JITTER_SIGMA = 0.01
GENERATOR_CHANNELS = (32, 16, 8)
DISCRIMINATOR_CHANNELS = (8, 16)


@dataclass
class GanConfig:
    batch_size: int = setting(32, least=2)
    epochs: int = setting(60, least=1)
    seed: int = 0


def _conv_kernel(length: int) -> int:
    # stride-2, padding-1 stages need kernel <= length + 2
    return min(4, length + 2)


def _conv_out(length: int, kernel: int) -> int:
    return (length + 2 - kernel) // 2 + 1


class Generator(ng.Module):
    """noise [B, NOISE_DIM] -> rows [B, n_features] in (0, 1)."""

    def __init__(self, n_features: int, rng):
        c0, c1, c2 = GENERATOR_CHANNELS
        self.n_features = n_features
        self.base_len = max(1, math.ceil(n_features / 4))
        self.base_channels = c0
        self.stem = ng.Dense(NOISE_DIM, c0 * self.base_len, rng=rng)
        self.bn0 = ng.BatchNorm1d(c0)
        self.up1 = ng.ConvTranspose1d(c0, c1, 4, stride=2, padding=1, bias=False, rng=rng)
        self.bn1 = ng.BatchNorm1d(c1)
        self.up2 = ng.ConvTranspose1d(c1, c2, 4, stride=2, padding=1, bias=False, rng=rng)
        self.bn2 = ng.BatchNorm1d(c2)
        self.head = ng.Conv1d(c2, 1, 3, stride=1, padding=1, bias=True, rng=rng)

    def __call__(self, z: ng.Tensor, train: bool) -> ng.Tensor:
        b = z.shape[0]
        h = self.stem(z).reshape(b, self.base_channels, self.base_len)
        h = ng.leaky_relu(self.bn0(h, train))
        h = ng.leaky_relu(self.bn1(self.up1(h), train))
        h = ng.leaky_relu(self.bn2(self.up2(h), train))
        y = ng.tanh(self.head(h))                      # [B, 1, 4 * base_len]
        y = y[:, 0, :self.n_features]
        return (y + 1.0) * 0.5                         # (-1, 1) -> (0, 1)


class Discriminator(ng.Module):
    """rows [B, n_features] -> real-vs-fake probability [B]."""

    def __init__(self, n_features: int, rng):
        c1, c2 = DISCRIMINATOR_CHANNELS
        self.n_features = n_features
        k1 = _conv_kernel(n_features)
        len1 = _conv_out(n_features, k1)
        k2 = _conv_kernel(len1)
        len2 = _conv_out(len1, k2)
        k3 = _conv_kernel(len2)
        # no batch norm on the entry and output convs
        self.conv1 = ng.Conv1d(1, c1, k1, stride=2, padding=1, bias=True, rng=rng)
        self.conv2 = ng.Conv1d(c1, c2, k2, stride=2, padding=1, bias=False, rng=rng)
        self.bn2 = ng.BatchNorm1d(c2)
        self.conv3 = ng.Conv1d(c2, 1, k3, stride=2, padding=1, bias=True, rng=rng)

    def __call__(self, x: ng.Tensor, train: bool) -> ng.Tensor:
        b = x.shape[0]
        h = x.reshape(b, 1, self.n_features)
        h = ng.leaky_relu(self.conv1(h))
        h = ng.leaky_relu(self.bn2(self.conv2(h), train))
        h = self.conv3(h)
        pooled = ng.global_avg_pool1d(h).reshape(b)    # pooling stands in for a dense head
        return ng.sigmoid(pooled)


@dataclass
class GanPair:
    generator: Generator
    discriminator: Discriminator
    n_features: int
    loss_history: list[tuple[float, float]] = field(default_factory=list)  # (gen, disc)


def generator_loss(d_of_fake) -> ng.Tensor:
    """Non-saturating: mean of -log D(G(z))."""
    p = ng.as_tensor(d_of_fake).clip(PROB_FLOOR, 1.0)
    return (-p.log()).mean()


def discriminator_loss(d_of_real, d_of_fake) -> ng.Tensor:
    """Mean of -log D(x) - log(1 - D(G(z)))."""
    p_real = ng.as_tensor(d_of_real).clip(PROB_FLOOR, 1.0)
    p_fake_inv = (1.0 - ng.as_tensor(d_of_fake)).clip(PROB_FLOOR, 1.0)
    return ((-p_real.log()) + (-p_fake_inv.log())).mean()


def train_dcgan(rows: np.ndarray, cfg: GanConfig) -> GanPair:
    """Alternating single-step updates, one discriminator then one
    generator step per batch, plain SGD on both."""
    check_settings(cfg)
    rows = np.asarray(rows, dtype=np.float64)
    n, n_features = rows.shape
    if n < MIN_GAN_ROWS:
        raise ValueError(f"class has {n} rows; adversarial training needs "
                         f">= {MIN_GAN_ROWS}")
    batch = cfg.batch_size if n >= 2 * cfg.batch_size else max(2, n // 2)

    rng_init = substream(cfg.seed, "gan-init")
    gen = Generator(n_features, rng_init)
    disc = Discriminator(n_features, rng_init)
    pair = GanPair(generator=gen, discriminator=disc, n_features=n_features)
    opt_g = ng.SGD(gen.parameters(), LEARNING_RATE)
    opt_d = ng.SGD(disc.parameters(), LEARNING_RATE)

    rng = substream(cfg.seed, "gan-train")
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        g_losses, d_losses = [], []
        for start in range(0, n - batch + 1, batch):
            xb = ng.Tensor(rows[perm[start:start + batch]])
            z = ng.Tensor(rng.standard_normal((batch, NOISE_DIM)))

            fake = gen(z, train=True)
            d_real = disc(xb, train=True)
            d_fake = disc(fake.detach(), train=True)
            loss_d = discriminator_loss(d_real, d_fake)
            opt_d.zero_grad()
            loss_d.backward()
            opt_d.step()

            loss_g = generator_loss(disc(gen(z, train=True), train=True))
            opt_g.zero_grad()
            loss_g.backward()
            opt_g.step()

            d_losses.append(float(loss_d.data))
            g_losses.append(float(loss_g.data))
        pair.loss_history.append((float(np.mean(g_losses)), float(np.mean(d_losses))))
    return pair


def sample_rows(pair: GanPair, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` synthetic rows from the trained generator (eval mode)."""
    if count <= 0:
        return np.empty((0, pair.n_features), dtype=np.float64)
    z = ng.Tensor(rng.standard_normal((count, NOISE_DIM)))
    with ng.no_grad():
        out = pair.generator(z, train=False).data
    return np.clip(out, 0.0, 1.0)


def jitter_rows(rows: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Duplicate rows cyclically and add small Gaussian noise; the
    fallback for classes too small to train a GAN on."""
    base = rows[np.arange(count) % rows.shape[0]]
    noisy = base + rng.normal(0.0, JITTER_SIGMA, base.shape)
    return np.clip(noisy, 0.0, 1.0)


def discriminator_accuracy(pair: GanPair, real_rows: np.ndarray,
                           rng: np.random.Generator) -> float:
    """Real-vs-fake accuracy on held-out rows plus fresh samples; an
    over- or under-powered discriminator drifts away from 0.5."""
    real = np.asarray(real_rows, dtype=np.float64)
    fake = sample_rows(pair, real.shape[0], rng)
    with ng.no_grad():
        p_real = pair.discriminator(ng.Tensor(real), train=False).data
        p_fake = pair.discriminator(ng.Tensor(fake), train=False).data
    return float(((p_real > 0.5).sum() + (p_fake <= 0.5).sum()) / (2.0 * real.shape[0]))


def median_targets(d: Dataset) -> dict[int, int]:
    """Default oversampling policy: raise every below-median class to the
    median class count."""
    counts = d.class_counts()
    median = int(np.median(counts))
    return {c: median for c in range(len(counts)) if counts[c] < median}


def oversample_minorities(d: Dataset, targets: dict, cfg: GanConfig) -> Dataset:
    """Append generated rows until each targeted class, keyed by class
    index, reaches its count.

    Original rows stay untouched, in order, as a prefix; synthetic rows
    append in ascending class order. Per-class seeds derive from
    cfg.seed, so reruns are identical. The GAN classes train on
    min(GAN classes, available CPUs) processes; the result does not
    depend on that count.
    """
    outside = [cls for cls in targets if not 0 <= cls < len(d.class_names)]
    if outside:
        raise ValueError(f"target class indices {outside} are outside "
                         f"[0, {len(d.class_names)})")
    targets = {int(cls): int(count) for cls, count in targets.items()}
    counts = d.class_counts()
    for cls, target in targets.items():
        if target < counts[cls]:
            raise ValueError(f"target {target} for class {d.class_names[cls]!r} "
                             f"is below its current count {counts[cls]}")
    needs = {cls: targets[cls] - counts[cls] for cls in sorted(targets)
             if targets[cls] > counts[cls]}
    gan_classes = [cls for cls in needs if counts[cls] >= MIN_GAN_ROWS]

    def class_seed(cls):
        return substream_seed(cfg.seed, "class", cls)

    def gan_rows(cls):
        pair = train_dcgan(d.features[d.labels == cls], replace(cfg, seed=class_seed(cls)))
        return sample_rows(pair, needs[cls], substream(class_seed(cls), "sample"))

    workers = min(len(gan_classes), parallel.available_cpus())
    with parallel.map_jobs(gan_rows, workers) as map_gans:
        synth_by_class = dict(zip(gan_classes, map_gans(gan_classes)))
    synth_feats, synth_labels = [], []
    for cls, need in needs.items():
        if cls not in synth_by_class:
            rows = d.features[d.labels == cls]
            log.warning("class %r has %d rows; using duplicate-with-jitter "
                        "oversampling instead of a GAN",
                        d.class_names[cls], rows.shape[0])
            synth_by_class[cls] = jitter_rows(rows, need,
                                              substream(class_seed(cls), "jitter"))
        synth_feats.append(synth_by_class[cls])
        synth_labels.append(np.full(need, cls, dtype=np.int64))
    if not synth_feats:
        return d
    features = np.concatenate([d.features] + synth_feats, axis=0)
    labels = np.concatenate([d.labels] + synth_labels)
    return replace(d, features=features, labels=labels)
