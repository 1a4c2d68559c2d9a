"""The Module protocol, the layer objects built on it, the SGD optimizer, and
the supervised training loop and batched inference forward shared by the
classifier and the feature extractor.

Weights initialize uniformly in +-sqrt(6 / (fan_in + fan_out)), biases at
zero. Every layer takes its init generator explicitly so model builds are
reproducible from a seed. Layers build in float64; a network that computes
in another dtype casts all of its state once, at the end of its build
(`Module.cast`), so the draws are the same in every dtype.
"""

import numpy as np

from . import ops
from .tensor import Tensor, no_grad

CLIP_NORM = 5.0     # global gradient norm `fit` clips every step to
EVAL_BATCH = 256    # rows per inference forward


def _uniform_init(shape, fan_in, fan_out, rng) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def _walk(obj, prefix: str):
    """(path, owner, attribute, value) for every Tensor and ndarray reachable
    through sub-modules, lists of modules and running statistics, in
    attribute definition order."""
    for attr, value in vars(obj).items():
        path = prefix + attr
        if isinstance(value, (Tensor, np.ndarray)):
            yield path, obj, attr, value
        elif isinstance(value, (Module, ops.RunningStats)):
            yield from _walk(value, path + ".")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, Module):
                    yield from _walk(item, f"{path}.{i}.")


class Module:
    """Base of every layer and model.

    Parameters are the Tensor attributes and buffers the ndarray ones
    (batch-norm running statistics), each named by its attribute path,
    e.g. `blocks.0.bn1.gamma` or `bn_stem.running.mean`. Checkpoints are
    keyed by these names, and the parameter order is the order in which
    the attributes were assigned.
    """

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(path, v) for path, _, _, v in _walk(self, "") if isinstance(v, Tensor)]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(path, v) for path, _, _, v in _walk(self, "")
                if isinstance(v, np.ndarray)]

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {path: v.data if isinstance(v, Tensor) else v
                for path, _, _, v in _walk(self, "")}

    def cast(self, dtype) -> "Module":
        """Convert every parameter and buffer to `dtype` in place and record
        it as `self.dtype`, what inputs must be cast to; returns the module."""
        self.dtype = np.dtype(dtype)
        for _, owner, attr, value in _walk(self, ""):
            if isinstance(value, Tensor):
                value.data = value.data.astype(dtype, copy=False)
            else:
                setattr(owner, attr, value.astype(dtype, copy=False))
        return self

    def load_state(self, arrays: dict):
        """Copy every parameter and buffer from `arrays`, each in the dtype
        of the slot it fills; the keys must be exactly this module's names
        and every shape must match."""
        slots = {path: (owner, attr, v) for path, owner, attr, v in _walk(self, "")}
        for key in slots:
            if key not in arrays:
                raise ValueError(f"state is missing {key!r}")
        for key, value in arrays.items():
            if key not in slots:
                raise ValueError(f"unexpected state key {key!r}")
            current = slots[key][2]
            if np.shape(value) != current.shape:
                raise ValueError(f"state {key!r} has shape {np.shape(value)}, "
                                 f"expected {current.shape}")
        for key, (owner, attr, current) in slots.items():
            if isinstance(current, Tensor):
                current.data = np.array(arrays[key], dtype=current.data.dtype)
            else:
                setattr(owner, attr, np.array(arrays[key], dtype=current.dtype))


class Conv1d(Module):
    def __init__(self, c_in, c_out, kernel, stride=1, padding=0, bias=True, rng=None):
        self.stride = stride
        self.padding = padding
        self.weight = _uniform_init((c_out, c_in, kernel), c_in * kernel, c_out * kernel, rng)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True) if bias else None

    def __call__(self, x):
        return ops.conv1d(x, self.weight, self.stride, self.padding, self.bias)


class ConvTranspose1d(Module):
    def __init__(self, c_in, c_out, kernel, stride=1, padding=0, bias=True, rng=None):
        self.stride = stride
        self.padding = padding
        self.weight = _uniform_init((c_in, c_out, kernel), c_in * kernel, c_out * kernel, rng)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True) if bias else None

    def __call__(self, x):
        return ops.conv_transpose1d(x, self.weight, self.stride, self.padding, self.bias)


class Dense(Module):
    def __init__(self, n_in, n_out, rng=None):
        self.weight = _uniform_init((n_out, n_in), n_in, n_out, rng)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x):
        return ops.dense(x, self.weight, self.bias)


class BatchNorm1d(Module):
    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running = ops.RunningStats(channels)

    def __call__(self, x, train):
        return ops.batch_norm1d(x, self.gamma, self.beta, self.running, train)


class SGD:
    """v <- momentum*v + grad + weight_decay*param; param <- param - lr*v."""

    def __init__(self, params, learning_rate, momentum=0.0, weight_decay=0.0):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad + self.weight_decay * p.data
            p.data -= self.learning_rate * v

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def clip_gradients(params, max_norm: float):
    """Scale the whole gradient down when its global norm exceeds
    `max_norm`; inert in healthy regimes, keeps explored high-rate
    candidates finite."""
    total = np.sqrt(sum(float((p.grad ** 2).sum())
                        for p in params if p.grad is not None))
    if total > max_norm:
        scale = float(max_norm / total)     # a Python float keeps the gradients' dtype
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale


def fit(logits, params, rows, labels, epochs: int, batch_size: int,
        rng: np.random.Generator, lr_at, momentum: float = 0.0,
        weight_decay: float = 0.0) -> list[tuple[int, float, float]]:
    """Mini-batch SGD on softmax cross-entropy over `rows` [n, width].

    Each epoch sets the rate to `lr_at(epoch)` and draws one permutation
    from `rng`; `logits(x, rng)` is the train-mode forward of a
    [batch, 1, width] Tensor and draws its dropout masks from the same
    `rng`. The global gradient norm is clipped at CLIP_NORM. Returns the
    per-epoch (epoch, mean loss, train accuracy) trace.
    """
    if rows.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on row count")
    n = rows.shape[0]
    opt = SGD(params, lr_at(1), momentum, weight_decay)
    trace = []
    for epoch in range(1, epochs + 1):
        opt.learning_rate = lr_at(epoch)
        perm = rng.permutation(n)
        losses, hits, seen = [], 0, 0
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            yb = labels[idx]
            loss, probs = ops.softmax_cross_entropy(
                logits(Tensor(rows[idx][:, None, :]), rng), yb)
            opt.zero_grad()
            loss.backward()
            clip_gradients(opt.params, CLIP_NORM)
            opt.step()
            losses.append(float(loss.data))
            hits += int((probs.argmax(axis=1) == yb).sum())
            seen += len(idx)
        trace.append((epoch, float(np.mean(losses)), hits / seen))
    return trace


def eval_rows(forward, rows, batch_size: int, width: int) -> np.ndarray:
    """`forward(x)` over `rows` [n, features] in batches of `batch_size`,
    each fed as a [batch, 1, features] Tensor with no graph recorded;
    returns the [n, width] concatenation, row order kept, and for no rows
    an empty array of the rows' dtype."""
    parts = []
    with no_grad():
        for start in range(0, rows.shape[0], batch_size):
            parts.append(forward(Tensor(rows[start:start + batch_size][:, None, :])))
    return (np.concatenate(parts, axis=0) if parts
            else np.empty((0, width), dtype=rows.dtype))
