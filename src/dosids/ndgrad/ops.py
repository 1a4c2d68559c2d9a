"""Differentiable neural-net primitives for 1D architectures.

Shape convention: batched sequence tensors are [batch, channels, length],
flat feature tensors are [batch, features]. Each op is fused (single
numpy forward, single backward closure) to keep graphs small.
"""

import numpy as np

from .tensor import Tensor, as_tensor, make_from_op, _accumulate

LEAKY_SLOPE = 0.2     # DCGAN's LeakyReLU slope
BN_EPS = 1e-5         # batch norm's variance floor
BN_MOMENTUM = 0.1     # weight of each batch in the running statistics


# ---- activations --------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out_data = x.data * mask

    def bw(g):
        _accumulate(x, g * mask)  # subgradient 0 at the kink

    return make_from_op(out_data, (x,), bw)


def leaky_relu(x: Tensor) -> Tensor:
    factor = np.where(x.data > 0, 1.0, LEAKY_SLOPE)
    out_data = x.data * factor

    def bw(g):
        _accumulate(x, g * factor)

    return make_from_op(out_data, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def bw(g):
        _accumulate(x, g * (1.0 - out_data ** 2))

    return make_from_op(out_data, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    out_data = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return make_from_op(out_data, (x,), bw)


_ACTIVATIONS = {"relu": relu, "leaky_relu": leaky_relu, "tanh": tanh, "sigmoid": sigmoid}


def activation(x: Tensor, kind: str) -> Tensor:
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ValueError(f"unknown activation kind {kind!r}") from None


# ---- convolution ---------------------------------------------------------

def _pad_length(a: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return a
    b, c, length = a.shape
    out = np.zeros((b, c, length + 2 * padding), dtype=a.dtype)
    out[:, :, padding:padding + length] = a
    return out


def _sliding_patches(a: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Strided view [B, C, window, steps] over the last axis. No copy."""
    b, c, length = a.shape
    steps = (length - window) // stride + 1
    s0, s1, s2 = a.strides
    return np.lib.stride_tricks.as_strided(
        a, shape=(b, c, window, steps), strides=(s0, s1, s2, s2 * stride), writeable=False
    )


def _scatter_taps(taps: np.ndarray, stride: int, full: int) -> np.ndarray:
    """Adjoint of _sliding_patches: sum taps [B, C, K, T] into zeros
    [B, C, full], tap i of step t landing at position i + stride * t."""
    b, c, k, t = taps.shape
    out = np.zeros((b, c, full), dtype=np.float64)
    for i in range(k):
        out[:, :, i:i + stride * (t - 1) + 1:stride] += taps[:, :, i, :]
    return out


def _weight_grad(g: np.ndarray, patches: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum over b and t of g[b, :, t] outer the patch columns, as [G, C*K].

    Byte for byte np.tensordot(g, patches, axes=([0, 2], [0, 3])), where
    patches is a _sliding_patches view [B, C, K, T] and cols its im2col
    reshape [B, C*K, T]. tensordot copies the patches into rows [B*T, C*K],
    except possibly where the B and T axes merge (batch 1, one step, or a
    batch stride of exactly T strides): there it can hand BLAS a strided
    view, whose result may differ in the last ulp, so tensordot runs as
    is. Elsewhere the same rows come from cols, saving a second gather."""
    b, _, _, t = patches.shape
    if b == 1 or t == 1 or patches.strides[0] == t * patches.strides[3]:
        return np.tensordot(g, patches, axes=([0, 2], [0, 3])).reshape(g.shape[1], -1)
    rows = np.ascontiguousarray(cols.transpose(0, 2, 1)).reshape(b * t, cols.shape[1])
    return np.dot(g.transpose(1, 0, 2).reshape(g.shape[1], b * t), rows)


def conv1d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """Cross-correlation of [B, Cin, L] with kernels [Cout, Cin, K]."""
    b, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, kernel expects {c_in_w}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if k > length + 2 * padding:
        raise ValueError(f"kernel {k} longer than padded input {length + 2 * padding}")

    xp = _pad_length(x.data, padding)
    patches = _sliding_patches(xp, k, stride)                # [B, Cin, K, T]
    t = patches.shape[3]
    w2 = weight.data.reshape(c_out, c_in * k)
    cols = patches.reshape(b, c_in * k, t)                    # im2col [B, Cin*K, T]
    out_data = np.matmul(w2, cols)                            # [B, Cout, T]
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    def bw(g):
        if weight.requires_grad:
            # dW[o,c,k] = sum_{b,t} g[b,o,t] * patches[b,c,k,t]
            _accumulate(weight, _weight_grad(g, patches, cols).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2)))
        if x.requires_grad:
            # dpatches[b,(c,k),t] = W2^T @ g
            dpatches = np.matmul(w2.T, g).reshape(b, c_in, k, t)
            dxp = _scatter_taps(dpatches, stride, xp.shape[2])
            dx = dxp[:, :, padding:padding + length] if padding else dxp
            _accumulate(x, dx)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_from_op(out_data, parents, bw)


def conv_transpose1d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0,
                     bias: Tensor | None = None) -> Tensor:
    """Transposed (fractionally strided) version of conv1d.

    x is [B, Cin, L], weight is [Cin, Cout, K]; output length is
    (L - 1) * stride + K - 2 * padding.
    """
    b, c_in, length = x.shape
    c_in_w, c_out, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, kernel expects {c_in_w}")
    full = (length - 1) * stride + k
    out_len = full - 2 * padding
    if out_len < 1:
        raise ValueError("padding swallows the whole output")

    # contrib[b,(o,k),l] = W2^T @ x with W2 = weight[(c),(o,k)]
    w2 = weight.data.reshape(c_in, c_out * k)
    contrib = np.matmul(w2.T, x.data).reshape(b, c_out, k, length)
    out_full = _scatter_taps(contrib, stride, full)
    out_data = out_full[:, :, padding:padding + out_len].copy()
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    def bw(g):
        gpatches = _sliding_patches(_pad_length(g, padding), k, stride)  # [B, Cout, K, L]
        gcols = gpatches.reshape(b, c_out * k, length)
        if x.requires_grad:
            # dx[b,c,l] = sum_{o,k} gpatches[b,o,k,l] * weight[c,o,k]
            _accumulate(x, np.matmul(w2, gcols))
        if weight.requires_grad:
            # dW[c,o,k] = sum_{b,l} x[b,c,l] * gpatches[b,o,k,l]
            _accumulate(weight, _weight_grad(x.data, gpatches, gcols).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_from_op(out_data, parents, bw)


# ---- normalization -------------------------------------------------------

class RunningStats:
    """Per-channel running mean/variance for batch-norm eval mode."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels, dtype=np.float64)
        self.var = np.ones(channels, dtype=np.float64)


def batch_norm1d(x: Tensor, gamma: Tensor, beta: Tensor, running: RunningStats,
                 train: bool) -> Tensor:
    """Normalize per channel over the batch (and length, when present).

    Train mode uses batch statistics and folds them into `running`
    (exponential update); eval mode normalizes with `running` alone.
    """
    if x.ndim == 2:
        axes, pshape = (0,), (1, -1)
    elif x.ndim == 3:
        axes, pshape = (0, 2), (1, -1, 1)
    else:
        raise ValueError(f"batch_norm1d expects 2D or 3D input, got {x.ndim}D")
    gam = gamma.data.reshape(pshape)
    bet = beta.data.reshape(pshape)

    n = x.size // x.shape[1]             # values per channel
    if train:
        # np.mean and np.var's own arithmetic, with the centred input
        # computed once and reused for xhat
        mu = np.add.reduce(x.data, axes, keepdims=True) / n
        xc = x.data - mu
        var = np.add.reduce(xc * xc, axes) / n  # biased, matching the backward below
        running.mean = (1.0 - BN_MOMENTUM) * running.mean + BN_MOMENTUM * mu.reshape(-1)
        running.var = (1.0 - BN_MOMENTUM) * running.var + BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var.reshape(pshape) + BN_EPS)
        xhat = xc * inv_std
    else:
        inv_std = 1.0 / np.sqrt(running.var.reshape(pshape) + BN_EPS)
        xhat = (x.data - running.mean.reshape(pshape)) * inv_std
    out_data = gam * xhat + bet

    def bw(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=axes))
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=axes))
        if x.requires_grad:
            gg = g * gam
            if train:
                dx = inv_std * (gg - np.add.reduce(gg, axes, keepdims=True) / n
                                - xhat * (np.add.reduce(gg * xhat, axes, keepdims=True) / n))
            else:
                dx = gg * inv_std
            _accumulate(x, dx)

    return make_from_op(out_data, (x, gamma, beta), bw)


def _window_sum_channels(a: np.ndarray, half: int) -> np.ndarray:
    """Sum over the channel window [c-half, c+half], clipped to the edges."""
    t = a.shape[1]
    cs = np.cumsum(a, axis=1)
    out = np.empty_like(cs)
    inner = max(t - half, 0)             # channels whose window ends inside
    out[:, :inner] = cs[:, half:]
    out[:, inner:] = cs[:, t - 1:]
    if half + 1 < t:
        out[:, half + 1:] -= cs[:, :t - half - 1]
    return out


def lrn(x: Tensor, size: int = 5, alpha: float = 1e-4, beta: float = 0.75,
        k: float = 2.0) -> Tensor:
    """Divisive normalization across a window of adjacent channels.

    out[c] = x[c] / (k + alpha * sum_{j in window(c)} x[j]^2) ** beta
    with window(c) = [c - size//2, c + size//2] clipped to valid channels.
    """
    if size < 1:
        raise ValueError("window size must be >= 1")
    if k <= 0:
        raise ValueError("additive constant k must be > 0")
    half = size // 2
    sq_sum = _window_sum_channels(x.data ** 2, half)
    base = k + alpha * sq_sum
    scale = base ** (-beta)
    out_data = x.data * scale

    def bw(g):
        inner = g * x.data * base ** (-beta - 1.0)
        dx = g * scale - 2.0 * alpha * beta * x.data * _window_sum_channels(inner, half)
        _accumulate(x, dx)

    return make_from_op(out_data, (x,), bw)


# ---- pooling ---------------------------------------------------------------

def max_pool1d(x: Tensor, window: int, stride: int) -> Tensor:
    length = x.shape[2]
    if window > length:
        raise ValueError(f"pool window {window} exceeds length {length}")
    if window == stride:
        return _max_pool1d_tiled(x, window)
    return _max_pool1d_sliding(x, window, stride)


def _max_pool1d_sliding(x: Tensor, window: int, stride: int) -> Tensor:
    b, c, _ = x.shape
    patches = _sliding_patches(x.data, window, stride)   # [B, C, W, T]
    t = patches.shape[3]
    arg = patches.argmax(axis=2)                         # [B, C, T]
    out_data = np.take_along_axis(patches, arg[:, :, None, :], axis=2)[:, :, 0, :]

    def bw(g):
        dx = np.zeros_like(x.data)
        bi = np.arange(b)[:, None, None]
        ci = np.arange(c)[None, :, None]
        pos = arg + stride * np.arange(t)[None, None, :]
        np.add.at(dx, (bi, ci, pos), g)
        _accumulate(x, dx)

    return make_from_op(out_data, (x,), bw)


def _max_pool1d_tiled(x: Tensor, window: int) -> Tensor:
    """max_pool1d with stride == window: disjoint tiles, so no scatter-add.
    A trailing remainder shorter than the window is dropped."""
    b, c, length = x.shape
    t = length // window
    tiles = x.data[:, :, :t * window].reshape(b, c, t, window)
    # argmax over the window as a comparison chain, which is faster for the
    # short windows used here: the first maximum wins, and the first NaN
    # beats every number, as in argmax
    out_data = tiles[..., 0]
    arg = np.zeros(out_data.shape, dtype=np.intp)
    for i in range(1, window):
        cand = tiles[..., i]
        take = ~(cand <= out_data) & (out_data == out_data)
        out_data = np.where(take, cand, out_data)
        arg[take] = i
    arg = arg[..., None]                                 # [B, C, T, 1]

    def bw(g):
        dx = np.zeros_like(x.data)
        # 0.0 + g, as a scatter-add into zeros gives: -0.0 becomes +0.0
        np.put_along_axis(dx[:, :, :t * window].reshape(b, c, t, window), arg,
                          0.0 + g[..., None], axis=3)
        _accumulate(x, dx)

    return make_from_op(out_data, (x,), bw)


def avg_pool1d(x: Tensor, window: int, stride: int) -> Tensor:
    length = x.shape[2]
    if window > length:
        raise ValueError(f"pool window {window} exceeds length {length}")
    patches = _sliding_patches(x.data, window, stride)
    out_data = patches.mean(axis=2)

    def bw(g):
        share = np.broadcast_to((g / window)[:, :, None, :], patches.shape)
        _accumulate(x, _scatter_taps(share, stride, length))

    return make_from_op(out_data, (x,), bw)


def global_avg_pool1d(x: Tensor) -> Tensor:
    """Collapse the length axis to 1 by averaging: [B, C, L] -> [B, C, 1]."""
    length = x.shape[2]
    out_data = x.data.mean(axis=2, keepdims=True)

    def bw(g):
        _accumulate(x, np.broadcast_to(g / length, x.data.shape).copy())

    return make_from_op(out_data, (x,), bw)


# ---- dense / dropout / loss -------------------------------------------------

def dense(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map: [B, in] with weight [out, in] -> [B, out]."""
    if x.shape[1] != weight.shape[1]:
        raise ValueError(f"dense expects {weight.shape[1]} inputs, got {x.shape[1]}")
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data = out_data + bias.data

    def bw(g):
        if x.requires_grad:
            _accumulate(x, g @ weight.data)
        if weight.requires_grad:
            _accumulate(weight, g.T @ x.data)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_from_op(out_data, parents, bw)


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scale by 1/(1-rate); eval is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out_data = x.data * keep

    def bw(g):
        _accumulate(x, g * keep)

    return make_from_op(out_data, (x,), bw)


def softmax_cross_entropy(logits: Tensor, targets) -> tuple[Tensor, np.ndarray]:
    """Mean NLL of integer `targets` under a max-stabilized softmax.

    Returns (scalar loss tensor, [B, K] probability array). Gradient of
    the loss w.r.t. the logits is (probs - one_hot) / batch.
    """
    targets = np.asarray(targets, dtype=np.int64)
    b, k = logits.shape
    if targets.shape != (b,):
        raise ValueError(f"targets must be shape ({b},), got {targets.shape}")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError("target class index out of range")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    probs = exp / denom
    logp = shifted - np.log(denom)
    loss_data = np.asarray(-logp[np.arange(b), targets].mean())

    def bw(g):
        d = probs.copy()
        d[np.arange(b), targets] -= 1.0
        _accumulate(logits, d * (float(g) / b))

    loss = make_from_op(loss_data, (logits,), bw)
    return loss, probs


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Plain (non-differentiable) stabilized softmax for inference."""
    z = np.asarray(logits, dtype=np.float64)
    zmax = z.max(axis=1, keepdims=True)
    exp = np.exp(z - zmax)
    return exp / exp.sum(axis=1, keepdims=True)
