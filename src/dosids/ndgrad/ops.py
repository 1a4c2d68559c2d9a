"""Differentiable neural-net primitives for 1D architectures.

Shape convention: batched sequence tensors are [batch, channels, length],
flat feature tensors are [batch, features]. Each op is fused (single
numpy forward, single backward closure) to keep graphs small.

Inside, the convolutions copy their padded input length-major, [length,
batch, channels], and its windows into rows (step, batch) by columns (tap,
channel), so the forward and each gradient are one matrix product over
batch * steps rows. Their results, and LRN's direct window sums, differ in
the last ulp from per-batch products and cumulative sums. Selections (leaky
ReLU, sigmoid, the tiled max-pool) work on bits and match np.where exactly.
"""

import numpy as np

from .tensor import Tensor, as_tensor, make_from_op, _accumulate, _as_array

LEAKY_SLOPE = 0.2     # DCGAN's LeakyReLU slope
BN_EPS = 1e-5         # batch norm's variance floor
BN_MOMENTUM = 0.1     # weight of each batch in the running statistics


# ---- activations --------------------------------------------------------

def _int_view(a: np.ndarray) -> np.ndarray:
    return a.view(f"i{a.itemsize}")


def _mask(take: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Booleans as integers of like's width: all ones where true, else 0."""
    return np.negative(take, dtype=f"i{like.itemsize}")


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.where(mask, a, b) for floats of one dtype, at a fraction of its cost."""
    a_bits, b_bits = _int_view(a), _int_view(b)
    out = mask & (a_bits ^ b_bits)
    out ^= b_bits
    return out.view(b.dtype)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out_data = x.data * mask

    def bw(g):
        _accumulate(x, g * mask)  # subgradient 0 at the kink

    return make_from_op(out_data, (x,), bw)


def leaky_relu(x: Tensor) -> Tensor:
    one, slope = (np.array(v, dtype=x.data.dtype) for v in (1.0, LEAKY_SLOPE))
    factor = _select(_mask(x.data > 0, x.data), one, slope)
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
    p = 1.0 + e
    out_data = _select(_mask(d >= 0, d), 1.0 / p, e / p)

    def bw(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return make_from_op(out_data, (x,), bw)


_ACTIVATIONS = {"relu": relu, "leaky_relu": leaky_relu, "tanh": tanh, "sigmoid": sigmoid}


def activation(x: Tensor, kind: str) -> Tensor:
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ValueError(f"unknown activation kind {kind!r}") from None


# ---- convolution (length-major im2col, see the module docstring) ----------

def _length_major(a: np.ndarray, padding: int, full: int) -> np.ndarray:
    """[B, C, L] -> zeros [full, B, C] holding a at rows padding .. padding + L."""
    b, c, length = a.shape
    out = np.zeros((full, b, c), dtype=a.dtype)
    out[padding:padding + length] = a.transpose(2, 0, 1)
    return out


def _batch_major(a: np.ndarray) -> np.ndarray:
    """[L, B, C] -> contiguous [B, C, L]."""
    return np.ascontiguousarray(a.transpose(1, 2, 0))


def _patch_rows(ap: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The windows of a length-major ap [Lp, B, C] as rows [(t, b), (k, c)], copied."""
    lp, b, c = ap.shape
    t = (lp - k) // stride + 1
    s0, s1, s2 = ap.strides
    patches = np.lib.stride_tricks.as_strided(
        ap, shape=(t, b, k, c), strides=(s0 * stride, s1, s0, s2), writeable=False)
    return patches.reshape(t * b, k * c)


def _scatter_rows(taps: np.ndarray, stride: int, full: int) -> np.ndarray:
    """Adjoint of _patch_rows: add taps [T, B, K, C] into zeros [full, B, C],
    tap i of step t landing at row i + stride * t, taps in order."""
    t, b, k, c = taps.shape
    out = np.zeros((full, b, c), dtype=taps.dtype)
    for i in range(k):
        out[i:i + stride * (t - 1) + 1:stride] += taps[:, :, i, :]
    return out


def conv1d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """Cross-correlation of [B, Cin, L] with kernels [Cout, Cin, K]."""
    b, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, kernel expects {c_in_w}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    full = length + 2 * padding
    if k > full:
        raise ValueError(f"kernel {k} longer than padded input {full}")

    rows = _patch_rows(_length_major(x.data, padding, full), k, stride)   # [T*B, K*Cin]
    t = rows.shape[0] // b
    w2 = weight.data.transpose(2, 1, 0).reshape(k * c_in, c_out)         # [(k, c), o]
    out_rows = rows @ w2                                                  # [T*B, Cout]
    if bias is not None:
        out_rows += bias.data
    out_data = _batch_major(out_rows.reshape(t, b, c_out))

    def bw(g):
        g_rows = g.transpose(2, 0, 1).reshape(t * b, c_out)
        if weight.requires_grad:
            dw2 = (rows.T @ g_rows).reshape(k, c_in, c_out)
            _accumulate(weight, dw2.transpose(2, 1, 0).copy())
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g_rows.sum(axis=0))
        if x.requires_grad:
            dxp = _scatter_rows((g_rows @ w2.T).reshape(t, b, k, c_in), stride, full)
            _accumulate(x, _batch_major(dxp[padding:padding + length]))

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

    # conv1d's input gradient run forward: each input row scatters K taps
    x_rows = x.data.transpose(2, 0, 1).reshape(length * b, c_in)         # [(l, b), c]
    w2 = weight.data.transpose(0, 2, 1).reshape(c_in, k * c_out)         # [c, (k, o)]
    taps = (x_rows @ w2).reshape(length, b, k, c_out)
    out_rows = _scatter_rows(taps, stride, full)[padding:padding + out_len]
    if bias is not None:
        out_rows += bias.data
    out_data = _batch_major(out_rows)

    def bw(g):
        g_rows = _patch_rows(_length_major(g, padding, full), k, stride)   # [L*B, K*Cout]
        if x.requires_grad:
            _accumulate(x, _batch_major((g_rows @ w2.T).reshape(length, b, c_in)))
        if weight.requires_grad:
            dw2 = (x_rows.T @ g_rows).reshape(c_in, k, c_out)
            _accumulate(weight, dw2.transpose(0, 2, 1).copy())
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
        pshape, per_channel, dot = (1, -1), "bc->c", "bc,bc->c"
    elif x.ndim == 3:
        pshape, per_channel, dot = (1, -1, 1), "bcl->c", "bcl,bcl->c"
    else:
        raise ValueError(f"batch_norm1d expects 2D or 3D input, got {x.ndim}D")
    gam = gamma.data.reshape(pshape)
    bet = beta.data.reshape(pshape)

    n = x.size // x.shape[1]             # values per channel
    if train:
        # two passes: the mean, then the sum of squares about it
        mu = np.einsum(per_channel, x.data) / n
        xc = x.data - mu.reshape(pshape)
        var = np.einsum(dot, xc, xc) / n    # biased, matching the backward below
        running.mean = (1.0 - BN_MOMENTUM) * running.mean + BN_MOMENTUM * mu
        running.var = (1.0 - BN_MOMENTUM) * running.var + BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var.reshape(pshape) + BN_EPS)
        xhat = xc * inv_std
    else:
        inv_std = 1.0 / np.sqrt(running.var.reshape(pshape) + BN_EPS)
        xhat = (x.data - running.mean.reshape(pshape)) * inv_std
    out_data = gam * xhat + bet

    def bw(g):
        # the two per-channel sums give the gamma and beta gradients and,
        # in train mode, dx = gamma / std * (g - mean(g) - xhat * mean(g * xhat))
        sum_g = np.einsum(per_channel, g)
        sum_gx = np.einsum(dot, g, xhat)
        _accumulate(gamma, sum_gx)
        _accumulate(beta, sum_g)
        if x.requires_grad:
            scale = gam * inv_std
            if train:
                dx = scale * (g - (sum_g / n).reshape(pshape)
                              - xhat * (sum_gx / n).reshape(pshape))
            else:
                dx = g * scale
            _accumulate(x, dx)

    return make_from_op(out_data, (x, gamma, beta), bw)


def _window_sum_channels(a: np.ndarray, half: int) -> np.ndarray:
    """Sum over the channel window [c-half, c+half], clipped to the edges:
    the direct sum of the window's shifted slices of a zero-padded copy."""
    b, c, length = a.shape
    padded = np.zeros((b, c + 2 * half, length), dtype=a.dtype)
    padded[:, half:half + c] = a
    out = padded[:, :c].copy()
    for i in range(1, 2 * half + 1):
        out += padded[:, i:i + c]
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
    sq_sum = _window_sum_channels(x.data * x.data, half)
    base = k + alpha * sq_sum
    scale = base ** (-beta)
    out_data = x.data * scale

    def bw(g):
        inner = g * x.data * (scale / base)
        dx = g * scale - 2.0 * alpha * beta * x.data * _window_sum_channels(inner, half)
        _accumulate(x, dx)

    return make_from_op(out_data, (x,), bw)


# ---- pooling ---------------------------------------------------------------

def _sliding_patches(a: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Strided view [B, C, window, steps] over the last axis. No copy."""
    b, c, length = a.shape
    steps = (length - window) // stride + 1
    s0, s1, s2 = a.strides
    return np.lib.stride_tricks.as_strided(
        a, shape=(b, c, window, steps), strides=(s0, s1, s2, s2 * stride), writeable=False
    )


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
    taps = np.moveaxis(x.data[:, :, :t * window].reshape(b, c, t, window), 3, 0).copy()
    # argmax as a comparison chain, faster for these short windows: the first
    # maximum wins and the first NaN beats every number, as in argmax.
    # takes[i - 1] masks where tap i replaced the maximum so far.
    out_data = taps[0]
    takes = []
    for i in range(1, window):
        cand = taps[i]
        take = _mask(~(cand <= out_data) & (out_data == out_data), cand)
        out_data = _select(take, cand, out_data)
        takes.append(take)

    def bw(g):
        dx = np.zeros_like(x.data)
        tiled = _int_view(dx)[:, :, :t * window].reshape(b, c, t, window)
        # as a scatter-add into zeros, -0.0 becomes +0.0; each tap takes the
        # bits of g where it won, from the last tap back to the first
        rest = _int_view(np.add(g, 0.0, dtype=dx.dtype))
        for i in range(window - 1, 0, -1):
            np.bitwise_and(rest, takes[i - 1], out=tiled[..., i])
            rest ^= tiled[..., i]
        tiled[..., 0] = rest
        _accumulate(x, dx)

    return make_from_op(out_data, (x,), bw)


def avg_pool1d(x: Tensor, window: int, stride: int) -> Tensor:
    length = x.shape[2]
    if window > length:
        raise ValueError(f"pool window {window} exceeds length {length}")
    patches = _sliding_patches(x.data, window, stride)
    out_data = patches.mean(axis=2)

    def bw(g):
        b, c, t = g.shape
        taps = np.broadcast_to((g / window).transpose(2, 0, 1)[:, :, None, :], (t, b, window, c))
        _accumulate(x, _batch_major(_scatter_rows(taps, stride, length)))

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
    keep = ((rng.random(x.shape) >= rate) / (1.0 - rate)).astype(x.data.dtype, copy=False)
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
    z = _as_array(logits)
    zmax = z.max(axis=1, keepdims=True)
    exp = np.exp(z - zmax)
    return exp / exp.sum(axis=1, keepdims=True)
