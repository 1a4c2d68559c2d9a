"""Differentiable-primitive checks: frozen hand values, finite-difference
oracles, and the determinism/expectation contracts."""

import weakref

import numpy as np
import pytest

from dosids import ndgrad as ng
from dosids.ndgrad import Tensor, grad_check, ops

RNG = lambda seed=0: np.random.default_rng(seed)

TOL = 1e-4


def away_from_kinks(rng, shape, margin=0.05):
    """Random values nudged away from 0 so relu subgradients are stable
    under the finite-difference probe."""
    x = rng.normal(size=shape)
    x += np.sign(x) * margin
    return x


# ---- conv1d ---------------------------------------------------------------

def test_conv1d_hand_values():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    w = Tensor(np.array([[[1.0, 1.0]]]))
    out = ng.conv1d(x, w, stride=1, padding=0)
    assert np.array_equal(out.data, [[[3.0, 5.0, 7.0]]])


def test_conv1d_identity_kernel():
    x = Tensor(RNG(1).normal(size=(2, 3, 7)))
    w = np.zeros((3, 3, 1))
    for c in range(3):
        w[c, c, 0] = 1.0
    out = ng.conv1d(x, Tensor(w), stride=1, padding=0)
    assert np.allclose(out.data, x.data)


def test_conv1d_zero_kernel_annihilates():
    x = Tensor(RNG(2).normal(size=(2, 2, 5)))
    out = ng.conv1d(x, Tensor(np.zeros((4, 2, 3))), stride=1, padding=1)
    assert np.all(out.data == 0.0)


def test_conv1d_output_length():
    x = Tensor(RNG(3).normal(size=(1, 1, 10)))
    w = Tensor(RNG(3).normal(size=(2, 1, 3)))
    out = ng.conv1d(x, w, stride=2, padding=1)
    assert out.shape == (1, 2, (10 + 2 - 3) // 2 + 1)


def test_conv1d_kernel_too_long():
    with pytest.raises(ValueError):
        ng.conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))))


def test_conv1d_gradcheck():
    rng = RNG(10)
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    err = grad_check(lambda: ng.conv1d(x, w, stride=2, padding=1, bias=b).mean(),
                     [x, w, b])
    assert err < TOL


def test_conv_transpose1d_gradcheck_and_shape():
    rng = RNG(11)
    x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    out = ng.conv_transpose1d(x, w, stride=2, padding=1, bias=b)
    assert out.shape == (2, 4, (5 - 1) * 2 + 4 - 2)
    err = grad_check(lambda: ng.conv_transpose1d(x, w, stride=2, padding=1, bias=b).mean(),
                     [x, w, b])
    assert err < TOL


def test_conv_transpose_is_adjoint_of_conv():
    # <conv(x), y> == <x, conv_transpose(y)>; the conv kernel [out, in, k]
    # reads directly as the transpose kernel [in', out', k]
    rng = RNG(12)
    x = rng.normal(size=(1, 2, 8))
    w = rng.normal(size=(3, 2, 4))
    y = rng.normal(size=(1, 3, 4))
    fwd = ng.conv1d(Tensor(x), Tensor(w), stride=2, padding=1).data
    back = ng.conv_transpose1d(Tensor(y), Tensor(w), stride=2, padding=1).data
    assert fwd.shape == y.shape
    assert back.shape == x.shape
    assert np.isclose((fwd * y).sum(), (x * back).sum())


def reference_weight_grads(x, w_shape, g, stride, padding, transpose):
    """conv1d's and conv_transpose1d's weight gradients as np.tensordot
    over the strided patches, the form the im2col dot replaced."""
    if transpose:
        b, c_out, out_len = g.shape
        k, full = w_shape[2], (x.shape[2] - 1) * stride + w_shape[2]
        g_full = np.zeros((b, c_out, full))
        g_full[:, :, padding:padding + out_len] = g
        gpatches = ops._sliding_patches(g_full, k, stride)
        return np.tensordot(x, gpatches, axes=([0, 2], [0, 3]))
    patches = ops._sliding_patches(ops._pad_length(x, padding), w_shape[2], stride)
    return np.tensordot(g, patches, axes=([0, 2], [0, 3]))


@pytest.mark.parametrize("transpose", [False, True], ids=["conv1d", "conv_transpose1d"])
def test_conv_weight_grad_matches_tensordot(transpose):
    """Byte for byte, sign of zero included, on both sides of the im2col
    dot's fallback: batch 1, one output step, kernel 1, one channel."""
    rng = RNG(56)
    op = ng.conv_transpose1d if transpose else ng.conv1d
    cases = 0
    for stride in (1, 2):
        for padding in range(4):
            for b, c_in, c_out, length, k in [(32, 8, 16, 12, 4), (2, 3, 5, 7, 3),
                                              (1, 4, 6, 9, 3), (3, 1, 8, 10, 4),
                                              (4, 5, 1, 6, 2), (2, 6, 3, 5, 1),
                                              (5, 2, 2, 1, 3), (2, 3, 4, 4, 4),
                                              (1, 4, 7, 19, 1), (4, 1, 3, 6, 1)]:
                w_shape = (c_in, c_out, k) if transpose else (c_out, c_in, k)
                x = rng.normal(size=(b, c_in, length))
                x[x > 1.2] = -0.0
                if not transpose and k > length + 2 * padding:
                    continue
                w = Tensor(rng.normal(size=w_shape), requires_grad=True)
                try:
                    out = op(Tensor(x), w, stride=stride, padding=padding)
                except ValueError:                  # padding swallows the output
                    continue
                g = rng.normal(size=out.shape)
                g[g > 1.0] = -0.0
                out.backward(g)
                want = reference_weight_grads(x, w_shape, g, stride, padding, transpose)
                assert w.grad.tobytes() == want.tobytes(), (stride, padding, b, c_in, k)
                cases += 1
    assert cases >= 50


def reference_scatter(op, x, w, g, stride, padding):
    """The per-op tap loops that _scatter_taps replaced, each as its op ran
    it: conv1d's input gradient, conv_transpose1d's output and its input
    gradient (g zero-filled to full length by hand), and avg_pool1d's
    gradient, where `w` is the window. Returns the arrays in that order."""
    if op == "avg_pool1d":
        t = (x.shape[2] - w) // stride + 1
        dx = np.zeros_like(x)
        share = g / w
        for i in range(w):
            dx[:, :, i:i + stride * (t - 1) + 1:stride] += share
        return (dx,)
    b, c_in, length = x.shape
    if op == "conv1d":
        c_out, _, k = w.shape
        t = g.shape[2]
        dpatches = np.matmul(w.reshape(c_out, c_in * k).T, g).reshape(b, c_in, k, t)
        dxp = np.zeros((b, c_in, length + 2 * padding))
        for i in range(k):
            dxp[:, :, i:i + stride * (t - 1) + 1:stride] += dpatches[:, :, i, :]
        return (dxp[:, :, padding:padding + length] if padding else dxp,)
    _, c_out, k = w.shape
    w2 = w.reshape(c_in, c_out * k)
    full = (length - 1) * stride + k
    out_len = full - 2 * padding
    contrib = np.matmul(w2.T, x).reshape(b, c_out, k, length)
    out_full = np.zeros((b, c_out, full), dtype=np.float64)
    for i in range(k):
        out_full[:, :, i:i + stride * (length - 1) + 1:stride] += contrib[:, :, i, :]
    g_full = np.zeros((b, c_out, full), dtype=np.float64)
    g_full[:, :, padding:padding + out_len] = g
    gcols = ops._sliding_patches(g_full, k, stride).reshape(b, c_out * k, length)
    return out_full[:, :, padding:padding + out_len].copy(), np.matmul(w2, gcols)


@pytest.mark.parametrize("op", ["conv1d", "conv_transpose1d", "avg_pool1d"])
def test_scatter_taps_matches_per_op_loops(op):
    """Byte for byte, sign of zero included, over strides 1-3, padding 0-3
    and kernels (or windows) 1-5, batch 1 among the shapes."""
    rng = RNG(58)
    cases = 0
    for stride in (1, 2, 3):
        for padding in range(4) if op != "avg_pool1d" else (0,):
            for k in range(1, 6):
                for b in (1, 3):
                    c_in, c_out = rng.integers(1, 5, size=2)
                    length = int(rng.integers(k, 12))
                    x = rng.normal(size=(b, c_in, length))
                    x[x > 1.0] = -0.0
                    xt = Tensor(x, requires_grad=True)
                    if op == "avg_pool1d":
                        w = k
                        out = ng.avg_pool1d(xt, k, stride)
                    elif op == "conv1d":
                        w = rng.normal(size=(c_out, c_in, k))
                        out = ng.conv1d(xt, Tensor(w), stride, padding)
                    else:
                        w = rng.normal(size=(c_in, c_out, k))
                        try:
                            out = ng.conv_transpose1d(xt, Tensor(w), stride, padding)
                        except ValueError:          # padding swallows the output
                            continue
                    g = rng.normal(size=out.shape)
                    g[g > 1.0] = -0.0
                    out.backward(g)
                    got = (xt.grad,) if op != "conv_transpose1d" else (out.data, xt.grad)
                    want = reference_scatter(op, x, w, g, stride, padding)
                    for a, r in zip(got, want):
                        assert a.tobytes() == r.tobytes(), (op, stride, padding, k, b)
                    cases += 1
    assert cases >= 25


def reference_batch_norm(x, gam, bet, mean, var, train, g, eps=1e-5, momentum=0.1):
    """The np.mean / np.var batch norm that the fused statistics replaced:
    output, running mean and variance, and the x, gamma, beta gradients."""
    axes = (0,) if x.ndim == 2 else (0, 2)
    pshape = (1, -1) if x.ndim == 2 else (1, -1, 1)
    gam, bet = gam.reshape(pshape), bet.reshape(pshape)
    if train:
        mu, v = x.mean(axis=axes), x.var(axis=axes)
        mean = (1.0 - momentum) * mean + momentum * mu
        var = (1.0 - momentum) * var + momentum * v
        inv_std = 1.0 / np.sqrt(v.reshape(pshape) + eps)
        xhat = (x - mu.reshape(pshape)) * inv_std
    else:
        inv_std = 1.0 / np.sqrt(var.reshape(pshape) + eps)
        xhat = (x - mean.reshape(pshape)) * inv_std
    gg = g * gam
    if train:
        dx = inv_std * (gg - gg.mean(axis=axes, keepdims=True)
                        - xhat * (gg * xhat).mean(axis=axes, keepdims=True))
    else:
        dx = gg * inv_std
    return (gam * xhat + bet, mean, var, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes))


BN_SHAPES = [(1, 4), (2, 4), (3, 4), (32, 16), (1, 3, 5), (2, 8, 5), (32, 32, 4), (32, 16, 13)]
# 16 unit roundoffs, scaled by each case's conditioning (below): batch_norm1d
# sums with np.einsum and builds its backward from two sums, so it rounds
# differently from np.mean / np.var, but only by a few roundoffs per sum
BN_ROUNDOFFS = 16


def batch_norm_errors(shape, train, offset, dtype):
    """Each of batch_norm1d's six results (output, running mean and variance,
    x, gamma and beta gradients) in `dtype`, against reference_batch_norm in
    float64 on the same `dtype`-rounded inputs: (error, allowed) pairs.

    An error is the largest absolute difference. The allowed error is
    BN_ROUNDOFFS roundoffs of `dtype` times the result's scale times the
    condition number of centring, 1 + max|x| / std: with offset 1e4 the
    centred input keeps about four fewer digits. The scale of the x
    gradient is max|g * gamma| / std, the size of the terms that cancel in
    it (with two rows per channel they cancel nearly exactly); any other
    result's scale is its largest magnitude."""
    rng = RNG(57)
    channels = shape[1]
    data = rng.normal(size=shape) * 3.0 + offset
    g = rng.normal(size=shape)
    g[g > 1.0] = -0.0
    gam, bet = rng.uniform(0.5, 1.5, channels), rng.normal(size=channels)
    mean, var = rng.normal(size=channels), rng.uniform(0.5, 2.0, channels)
    data, g, gam, bet, mean, var = (a.astype(dtype) for a in (data, g, gam, bet, mean, var))
    want = reference_batch_norm(*(a.astype(np.float64) for a in (data, gam, bet, mean, var)),
                                train, g.astype(np.float64))

    x, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in (data, gam, bet))
    running = ng.RunningStats(channels)
    running.mean, running.var = mean.copy(), var.copy()
    out = ng.batch_norm1d(x, gamma, beta, running, train)
    out.backward(g)
    got = (out.data, running.mean, running.var, x.grad, gamma.grad, beta.grad)
    assert all(a.dtype == dtype for a in got)

    axes = (0,) if len(shape) == 2 else (0, 2)
    used_var = data.astype(np.float64).var(axis=axes) if train else var.astype(np.float64)
    inv_std = 1.0 / np.sqrt(used_var.min() + 1e-5)
    cond = 1.0 + np.abs(data).max() * inv_std
    scales = [np.abs(a).max() for a in want]
    scales[3] = np.abs(g.astype(np.float64) * gam.reshape((1, -1) + (1,) * (len(shape) - 2))
                       ).max() * inv_std
    roundoff = BN_ROUNDOFFS * np.finfo(dtype).eps * cond
    return [(np.abs(a - r).max(), roundoff * scale) for a, r, scale in zip(got, want, scales)]


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", BN_SHAPES)
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_batch_norm_matches_mean_var_reference(shape, train, offset):
    """Output, running statistics and all three gradients, each within a
    few float64 roundoffs of the np.mean / np.var reference."""
    for i, (error, allowed) in enumerate(batch_norm_errors(shape, train, offset, np.float64)):
        assert error <= allowed, (i, error, allowed)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", BN_SHAPES)
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_batch_norm_float32_matches_float64_reference(shape, train, offset):
    """Float32 batch norm stays float32 and within a few float32 roundoffs
    of the float64 reference on the same inputs."""
    for i, (error, allowed) in enumerate(batch_norm_errors(shape, train, offset, np.float32)):
        assert error <= allowed, (i, error, allowed)


# ---- batch norm -------------------------------------------------------------

def test_batch_norm_standardizes_in_train_mode():
    x = Tensor(np.array([[[1.0], [5.0]], [[2.0], [5.0]], [[3.0], [5.0]]]))
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = ng.batch_norm1d(x, gamma, beta, ng.RunningStats(2), train=True)
    chan0 = out.data[:, 0, 0]
    assert abs(chan0.mean()) < 1e-9
    assert abs(chan0.std() - 1.0) < 1e-2      # epsilon-limited
    assert np.allclose(out.data[:, 1, 0], 0.0)  # zero-variance channel


def test_batch_norm_affine_output():
    rng = RNG(20)
    x = Tensor(rng.normal(size=(64, 3, 5)))
    gamma, beta = Tensor(np.full(3, 2.0)), Tensor(np.full(3, 5.0))
    out = ng.batch_norm1d(x, gamma, beta, ng.RunningStats(3), train=True)
    assert np.allclose(out.data.mean(axis=(0, 2)), 5.0, atol=1e-9)
    assert np.allclose(out.data.std(axis=(0, 2)), 2.0, atol=1e-2)


def test_batch_norm_eval_deterministic():
    rng = RNG(21)
    x = Tensor(rng.normal(size=(4, 3, 5)))
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    running = ng.RunningStats(3)
    ng.batch_norm1d(x, gamma, beta, running, train=True)
    a = ng.batch_norm1d(x, gamma, beta, running, train=False).data
    b = ng.batch_norm1d(x, gamma, beta, running, train=False).data
    assert np.array_equal(a, b)


def test_batch_norm_single_row_guarded():
    x = Tensor(np.ones((1, 2, 3)))
    out = ng.batch_norm1d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                          ng.RunningStats(2), train=True)
    assert np.isfinite(out.data).all()


def test_batch_norm_gradcheck_both_modes():
    rng = RNG(22)
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = Tensor(rng.normal(size=4), requires_grad=True)
    running = ng.RunningStats(4)
    assert grad_check(lambda: ng.batch_norm1d(x, gamma, beta, running, True).mean(),
                      [x, gamma, beta]) < TOL
    assert grad_check(lambda: ng.batch_norm1d(x, gamma, beta, running, False).mean(),
                      [x, gamma, beta]) < TOL


def test_batch_norm_2d_input():
    rng = RNG(23)
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    gamma = Tensor(np.ones(4), requires_grad=True)
    beta = Tensor(np.zeros(4), requires_grad=True)
    assert grad_check(lambda: ng.batch_norm1d(x, gamma, beta, ng.RunningStats(4), True).mean(),
                      [x, gamma, beta]) < TOL


# ---- lrn --------------------------------------------------------------------

def test_lrn_scalar_value():
    out = ng.lrn(Tensor(np.ones((1, 1, 1))), size=5, alpha=1e-4, beta=0.75, k=2.0)
    assert np.isclose(float(out.data[0, 0, 0]), 1.0 / (2.0 + 1e-4) ** 0.75)


def test_lrn_alpha_zero_is_pure_scale():
    x = Tensor(RNG(30).normal(size=(2, 4, 3)))
    out = ng.lrn(x, size=5, alpha=0.0, beta=0.75, k=2.0)
    assert np.allclose(out.data, x.data / 2.0 ** 0.75)


def test_lrn_zero_exponent_is_identity():
    x = Tensor(RNG(31).normal(size=(2, 4, 3)))
    out = ng.lrn(x, size=5, alpha=1e-4, beta=0.0, k=1.0)
    assert np.allclose(out.data, x.data)


def test_lrn_matches_direct_window_sum():
    rng = RNG(32)
    x = rng.normal(size=(2, 7, 4))
    out = ng.lrn(Tensor(x), size=5, alpha=0.02, beta=0.75, k=2.0).data
    half = 2
    for c in range(7):
        lo, hi = max(0, c - half), min(6, c + half)
        denom = (2.0 + 0.02 * (x[:, lo:hi + 1, :] ** 2).sum(axis=1)) ** 0.75
        assert np.allclose(out[:, c, :], x[:, c, :] / denom)


def test_lrn_gradcheck():
    x = Tensor(RNG(33).normal(size=(2, 6, 4)), requires_grad=True)
    assert grad_check(lambda: ng.lrn(x, alpha=0.05).mean(), [x]) < TOL


# ---- activations --------------------------------------------------------------

def test_activation_values():
    x = Tensor(np.array([-2.0, -1.0, 0.0, 2.0]))
    assert np.array_equal(ng.relu(x).data, [0.0, 0.0, 0.0, 2.0])
    assert np.allclose(ng.leaky_relu(x).data, [-0.4, -0.2, 0.0, 2.0])
    assert ng.tanh(Tensor(np.zeros(1))).data[0] == 0.0
    assert np.isclose(ng.sigmoid(Tensor(np.zeros(1))).data[0], 0.5)


def test_activation_dispatcher():
    x = Tensor(np.array([-1.0, 1.0]))
    assert np.array_equal(ng.activation(x, "relu").data, [0.0, 1.0])
    with pytest.raises(ValueError):
        ng.activation(x, "swish")


def test_activation_gradchecks():
    rng = RNG(40)
    for kind in ("relu", "leaky_relu", "tanh", "sigmoid"):
        x = Tensor(away_from_kinks(rng, (3, 7)), requires_grad=True)
        err = grad_check(lambda k=kind: ng.activation(x, k).mean(), [x])
        assert err < TOL, kind


# ---- pooling -------------------------------------------------------------------

def test_pool_hand_values():
    x = Tensor(np.array([[[1.0, 3.0, 2.0]]]))
    assert ng.max_pool1d(x, 3, 1).data[0, 0, 0] == 3.0
    x2 = Tensor(np.array([[[2.0, 4.0]]]))
    assert ng.global_avg_pool1d(x2).data[0, 0, 0] == 3.0
    x3 = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    assert np.array_equal(ng.avg_pool1d(x3, 2, 2).data, [[[1.5, 3.5]]])


def test_pool_gradchecks():
    rng = RNG(51)
    x = Tensor(rng.normal(size=(2, 3, 9)) * 2, requires_grad=True)
    assert grad_check(lambda: ng.max_pool1d(x, 3, 2).mean(), [x]) < TOL
    assert grad_check(lambda: ng.avg_pool1d(x, 2, 2).mean(), [x]) < TOL
    assert grad_check(lambda: ng.global_avg_pool1d(x).mean(), [x]) < TOL


@pytest.mark.parametrize("shape, window", [((2, 3, 9), 2), ((2, 3, 8), 2),
                                           ((1, 2, 7), 3), ((2, 3, 5), 1)])
def test_max_pool_tiled_matches_sliding(shape, window):
    """stride == window takes the tiled path; it must give the sliding
    path's output and gradient byte for byte, with a trailing remainder,
    tied maxima, relu's -0.0 and -0.0 in the upstream gradient."""
    rng = RNG(52)
    data = np.round(rng.normal(size=shape))          # many ties
    data = data * (data > 0)                         # relu-style -0.0 beside 0.0
    results = []
    for pool in (ng.max_pool1d, ops._max_pool1d_sliding):
        x = Tensor(data.copy(), requires_grad=True)
        out = pool(x, window, window)
        g = RNG(53).normal(size=out.shape)
        g[g < -0.3] = -0.0
        out.backward(g)
        results.append((out.data.tobytes(), x.grad.tobytes()))
    assert results[0] == results[1]


def test_max_pool_tied_maxima_first_index_wins():
    x = Tensor(np.array([[[1.0, 1.0, 0.0, 2.0, 2.0]]]), requires_grad=True)
    out = ng.max_pool1d(x, 2, 2)
    assert np.array_equal(out.data, [[[1.0, 2.0]]])
    out.backward(np.array([[[5.0, 7.0]]]))
    assert np.array_equal(x.grad, [[[5.0, 0.0, 0.0, 7.0, 0.0]]])


@pytest.mark.parametrize("window", [1, 2, 3])
def test_max_pool_tiled_chain_matches_argmax(window):
    """The tiled forward's comparison chain picks what argmax picks, byte
    for byte: the first maximum (-0.0 ties 0.0), the first NaN over any
    number, and ±inf; the gradient lands on that position."""
    pool = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0])
    data = RNG(55).choice(pool, size=(4, 3, 50 * window + 1))
    b, c, length = data.shape
    t = length // window
    tiles = data[:, :, :t * window].reshape(b, c, t, window)
    arg = tiles.argmax(axis=3)[..., None]
    want = np.take_along_axis(tiles, arg, axis=3)[..., 0]
    want_grad = np.zeros_like(data)
    np.put_along_axis(want_grad[:, :, :t * window].reshape(b, c, t, window), arg,
                      np.ones_like(arg, dtype=np.float64), axis=3)

    x = Tensor(data, requires_grad=True)
    out = ng.max_pool1d(x, window, window)
    out.backward(np.ones(out.shape))
    assert out.data.tobytes() == want.tobytes()
    assert x.grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("size", [1, 3, 5, 7])
def test_window_sum_channels_matches_brute_force(size):
    half = size // 2
    rng = RNG(54)
    for channels in (1, 2, 3, 6, 9):
        a = rng.normal(size=(2, channels, 3))
        got = ops._window_sum_channels(a, half)
        for c in range(channels):
            lo, hi = max(0, c - half), min(channels - 1, c + half)
            assert np.allclose(got[:, c], a[:, lo:hi + 1].sum(axis=1),
                               rtol=0.0, atol=1e-12), (size, channels, c)


# ---- dense ----------------------------------------------------------------------

def test_dense_hand_value():
    out = ng.dense(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([1.0]))
    assert out.data[0, 0] == 12.0


def test_dense_identity_and_constant():
    x = Tensor(RNG(60).normal(size=(3, 4)))
    eye = Tensor(np.eye(4))
    assert np.allclose(ng.dense(x, eye, Tensor(np.zeros(4))).data, x.data)
    b = np.array([1.0, -2.0])
    out = ng.dense(x, Tensor(np.zeros((2, 4))), Tensor(b))
    assert np.allclose(out.data, np.tile(b, (3, 1)))


def test_dense_gradcheck():
    rng = RNG(61)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    assert grad_check(lambda: ng.dense(x, w, b).mean(), [x, w, b]) < TOL


# ---- dropout ----------------------------------------------------------------------

def test_dropout_identity_cases():
    x = Tensor(RNG(70).normal(size=(4, 5)))
    assert ng.dropout(x, 0.0, train=True, rng=RNG(0)) is x
    assert ng.dropout(x, 0.2, train=False) is x


def test_dropout_survival_fraction():
    x = Tensor(np.ones(100_000))
    out = ng.dropout(x, 0.2, train=True, rng=RNG(71))
    survived = np.count_nonzero(out.data) / x.size
    assert abs(survived - 0.8) < 0.01


def test_dropout_preserves_expectation():
    rng = RNG(72)
    x = Tensor(np.ones(100_000))
    means = [ng.dropout(x, 0.3, train=True, rng=rng).data.mean() for _ in range(5)]
    assert abs(np.mean(means) - 1.0) < 0.02


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones(1000), requires_grad=True)
    out = ng.dropout(x, 0.5, train=True, rng=RNG(73))
    out.sum().backward()
    assert np.array_equal(x.grad != 0.0, out.data != 0.0)


# ---- softmax cross entropy -----------------------------------------------------------

def test_softmax_ce_uniform_logits():
    loss, probs = ng.softmax_cross_entropy(Tensor(np.zeros((2, 4))), [0, 3])
    assert np.isclose(float(loss.data), np.log(4.0))
    assert np.allclose(probs, 0.25)


def test_softmax_ce_confident_limit():
    logits = np.zeros((1, 3))
    logits[0, 1] = 200.0
    loss, _ = ng.softmax_cross_entropy(Tensor(logits), [1])
    assert float(loss.data) < 1e-12


def test_softmax_ce_hand_value():
    loss, _ = ng.softmax_cross_entropy(Tensor([[1.0, 2.0]]), [1])
    assert np.isclose(float(loss.data), np.log(1.0 + np.exp(-1.0)))


def test_softmax_probs_normalized():
    rng = RNG(80)
    logits = Tensor(rng.normal(size=(10, 6)) * 30)
    _, probs = ng.softmax_cross_entropy(logits, rng.integers(0, 6, 10))
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_ce_gradcheck():
    rng = RNG(81)
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    targets = rng.integers(0, 4, 5)
    assert grad_check(lambda: ng.softmax_cross_entropy(logits, targets)[0],
                      [logits]) < TOL


def test_softmax_ce_rejects_bad_targets():
    with pytest.raises(ValueError):
        ng.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


# ---- sgd ------------------------------------------------------------------------------

def test_sgd_plain_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = ng.SGD([p], learning_rate=0.5)
    p.grad = np.array([2.0])
    opt.step()
    assert np.isclose(p.data[0], 0.0)


def test_sgd_zero_grad_zero_velocity_fixed_point():
    p = Tensor(np.array([3.0]), requires_grad=True)
    opt = ng.SGD([p], learning_rate=0.1, momentum=0.9)
    p.grad = np.array([0.0])
    opt.step()
    assert p.data[0] == 3.0


def test_sgd_momentum_hand_iteration():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = ng.SGD([p], learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step()
    assert np.isclose(p.data[0], 0.9)
    p.grad = np.array([1.0])
    opt.step()
    assert np.isclose(p.data[0], 0.9 - 0.1 * (0.9 * 1.0 + 1.0))


def test_sgd_weight_decay_enters_velocity():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = ng.SGD([p], learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    p.grad = np.array([0.0])
    opt.step()
    # v = 0 + 0 + 0.5*2 = 1; p = 2 - 0.1
    assert np.isclose(p.data[0], 1.9)


def test_sgd_functional_matches_class():
    rng = RNG(90)
    values = rng.normal(size=5)
    grads = rng.normal(size=(2, 5))
    p = Tensor(values.copy(), requires_grad=True)
    opt = ng.SGD([p], 0.05, momentum=0.9, weight_decay=0.01)
    expected, velocity = values.copy(), np.zeros(5)
    for g in grads:
        p.grad = g.copy()
        opt.step()
        velocity = 0.9 * velocity + g + 0.01 * expected
        expected = expected - 0.05 * velocity
    assert np.allclose(p.data, expected)


def reference_sgd_step(p, v, g, lr, momentum, weight_decay):
    """One SGD step on plain arrays, the update rule written out by hand:
    v <- momentum*v + (g + weight_decay*p); p <- p - lr*v."""
    v = v * momentum
    v = v + (g + weight_decay * p)
    return p - lr * v, v


def test_sgd_step_matches_reference_bitwise():
    """Several steps over three parameters, one of which has no gradient
    on some steps: every parameter matches the hand-written step to the
    last bit, and a step without a gradient leaves it and its velocity
    untouched (no weight decay applied)."""
    rng = RNG(91)
    shapes = [(4, 3), (5,), (2, 2, 3)]
    lr, momentum, weight_decay = 0.07, 0.9, 3e-4
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    opt = ng.SGD(params, lr, momentum=momentum, weight_decay=weight_decay)
    expected = [p.data.copy() for p in params]
    velocity = [np.zeros(s) for s in shapes]
    for step in range(5):
        for i, p in enumerate(params):
            p.grad = None if (i == 1 and step % 2) else rng.normal(size=shapes[i])
            if p.grad is not None:
                expected[i], velocity[i] = reference_sgd_step(
                    expected[i], velocity[i], p.grad, lr, momentum, weight_decay)
        opt.step()
        for p, want, v_got, v_want in zip(params, expected, opt.velocity, velocity):
            assert p.data.tobytes() == want.tobytes(), step
            assert v_got.tobytes() == v_want.tobytes(), step


# ---- graph behavior ----------------------------------------------------------------------

def test_gradient_accumulates_through_skip_connection():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0 + x          # both branches feed the sum
    y.backward()
    assert np.isclose(x.grad[0], 4.0)


def test_two_training_steps_bit_identical():
    def run():
        rng = RNG(99)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        opt = ng.SGD([w, b], 0.05, momentum=0.9)
        data = rng.normal(size=(6, 4))
        targets = rng.integers(0, 3, 6)
        for _ in range(2):
            loss, _ = ng.softmax_cross_entropy(ng.dense(Tensor(data), w, b), targets)
            opt.zero_grad()
            loss.backward()
            opt.step()
        return w.data.copy(), b.data.copy()

    w1, b1 = run()
    w2, b2 = run()
    assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


def walk_keeping_graph(root):
    """backward() as a plain reverse-topological walk that releases
    nothing: the oracle for what the releasing walk must compute."""
    topo, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

    visit(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def skip_connection_case(walk):
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0 + x
    walk(y)
    return [x.grad], [y.data]


def two_step_case(walk):
    rng = RNG(99)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    opt = ng.SGD([w, b], 0.05, momentum=0.9)
    data, targets = rng.normal(size=(6, 4)), rng.integers(0, 3, 6)
    grads, losses = [], []
    for _ in range(2):
        hidden = ng.relu(ng.dense(Tensor(data), w, b))
        loss, _ = ng.softmax_cross_entropy(ng.dense(hidden, w[:, :3], b), targets)
        opt.zero_grad()
        walk(loss)
        grads += [w.grad.copy(), b.grad.copy()]
        losses.append(loss.data)
        opt.step()
    return grads + [w.data, b.data], losses


@pytest.mark.parametrize("case", [skip_connection_case, two_step_case])
def test_release_leaves_leaf_gradients_unchanged(case):
    """The releasing walk gives every leaf gradient, every updated
    parameter and every loss value bit for bit as a walk that keeps the
    graph does."""
    got, got_loss = case(Tensor.backward)
    want, want_loss = case(walk_keeping_graph)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert [a.tobytes() for a in got_loss] == [a.tobytes() for a in want_loss]


def small_training_graph():
    rng = RNG(63)
    w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    hidden = ng.relu(ng.dense(Tensor(rng.normal(size=(6, 4))), w))
    loss, _ = ng.softmax_cross_entropy(ng.dense(hidden, v), rng.integers(0, 3, 6))
    return w, v, hidden, loss


def test_backward_releases_interior_activations():
    """After backward(), an interior activation is held only by its own
    name: once that goes, its array is freed although `loss` is alive.
    Its .data stays readable while the name holds it."""
    w, v, hidden, loss = small_training_graph()
    before = hidden.data.copy()
    loss.backward()
    assert np.array_equal(hidden.data, before)
    assert hidden.grad is None and hidden._parents == ()
    assert w.grad is not None and v.grad is not None
    alive = weakref.ref(hidden.data)
    del hidden
    assert alive() is None
    assert np.isfinite(loss.data) and loss._parents == ()


def test_second_backward_raises_and_leaves_gradients_alone():
    w, v, hidden, loss = small_training_graph()
    loss.backward()
    grads = (w.grad.copy(), v.grad.copy())
    with pytest.raises(ValueError, match="already released"):
        loss.backward()
    with pytest.raises(ValueError, match="already released"):
        (hidden * 2.0).sum().backward()
    assert np.array_equal(w.grad, grads[0]) and np.array_equal(v.grad, grads[1])
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0 + x
    y.backward()
    with pytest.raises(ValueError, match="already released"):
        y.backward()
    assert x.grad[0] == 4.0


def test_backward_requires_grad():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3)).mean().backward()


def test_no_grad_records_no_graph_and_restores():
    w = Tensor(RNG(60).normal(size=(3, 4)), requires_grad=True)
    x = Tensor(RNG(61).normal(size=(2, 4)))
    with ng.no_grad():
        out = ng.relu(ng.dense(x, w))
        with ng.no_grad():
            inner = x * w.sum()
        assert not inner.requires_grad           # nested exit keeps it off
        again = x * w.sum()
    for t in (out, inner, again):
        assert not t.requires_grad and t._parents == () and t._backward is None
    assert np.array_equal(out.data, ng.relu(ng.dense(x, w)).data)
    assert ng.dense(x, w).requires_grad


def test_no_grad_restores_after_exception():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with ng.no_grad():
            raise RuntimeError("inside")
    out = (w * 2.0).sum()
    assert out.requires_grad and out._parents
    out.backward()
    assert np.array_equal(w.grad, [2.0, 2.0, 2.0])


def test_training_step_after_inference_gets_gradients():
    rng = RNG(62)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    data, targets = rng.normal(size=(6, 4)), rng.integers(0, 3, 6)
    with ng.no_grad():
        ng.dense(Tensor(data), w)
    loss, _ = ng.softmax_cross_entropy(ng.dense(Tensor(data), w), targets)
    loss.backward()
    assert w.grad is not None and np.any(w.grad != 0.0)
    before = w.data.copy()
    ng.SGD([w], 0.1).step()
    assert not np.array_equal(w.data, before)
