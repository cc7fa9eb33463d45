"""Forward/backward pairs for every layer type, float32 throughout.

Each forward returns (output, cache); the matching backward takes (cache,
upstream gradient) and returns the input gradient. A layer with parameters
also has a ``*_param_grads`` that takes the same two arguments and returns
(weight gradient, bias gradient), apart from the input gradient so that
training can run the two on different threads. Data layout is
channels-last: (H, W, C) activations, (kh, kw, Cin, Cout) kernels, (in, out)
dense weights.

Every convolution is one BLAS matrix product (GEMM) over the H*W pixel rows
instead of a sliding-window einsum:

- ``conv2d``: the forward copies the kh*kw shifted views of the padded input
  into one (H*W, kh*kw*Cin) column matrix (im2col) and multiplies it by the
  kernels read as a (kh*kw*Cin, Cout) matrix. The cache is (column matrix,
  kernels). The kernel gradient is columnsᵀ @ d. The input gradient is the
  same-size convolution of d with the kernels flipped in space and with Cin
  and Cout swapped: a column matrix of d times a (kh*kw*Cout, Cin) matrix.
- ``tconv``: stride equals kernel size f, so every input pixel owns one
  disjoint f-by-f output block. The forward is one (f*f*Cout, Cin) @
  (Cin, H*W) product followed by a block transpose, which writes the output
  and adds the bias in one pass. ``tconv_layout`` copies the kernels into
  that (f*f*Cout, Cin) matrix. Training's forward does so on every call,
  since its kernels change every step; inference hands in the matrix that
  its checkpoint built once (see ``Checkpoint.layouts``). The cache is
  (input, kernels). The backward and the parameter gradients each regroup the
  output gradient as a (f*f*Cout, H*W) matrix; the kernel gradient is that
  matrix @ the (H*W, Cin) input, and the input gradient is the
  (Cin, f*f*Cout) kernels @ that matrix.
- ``maxpool``: the forward is a max over a (H/s, s, W/s, s, C) view. The cache
  is (input, output, size); the backward routes each gradient to the first
  maximum of its window in row-major order.

Each product sums over its indices in the order numpy's einsum uses for the
direct formulas (kept as reference kernels in tests/test_neural_layers.py),
and the transposed-conv products also keep einsum's operand order, which the
small profile's shapes need. With one numpy and BLAS build the two forms then
agree bit for bit on both network profiles, so a trained checkpoint is the
same whichever computed it.

The conv and tconv products run through ``_matmul``. A product of at least
``_SPLIT_MIN_MACS`` multiply-adds (on ``full_profile``, every product but
enc0's and dec2's) is split by output rows: one helper thread computes the
lower half into a shared output while the calling thread computes the upper
half. Each output element is still one inner product over the whole inner
dimension, which BLAS blocks the same way whatever the row count, so the
split result is byte for byte the whole product's (checked on every product
shape of both profiles in tests/test_neural_layers.py). Smaller products,
among them all of ``small_profile``'s, stay whole: there a split does not
pay, and BLAS picks its small-matrix and matrix-vector kernels by size, so a
split would no longer be bitwise. The helper thread is the package's one
(see toacnn.helper), and the lower half goes to it as any other call does:
if the helper has not started it when the upper half is done, because it
is busy with training's jobs or another caller's half or is the calling
thread itself, the calling thread takes it back and computes it. Either
way each half is the same product, so the bytes are the same.
"""

from __future__ import annotations

import numpy as np

from .. import helper

# Products of at least this many multiply-adds (m*k*n) split their output
# rows with the helper thread. On two cores and one BLAS thread, a hot-cache
# split paid off from about 2^24 (256x256x256: 0.43 ms either way, 512x256x256:
# 0.84 -> 0.69 ms); full_profile's dec1 products (2^25.3) went 1.1 -> 0.85 ms,
# while enc0's (2^22.5) ran up to 2x slower split.
_SPLIT_MIN_MACS = 1 << 25


def _matmul(a, b):
    """a @ b; in a large product the lower half of the output rows is handed
    to the helper thread while the calling thread computes the upper half."""
    m, k = a.shape
    n = b.shape[1]
    if m * k * n < _SPLIT_MIN_MACS:
        return a @ b
    out = np.empty((m, n), dtype=np.result_type(a, b))
    h = m // 2
    with helper.Jobs() as lower:
        lower.submit(np.matmul, a[h:], b, out[h:])
        np.matmul(a[:h], b, out=out[:h])
    return out


def _im2col(x, kh, kw):
    """(H*W, kh*kw*C) column matrix of a zero-padded (H, W, C) image."""
    h, w, c = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    xp[ph : ph + h, pw : pw + w] = x
    cols = np.empty((h, w, kh, kw, c), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[i : i + h, j : j + w]
    return cols.reshape(h * w, kh * kw * c)


def conv2d_forward(x, kernels, bias):
    """Same-size convolution, stride 1, zero padding, odd kernel."""
    kh, kw, cin, cout = kernels.shape
    h, w, _ = x.shape
    cols = _im2col(x, kh, kw)
    y = _matmul(cols, kernels.reshape(kh * kw * cin, cout))
    y += bias
    return y.reshape(h, w, cout).astype(np.float32, copy=False), (cols, kernels)


def conv2d_param_grads(cache, d_out):
    """(d_kernels, d_bias) of a conv, from its cache and output gradient."""
    cols, kernels = cache
    cout = kernels.shape[3]
    d_bias = d_out.sum(axis=(0, 1))
    d_kernels = _matmul(cols.T, d_out.reshape(-1, cout)).reshape(kernels.shape)
    return d_kernels.astype(np.float32, copy=False), d_bias.astype(np.float32, copy=False)


def conv2d_backward(cache, d_out):
    """Input gradient of a conv; conv2d_param_grads gives its parameters'."""
    _, kernels = cache
    kh, kw, cin, cout = kernels.shape
    h, w, _ = d_out.shape
    flipped = kernels[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * cout, cin)
    dx = _matmul(_im2col(d_out, kh, kw), flipped).reshape(h, w, cin)
    return dx.astype(np.float32, copy=False)


def maxpool_forward(x, size):
    """Non-overlapping max pooling, stride equal to window size.

    Ties resolve to the first maximum in row-major window order, and backward
    routes the gradient only there.
    """
    h, w, c = x.shape
    if h % size or w % size:
        raise ValueError(f"pool size {size} does not divide input {h}x{w}")
    y = x.reshape(h // size, size, w // size, size, c).max(axis=(1, 3))
    return y, (x, y, size)


def maxpool_backward(cache, d_out):
    x, y, size = cache
    h, w, c = x.shape
    hs, ws = h // size, w // size
    hits = x.reshape(hs, size, ws, size, c) == y[:, None, :, None]
    # keep only the first hit of each window, walking its taps in row-major order
    taken = np.zeros((hs, ws, c), dtype=bool)
    for i in range(size):
        for j in range(size):
            tap = hits[:, i, :, j]
            tap &= ~taken
            taken |= tap
    dx = np.where(hits, d_out[:, None, :, None], np.float32(0.0))
    return dx.reshape(h, w, c).astype(np.float32, copy=False)


def dense_forward(x, weight, bias):
    """Affine map on a flat vector; weight is (in, out)."""
    return x @ weight + bias, (x, weight)


def dense_param_grads(cache, d_out):
    """(d_weight, d_bias) of a dense layer."""
    x, _ = cache
    d_weight = np.outer(x, d_out).astype(np.float32, copy=False)
    return d_weight, d_out.astype(np.float32, copy=False)


def dense_backward(cache, d_out):
    _, weight = cache
    return (weight @ d_out).astype(np.float32, copy=False)


def tconv_layout(kernels):
    """A transposed conv's (f, f, Cin, Cout) kernels as the (f*f*Cout, Cin)
    matrix of its forward product."""
    f, _, cin, cout = kernels.shape
    return kernels.transpose(0, 1, 3, 2).reshape(f * f * cout, cin)


def tconv_forward(x, kernels, bias, layout=None):
    """Transposed convolution with stride equal to the kernel size.

    Every input pixel expands into one disjoint f-by-f output block, so the
    output is an exact f-fold upsampling with no overlap between blocks.
    ``layout`` is ``tconv_layout(kernels)`` if the caller already has it.
    """
    f, _, cin, cout = kernels.shape
    h, w, _ = x.shape
    # a layout made here is freed with the product, before y is allocated:
    # held past it, full_profile's 13 MB one raised training's peak RSS by 10 MB
    taps = _matmul(
        tconv_layout(kernels) if layout is None else layout, x.reshape(h * w, cin).T
    ).reshape(f, f, cout, h, w)
    y = np.empty((h, f, w, f, cout), dtype=np.result_type(taps, bias))
    np.add(taps.transpose(3, 0, 4, 1, 2), bias, out=y)
    return y.reshape(h * f, w * f, cout).astype(np.float32, copy=False), (x, kernels)


def _tconv_regroup(d_out, f, h, w):
    """The (f*f*Cout, H*W) matrix of a transposed conv's output gradient."""
    cout = d_out.shape[2]
    return d_out.reshape(h, f, w, f, cout).transpose(1, 3, 4, 0, 2).reshape(f * f * cout, h * w)


def tconv_param_grads(cache, d_out):
    """(d_kernels, d_bias) of a transposed conv."""
    x, kernels = cache
    f, _, cin, cout = kernels.shape
    h, w, _ = x.shape
    d = _tconv_regroup(d_out, f, h, w)
    d_bias = d_out.sum(axis=(0, 1))
    d_kernels = _matmul(d, x.reshape(h * w, cin)).reshape(f, f, cout, cin).transpose(0, 1, 3, 2)
    return d_kernels.astype(np.float32, copy=False), d_bias.astype(np.float32, copy=False)


def tconv_backward(cache, d_out):
    x, kernels = cache
    f, _, cin, cout = kernels.shape
    h, w, _ = x.shape
    d = _tconv_regroup(d_out, f, h, w)
    dx = _matmul(kernels.transpose(2, 0, 1, 3).reshape(cin, f * f * cout), d)
    return dx.T.reshape(h, w, cin).astype(np.float32, copy=False)


def relu_forward(x):
    return np.maximum(x, 0.0), x


def relu_backward(cache, d_out):
    return np.where(cache > 0.0, d_out, np.float32(0.0))


def mse_loss(pred, target):
    """Mean squared error over all entries and its gradient w.r.t. pred."""
    diff = pred - target
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    grad = (2.0 / diff.size) * diff
    return loss, grad.astype(np.float32, copy=False)
