"""Layer forward oracles, finite-difference checks of every backward, and the
row-split products with their helper thread."""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from _gradcheck import fd_grad, rel_err, scalar_fd
from numpy.lib.stride_tricks import sliding_window_view

import toacnn
from toacnn import helper
from toacnn.neural import layers
from toacnn.neural.layers import (
    conv2d_backward,
    conv2d_forward,
    conv2d_param_grads,
    dense_backward,
    dense_forward,
    dense_param_grads,
    maxpool_backward,
    maxpool_forward,
    mse_loss,
    relu_backward,
    relu_forward,
    tconv_backward,
    tconv_forward,
    tconv_param_grads,
)
from toacnn.neural.model import backward, forward, init_params
from toacnn.neural.profile import full_profile, small_profile

TOL = 1e-3


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, shape).astype(np.float32)


# Reference kernels: the direct einsum and argmax formulas of each layer,
# written independently of the matrix-product forms under test.


def ref_conv2d(x, kernels, bias, d_out):
    """(y, dx, d_kernels, d_bias) of a same-size stride-1 convolution."""
    kh, kw, _, _ = kernels.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(0, 1))  # (H, W, Cin, kh, kw)
    y = np.einsum("hwcij,ijco->hwo", win, kernels, optimize=True) + bias
    d_kernels = np.einsum("hwcij,hwo->ijco", win, d_out, optimize=True)
    # d(x padded) is the correlation of zero-extended d_out with the
    # spatially flipped kernels; cropping the pad margin gives dx
    dp = np.pad(d_out, ((kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
    dwin = sliding_window_view(dp, (kh, kw), axis=(0, 1))
    dxp = np.einsum("hwoij,ijco->hwc", dwin, kernels[::-1, ::-1], optimize=True)
    dx = dxp[ph : ph + x.shape[0], pw : pw + x.shape[1]]
    return y, dx, d_kernels, d_out.sum(axis=(0, 1))


def ref_tconv(x, kernels, bias, d_out):
    """(y, dx, d_kernels, d_bias) of a transposed conv with stride = kernel."""
    f = kernels.shape[0]
    h, w, _ = x.shape
    cout = kernels.shape[3]
    y = np.einsum("hwc,abco->hawbo", x, kernels, optimize=True).reshape(h * f, w * f, cout)
    dyb = d_out.reshape(h, f, w, f, cout)
    d_kernels = np.einsum("hwc,hawbo->abco", x, dyb, optimize=True)
    dx = np.einsum("hawbo,abco->hwc", dyb, kernels, optimize=True)
    return y + bias, dx, d_kernels, d_out.sum(axis=(0, 1))


def ref_maxpool(x, size, d_out):
    """(y, dx) of max pooling; ties go to the argmax of the flattened window."""
    h, w, c = x.shape
    hs, ws = h // size, w // size
    xw = x.reshape(hs, size, ws, size, c).transpose(0, 2, 1, 3, 4).reshape(hs, ws, size * size, c)
    idx = np.argmax(xw, axis=2)
    y = np.take_along_axis(xw, idx[:, :, None, :], axis=2)[:, :, 0, :]
    dxw = np.zeros((hs, ws, size * size, c), dtype=np.float32)
    np.put_along_axis(dxw, idx[:, :, None, :], d_out[:, :, None, :], axis=2)
    dx = dxw.reshape(hs, ws, size, size, c).transpose(0, 2, 1, 3, 4).reshape(h, w, c)
    return y, dx


def assert_matches(actual, reference):
    # float32 sums in another order: rtol 1e-5, with an absolute floor of
    # 1e-6 for entries that cancel to near zero (inputs are O(1))
    assert actual.dtype == np.float32
    assert actual.shape == reference.shape
    np.testing.assert_allclose(actual, reference, rtol=1e-5, atol=1e-6)


class TestConv:
    def test_identity_kernel_passthrough(self):
        rng = np.random.default_rng(0)
        x = rand(rng, 6, 7, 3)
        k = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            k[1, 1, c, c] = 1.0
        y, _ = conv2d_forward(x, k, np.zeros(3, dtype=np.float32))
        assert np.array_equal(y, x)

    def test_known_sum_kernel(self):
        # all-ones 3x3 kernel on all-ones input counts the unpadded support
        x = np.ones((4, 4, 1), dtype=np.float32)
        k = np.ones((3, 3, 1, 1), dtype=np.float32)
        y, _ = conv2d_forward(x, k, np.zeros(1, dtype=np.float32))
        assert y[0, 0, 0] == 4.0  # corner sees a 2x2 patch
        assert y[0, 1, 0] == 6.0
        assert y[1, 1, 0] == 9.0

    def test_bias_adds_per_channel(self):
        rng = np.random.default_rng(1)
        x = rand(rng, 5, 5, 2)
        k = np.zeros((3, 3, 2, 2), dtype=np.float32)
        b = np.array([1.5, -2.0], dtype=np.float32)
        y, _ = conv2d_forward(x, k, b)
        assert np.all(y[:, :, 0] == 1.5) and np.all(y[:, :, 1] == -2.0)

    def test_output_shape_and_dtype(self):
        rng = np.random.default_rng(2)
        y, _ = conv2d_forward(rand(rng, 9, 5, 4), rand(rng, 5, 5, 4, 6), rand(rng, 6))
        assert y.shape == (9, 5, 6)
        assert y.dtype == np.float32

    @pytest.mark.parametrize("trial", range(6))
    def test_backward_matches_fd(self, trial):
        rng = np.random.default_rng(100 + trial)
        hw = int(rng.integers(4, 8))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        x = rand(rng, hw, hw + 1, cin)
        ker = rand(rng, k, k, cin, cout)
        b = rand(rng, cout)
        y, cache = conv2d_forward(x, ker, b)
        w = rng.uniform(-1, 1, y.shape)
        dx = conv2d_backward(cache, w.astype(np.float32))
        dk, db = conv2d_param_grads(cache, w.astype(np.float32))
        assert rel_err(dx, fd_grad(lambda v: conv2d_forward(v, ker, b)[0], x, w)) < TOL
        assert rel_err(dk, fd_grad(lambda v: conv2d_forward(x, v, b)[0], ker, w)) < TOL
        assert rel_err(db, fd_grad(lambda v: conv2d_forward(x, ker, v)[0], b, w)) < TOL


class TestConvOracle:
    @pytest.mark.parametrize(
        "h, w, cin, cout, k",
        [
            (5, 8, 3, 4, 3),  # H != W
            (7, 6, 2, 3, 5),  # kh = 5
            (6, 9, 1, 4, 3),  # Cin = 1
            (8, 5, 3, 1, 3),  # Cout = 1
            (9, 7, 1, 1, 5),
            (4, 4, 5, 2, 1),
        ],
    )
    def test_forward_and_backward_match_einsum(self, h, w, cin, cout, k):
        rng = np.random.default_rng(h * 1000 + w * 100 + cin * 10 + cout + k)
        x, ker, b = rand(rng, h, w, cin), rand(rng, k, k, cin, cout), rand(rng, cout)
        d = rand(rng, h, w, cout)
        y, cache = conv2d_forward(x, ker, b)
        dx = conv2d_backward(cache, d)
        dk, db = conv2d_param_grads(cache, d)
        for actual, reference in zip((y, dx, dk, db), ref_conv2d(x, ker, b, d)):
            assert_matches(actual, reference)


class TestTconvOracle:
    @pytest.mark.parametrize(
        "h, w, cin, cout, f",
        [
            (3, 4, 3, 2, 2),  # H != W
            (2, 3, 4, 3, 5),  # f = 5
            (3, 2, 1, 3, 2),  # Cin = 1
            (4, 3, 3, 1, 2),  # Cout = 1
            (2, 2, 1, 1, 5),
            (5, 5, 6, 4, 1),
        ],
    )
    def test_forward_and_backward_match_einsum(self, h, w, cin, cout, f):
        rng = np.random.default_rng(h * 1000 + w * 100 + cin * 10 + cout + f)
        x, ker, b = rand(rng, h, w, cin), rand(rng, f, f, cin, cout), rand(rng, cout)
        d = rand(rng, h * f, w * f, cout)
        y, cache = tconv_forward(x, ker, b)
        dx = tconv_backward(cache, d)
        dk, db = tconv_param_grads(cache, d)
        for actual, reference in zip((y, dx, dk, db), ref_tconv(x, ker, b, d)):
            assert_matches(actual, reference)


class TestMaxPoolOracle:
    @pytest.mark.parametrize("h, w, c, size", [(4, 6, 3, 2), (10, 20, 4, 5), (9, 6, 2, 3), (10, 10, 1, 5)])
    def test_relu_output_with_tied_windows_matches_bitwise(self, h, w, c, size):
        rng = np.random.default_rng(h * 100 + w * 10 + size)
        # ReLU output: windows in odd rows and even columns are all zero, the
        # first row holds a repeated positive value, and the rest is zero
        # about 80% of the time
        x = np.maximum(rand(rng, h, w, c) - 0.6, 0.0)
        x.reshape(h // size, size, w // size, size, c)[1::2, :, ::2] = 0.0
        x[0, :2] = 0.25
        y, cache = maxpool_forward(x, size)
        d = rand(rng, *y.shape)
        dx = maxpool_backward(cache, d)
        y_ref, dx_ref = ref_maxpool(x, size, d)
        assert (y == 0.0).any()
        assert y.dtype == dx.dtype == np.float32
        assert y.tobytes() == y_ref.tobytes()
        assert dx.tobytes() == dx_ref.tobytes()


class TestMaxPool:
    def test_forward_blocks(self):
        x = np.arange(16, dtype=np.float32).reshape(4, 4, 1)
        y, _ = maxpool_forward(x, 2)
        assert np.array_equal(y[:, :, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            maxpool_forward(np.zeros((5, 4, 1), dtype=np.float32), 2)

    def test_tie_routes_to_first_in_window(self):
        x = np.zeros((2, 2, 1), dtype=np.float32)  # four-way tie
        _, cache = maxpool_forward(x, 2)
        dx = maxpool_backward(cache, np.array([[[3.0]]], dtype=np.float32))
        assert dx[0, 0, 0] == 3.0
        assert dx.sum() == 3.0

    def test_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(4, 4, 1)
        _, cache = maxpool_forward(x, 2)
        dx = maxpool_backward(cache, np.ones((2, 2, 1), dtype=np.float32))
        expect = np.zeros((4, 4))
        expect[1, 1] = expect[1, 3] = expect[3, 1] = expect[3, 3] = 1.0
        assert np.array_equal(dx[:, :, 0], expect)

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_backward_matches_fd(self, size):
        rng = np.random.default_rng(40 + size)
        n = size * 2
        # distinct integers keep every argmax stable under the fd step
        x = rng.permutation(n * n * 2).reshape(n, n, 2).astype(np.float32)
        y, cache = maxpool_forward(x, size)
        w = rng.uniform(-1, 1, y.shape)
        dx = maxpool_backward(cache, w.astype(np.float32))
        assert rel_err(dx, fd_grad(lambda v: maxpool_forward(v, size)[0], x, w, h=0.25)) < TOL


class TestDense:
    def test_forward_oracle(self):
        x = np.array([1.0, 2.0], dtype=np.float32)
        w = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]], dtype=np.float32)
        b = np.array([0.5, -0.5, 0.0], dtype=np.float32)
        y, _ = dense_forward(x, w, b)
        assert np.allclose(y, [1.5, 1.5, 8.0])

    @pytest.mark.parametrize("trial", range(6))
    def test_backward_matches_fd(self, trial):
        rng = np.random.default_rng(200 + trial)
        nin = int(rng.integers(2, 12))
        nout = int(rng.integers(1, 9))
        x, w, b = rand(rng, nin), rand(rng, nin, nout), rand(rng, nout)
        y, cache = dense_forward(x, w, b)
        up = rng.uniform(-1, 1, y.shape)
        dx = dense_backward(cache, up.astype(np.float32))
        dw, db = dense_param_grads(cache, up.astype(np.float32))
        assert rel_err(dx, fd_grad(lambda v: dense_forward(v, w, b)[0], x, up)) < TOL
        assert rel_err(dw, fd_grad(lambda v: dense_forward(x, v, b)[0], w, up)) < TOL
        assert rel_err(db, fd_grad(lambda v: dense_forward(x, w, v)[0], b, up)) < TOL


class TestTconv:
    def test_block_structure(self):
        # one input pixel owns exactly one f x f output block
        x = np.zeros((2, 2, 1), dtype=np.float32)
        x[0, 1, 0] = 1.0
        k = np.arange(4, dtype=np.float32).reshape(2, 2, 1, 1)
        y, _ = tconv_forward(x, k, np.zeros(1, dtype=np.float32))
        assert np.array_equal(y[0:2, 2:4, 0], [[0.0, 1.0], [2.0, 3.0]])
        assert y.sum() == 6.0

    def test_upsampling_shape(self):
        rng = np.random.default_rng(3)
        y, _ = tconv_forward(rand(rng, 3, 5, 4), rand(rng, 5, 5, 4, 2), rand(rng, 2))
        assert y.shape == (15, 25, 2)

    @pytest.mark.parametrize("trial", range(6))
    def test_backward_matches_fd(self, trial):
        rng = np.random.default_rng(300 + trial)
        h = int(rng.integers(2, 5))
        wdt = int(rng.integers(2, 5))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        f = int(rng.choice([2, 3]))
        x = rand(rng, h, wdt, cin)
        ker = rand(rng, f, f, cin, cout)
        b = rand(rng, cout)
        y, cache = tconv_forward(x, ker, b)
        up = rng.uniform(-1, 1, y.shape)
        dx = tconv_backward(cache, up.astype(np.float32))
        dk, db = tconv_param_grads(cache, up.astype(np.float32))
        assert rel_err(dx, fd_grad(lambda v: tconv_forward(v, ker, b)[0], x, up)) < TOL
        assert rel_err(dk, fd_grad(lambda v: tconv_forward(x, v, b)[0], ker, up)) < TOL
        assert rel_err(db, fd_grad(lambda v: tconv_forward(x, ker, v)[0], b, up)) < TOL


class TestRelu:
    def test_forward(self):
        x = np.array([-2.0, 0.0, 3.0], dtype=np.float32)
        y, _ = relu_forward(x)
        assert np.array_equal(y, [0.0, 0.0, 3.0])

    def test_backward_masks_nonpositive(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        _, cache = relu_forward(x)
        dx = relu_backward(cache, np.array([5.0, 5.0, 5.0], dtype=np.float32))
        assert np.array_equal(dx, [0.0, 0.0, 5.0])

    def test_backward_matches_fd_off_kink(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (6, 6, 2))
        x = (np.sign(x) * (np.abs(x) + 0.1)).astype(np.float32)
        y, cache = relu_forward(x)
        w = rng.uniform(-1, 1, y.shape)
        dx = relu_backward(cache, w.astype(np.float32))
        assert rel_err(dx, fd_grad(lambda v: relu_forward(v)[0], x, w, h=1e-2)) < TOL


class TestMse:
    def test_zero_at_match(self):
        p = np.ones((3, 3, 1), dtype=np.float32)
        loss, grad = mse_loss(p, p.copy())
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(p))

    def test_value_oracle(self):
        p = np.array([1.0, 3.0], dtype=np.float32)
        t = np.array([0.0, 0.0], dtype=np.float32)
        loss, grad = mse_loss(p, t)
        assert loss == pytest.approx(5.0)
        assert np.allclose(grad, [1.0, 3.0])

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        p = rand(rng, 4, 5, 1)
        t = rand(rng, 4, 5, 1)
        _, grad = mse_loss(p, t)
        assert rel_err(grad, scalar_fd(lambda v: mse_loss(v, t)[0], p)) < TOL


def product_operands(monkeypatch, profile):
    """(a, b) of every split-capable product in one forward and backward."""
    rng = np.random.default_rng(11)
    side = profile.input_size
    x = (rng.uniform(0, 1, (side, side, 1)) > 0.5).astype(np.float32)
    calls = []
    whole = layers._matmul
    monkeypatch.setattr(layers, "_matmul", lambda a, b: calls.append((a, b)) or whole(a, b))
    params = init_params(profile, 5)
    out, caches = forward(profile, params, x)
    backward(profile, params, caches, rand(rng, *out.shape))
    monkeypatch.undo()
    return calls


class TestSplitProduct:
    @pytest.mark.parametrize("profile", [full_profile(64), small_profile(64)], ids=["full", "small"])
    def test_split_equals_whole_bitwise_on_every_product(self, monkeypatch, profile):
        calls = product_operands(monkeypatch, profile)
        # no input-gradient product for the first conv
        assert len(calls) == 3 * len(profile.encoder) - 1 + 3 * len(profile.decoder)
        for a, b in calls:
            for rows in (a, a[1:]):  # both row-count parities
                assert layers._matmul(rows, b).tobytes() == (rows @ b).tobytes()

    def test_only_large_full_profile_products_split(self, monkeypatch):
        sizes = [a.shape[0] * a.shape[1] * b.shape[1]
                 for p in (full_profile(64), small_profile(64))
                 for a, b in product_operands(monkeypatch, p)]
        # enc1, enc2, dec0 and dec1 of the full profile: three products each
        assert sum(s >= layers._SPLIT_MIN_MACS for s in sizes) == 12

    def test_import_starts_no_thread(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(toacnn.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import threading, toacnn.cli; print(threading.active_count())"
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    def test_forked_child_starts_its_own_helper(self):
        rng = np.random.default_rng(12)
        a, b = rand(rng, 512, 256), rand(rng, 256, 512)
        layers._matmul(a, b)
        assert helper._executor is not None
        child = multiprocessing.get_context("fork").Process(target=_split_in_child, args=(a, b))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


def _split_in_child(a, b):
    sys.exit(0 if layers._matmul(a, b).tobytes() == (a @ b).tobytes() else 1)
