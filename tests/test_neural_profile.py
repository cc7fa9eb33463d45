"""Profile validation, parameter accounting, and the model wiring."""

import numpy as np
import pytest
from _gradcheck import rel_err

from toacnn.neural.layers import mse_loss
from toacnn.neural.model import backward, first_nonfinite_layer, forward, init_params, predict
from toacnn.neural.profile import NetworkProfile, full_profile, small_profile

TINY = NetworkProfile(
    input_size=8, encoder=((3, 3, 2), (3, 4, 2)), adaptive_units=5, decoder=((2, 3), (2, 1))
)


class TestValidation:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            NetworkProfile(8, ((4, 3, 2),), 0, ((2, 1),))

    def test_pool_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            NetworkProfile(9, ((3, 3, 2),), 0, ((2, 1),))

    def test_decoder_must_restore_size(self):
        with pytest.raises(ValueError, match="restore"):
            NetworkProfile(8, ((3, 3, 2), (3, 4, 2)), 0, ((2, 1),))

    def test_last_channel_must_be_one(self):
        with pytest.raises(ValueError, match="single channel"):
            NetworkProfile(8, ((3, 3, 2),), 0, ((2, 4),))

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError):
            NetworkProfile(8, ((3, 3, 2),), -1, ((2, 1),))


class TestCounting:
    def test_full_profile_flatten_width(self):
        assert full_profile().flatten_width == 12800
        assert full_profile().bottleneck_size == 5

    def test_full_profile_dense_block_n8000(self):
        # 2 * 12800 * 8000 weights + 8000 + 12800 biases, no tensors built
        assert full_profile(8000).dense_parameter_count() == 204_820_800

    def test_dense_count_n0_is_square(self):
        assert full_profile(0).dense_parameter_count() == 12800 * 12800 + 12800

    def test_dense_count_formula(self):
        for n in (1, 64, 1000, 16000):
            p = full_profile(n)
            assert p.dense_parameter_count() == 12800 * n + n + n * 12800 + 12800

    def test_total_count_matches_spec_sum(self):
        p = TINY
        total = sum(int(np.prod(s)) for _, s, _ in p.parameter_specs())
        assert p.parameter_count() == total

    def test_small_profile_flatten(self):
        assert small_profile().flatten_width == 256

    def test_specs_cover_init(self):
        params = init_params(TINY, 0)
        for arr, (_, shape, _) in zip(params, TINY.parameter_specs()):
            assert tuple(arr.shape) == shape
            assert arr.dtype == np.float32

    def test_roundtrip_dict(self):
        p = small_profile(17)
        assert NetworkProfile.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize(
        "field, value",
        [("input_size", 40.9), ("input_size", True), ("adaptive_units", "17"),
         ("adaptive_units", None)],
    )
    def test_from_dict_takes_integers_only(self, field, value):
        d = {**small_profile(17).to_dict(), field: value}
        with pytest.raises(TypeError, match=f"{field} takes integers"):
            NetworkProfile.from_dict(d)

    @pytest.mark.parametrize("part", ["encoder", "decoder"])
    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_from_dict_stage_takes_integers_only(self, part, value):
        d = small_profile(17).to_dict()
        d[part] = [list(s) for s in d[part]]
        d[part][0][0] = value  # a kernel true once read as kernel 1
        with pytest.raises(TypeError, match=f"{part} takes integers"):
            NetworkProfile.from_dict(d)


class TestInit:
    def test_deterministic(self):
        a = init_params(TINY, 9)
        b = init_params(TINY, 9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = init_params(TINY, 10)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_biases_zero_weights_bounded(self):
        params = init_params(TINY, 3)
        for arr, (name, _, fan_in) in zip(params, TINY.parameter_specs()):
            if name.endswith(".bias"):
                assert np.all(arr == 0.0)
            else:
                bound = np.sqrt(6.0 / fan_in)
                assert np.abs(arr).max() <= bound
                assert np.abs(arr).max() > 0.5 * bound  # actually fills the range


class TestForward:
    def test_output_shape(self):
        params = init_params(TINY, 0)
        x = np.random.default_rng(0).uniform(0, 1, (8, 8, 1)).astype(np.float32)
        y, caches = forward(TINY, params, x)
        assert y.shape == (8, 8, 1)
        assert y.dtype == np.float32
        assert len(caches) > 0

    def test_wrong_input_shape_rejected(self):
        params = init_params(TINY, 0)
        with pytest.raises(ValueError, match="expected input"):
            forward(TINY, params, np.zeros((4, 4, 1), dtype=np.float32))

    def test_predict_equals_forward(self):
        params = init_params(TINY, 1)
        x = np.random.default_rng(1).uniform(0, 1, (8, 8, 1)).astype(np.float32)
        assert np.array_equal(predict(TINY, params, x), forward(TINY, params, x)[0])

    def test_adaptive_zero_has_single_dense(self):
        p0 = NetworkProfile(8, ((3, 3, 2), (3, 4, 2)), 0, ((2, 3), (2, 1)))
        names = [n for n, _, _ in p0.parameter_specs()]
        assert "dense0.weight" in names and "dense1.weight" not in names
        params = init_params(p0, 0)
        x = np.random.default_rng(2).uniform(0, 1, (8, 8, 1)).astype(np.float32)
        assert predict(p0, params, x).shape == (8, 8, 1)


class TestBackward:
    def test_directional_derivative(self):
        # whole-chain wiring check: gradient dotted with a random direction
        # against a central difference of the loss. Biases are pushed off
        # zero first so activations sit away from the relu kink, otherwise
        # float32 fd is dominated by kink crossings.
        rng = np.random.default_rng(7)
        names = [n for n, _, _ in TINY.parameter_specs()]
        worst = 0.0
        for seed in range(4):
            params = init_params(TINY, seed)
            for i, n in enumerate(names):
                if n.endswith(".bias"):
                    params[i] = rng.uniform(0.2, 0.6, params[i].shape).astype(np.float32)
            x = rng.uniform(0, 1, (8, 8, 1)).astype(np.float32)
            t = rng.uniform(0, 1, (8, 8, 1)).astype(np.float32)
            out, caches = forward(TINY, params, x)
            _, dl = mse_loss(out, t)
            grads = backward(TINY, params, caches, dl)
            d = [rng.standard_normal(p.shape) for p in params]
            nrm = np.sqrt(sum((di**2).sum() for di in d))
            d = [di / nrm for di in d]
            gd = sum(float((g.astype(np.float64) * di).sum()) for g, di in zip(grads, d))
            h = 1e-2
            lp = mse_loss(
                forward(TINY, [(p + h * di).astype(np.float32) for p, di in zip(params, d)], x)[0], t
            )[0]
            lm = mse_loss(
                forward(TINY, [(p - h * di).astype(np.float32) for p, di in zip(params, d)], x)[0], t
            )[0]
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(gd - fd) / max(abs(fd), 1e-12))
        assert worst < 5e-3

    def test_gradient_count_and_shapes(self):
        params = init_params(TINY, 0)
        x = np.random.default_rng(3).uniform(0, 1, (8, 8, 1)).astype(np.float32)
        out, caches = forward(TINY, params, x)
        grads = backward(TINY, params, caches, np.ones_like(out))
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape and g.dtype == np.float32


class TestNonfiniteProbe:
    def test_clean_network_reports_none(self):
        params = init_params(TINY, 0)
        x = np.full((8, 8, 1), 0.5, dtype=np.float32)
        assert first_nonfinite_layer(TINY, params, x) is None

    def test_poisoned_kernel_is_located(self):
        params = init_params(TINY, 0)
        params[2][0, 0, 0, 0] = np.float32(np.inf)  # enc1 kernel
        x = np.full((8, 8, 1), 0.5, dtype=np.float32)
        assert first_nonfinite_layer(TINY, params, x) == "enc1.conv"

    def test_bad_input_reported(self):
        params = init_params(TINY, 0)
        x = np.full((8, 8, 1), np.nan, dtype=np.float32)
        assert first_nonfinite_layer(TINY, params, x) == "input"
