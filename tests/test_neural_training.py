"""Adam oracle, training determinism, divergence reporting, inference."""

import gc
import math
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import toacnn
from toacnn import helper
from toacnn.errors import TrainingDiverged
from toacnn.fem import DensityField
from toacnn.neural import layers, model, training
from toacnn.dataset import make_input_image
from toacnn.neural.checkpoint import Checkpoint, save_checkpoint
from toacnn.neural.model import init_params, predict
from toacnn.neural.profile import NetworkProfile, full_profile, small_profile
from toacnn.neural.training import AdamState, TrainConfig, adam_step, infer, train

PROFILE = NetworkProfile(
    input_size=8, encoder=((3, 3, 2), (3, 4, 2)), adaptive_units=5, decoder=((2, 3), (2, 1))
)


def samples_for(profile, count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = rng.uniform(0, 1, (profile.input_size, profile.input_size, 1)).astype(np.float32)
        y = rng.uniform(0, 1, (profile.input_size, profile.input_size, 1)).astype(np.float32)
        out.append((x, y))
    return out


class TestAdam:
    def test_constant_gradient_steps_by_lr(self):
        # bias correction makes every step exactly lr for a constant unit
        # gradient (up to eps), independent of t
        p = [np.array([1.0], dtype=np.float32)]
        g = [np.array([1.0], dtype=np.float32)]
        st = AdamState.zeros_like(p)
        for k in range(1, 6):
            adam_step(st, p, g, lr=0.1)
            assert st.t == k
            assert p[0][0] == pytest.approx(1.0 - 0.1 * k, abs=1e-5)

    def test_hand_computed_two_steps(self):
        p = [np.array([2.0], dtype=np.float32)]
        st = AdamState.zeros_like(p)
        adam_step(st, p, [np.array([4.0], dtype=np.float32)], lr=0.5)
        # m=0.4, v=0.016, mhat=4, vhat=16 -> step 0.5 * 4/4 = 0.5
        assert p[0][0] == pytest.approx(1.5, abs=1e-6)
        adam_step(st, p, [np.array([-4.0], dtype=np.float32)], lr=0.5)
        m2 = 0.9 * 0.4 + 0.1 * -4.0
        v2 = 0.999 * 0.016 + 0.001 * 16.0
        mhat = m2 / (1 - 0.9**2)
        vhat = v2 / (1 - 0.999**2)
        assert p[0][0] == pytest.approx(1.5 - 0.5 * mhat / (np.sqrt(vhat) + 1e-8), abs=1e-6)

    def test_descends_quadratic(self):
        p = [np.array([3.0], dtype=np.float32)]
        st = AdamState.zeros_like(p)
        for _ in range(400):
            adam_step(st, p, [2.0 * p[0]], lr=0.05)
        assert abs(p[0][0]) < 1e-2

    def test_in_place_update_equals_expression_bitwise(self):
        def reference_step(m, v, params, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
            c1 = 1.0 - beta1**t
            c2 = 1.0 - beta2**t
            for i, g in enumerate(grads):
                m[i] = beta1 * m[i] + (1.0 - beta1) * g
                v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
                mhat = m[i] / c1
                vhat = v[i] / c2
                params[i] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(np.float32, copy=False)

        rng = np.random.default_rng(7)
        # (300, 250) spans several update chunks
        shapes = [(3, 3, 2, 5), (5,), (17, 4), (1,), (300, 250)]
        params = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        ref_params = [p.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in params]
        ref_v = [np.zeros_like(p) for p in params]
        st = AdamState.zeros_like(params)
        for t in range(1, 8):
            grads = [(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).astype(np.float32)
                     for s in shapes]
            # a transposed view, as the transposed-conv kernel gradient is
            grads[0] = np.ascontiguousarray(grads[0].transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
            adam_step(st, params, grads, lr=3e-3)
            reference_step(ref_m, ref_v, ref_params, grads, t, lr=3e-3)
            for got, want in zip(params + st.m + st.v, ref_params + ref_m + ref_v):
                assert got.dtype == np.float32
                assert got.tobytes() == want.tobytes()

    def test_state_shapes_follow_params(self):
        params = init_params(PROFILE, 0)
        st = AdamState.zeros_like(params)
        assert all(m.shape == p.shape for m, p in zip(st.m, params))
        assert all(v.shape == p.shape for v, p in zip(st.v, params))
        assert st.t == 0


class TestTrain:
    def test_loss_decreases(self):
        samples = samples_for(PROFILE, 3)
        cfg = TrainConfig(epochs=60, lr=2e-3, seed=0)
        _, history = train(PROFILE, samples, cfg)
        assert len(history) == 60
        assert history[-1] < 0.5 * history[0]

    def test_deterministic(self):
        samples = samples_for(PROFILE, 3)
        cfg = TrainConfig(epochs=5, lr=1e-3, seed=11)
        ck1, h1 = train(PROFILE, samples, cfg)
        ck2, h2 = train(PROFILE, samples, cfg)
        assert h1 == h2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ck1.params, ck2.params))

    def test_checkpoint_metadata(self):
        samples = samples_for(PROFILE, 2)
        cfg = TrainConfig(epochs=12, lr=1e-3, seed=5)
        ck, history = train(PROFILE, samples, cfg)
        assert ck.seed == 5 and ck.epochs == 12
        assert ck.loss_tail == history[-10:]

    def test_batching_changes_step_count_not_determinism(self):
        samples = samples_for(PROFILE, 4)
        a, _ = train(PROFILE, samples, TrainConfig(epochs=3, lr=1e-3, seed=2, batch_size=2))
        b, _ = train(PROFILE, samples, TrainConfig(epochs=3, lr=1e-3, seed=2, batch_size=2))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.params, b.params))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(PROFILE, [], TrainConfig(epochs=1))

    def test_shape_mismatch_rejected(self):
        bad = [(np.zeros((4, 4, 1), np.float32), np.zeros((4, 4, 1), np.float32))]
        with pytest.raises(ValueError, match="sample 0"):
            train(PROFILE, bad, TrainConfig(epochs=1))

    def test_divergence_reported_with_location(self):
        samples = samples_for(PROFILE, 2)
        with pytest.raises(TrainingDiverged) as exc:
            train(PROFILE, samples, TrainConfig(epochs=50, lr=1e12, seed=0))
        err = exc.value
        assert err.epoch >= 0 and err.batch >= 0
        assert isinstance(err.layer, str) and err.layer

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0)


_THREAD_PROBE = """
import hashlib

import numpy as np

from toacnn.neural.checkpoint import save_checkpoint
from toacnn.neural.profile import small_profile
from toacnn.neural.training import TrainConfig, train

rng = np.random.default_rng(0)
samples = [
    ((rng.uniform(0, 1, (40, 40, 1)) > 0.5).astype(np.float32),
     rng.uniform(0, 1, (40, 40, 1)).astype(np.float32))
    for _ in range(3)
]
ck, _ = train(small_profile(64), samples, TrainConfig(epochs=2, lr=1e-3, seed=3))
print(hashlib.sha256(save_checkpoint(ck)).hexdigest())
"""


def test_small_checkpoint_does_not_depend_on_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toacnn.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 1
    assert outputs[0] == outputs[1]


def test_full_profile_step_does_not_depend_on_the_split(monkeypatch):
    # one Adam step over a batch of two samples, with and without the
    # helper thread taking half of the large products
    profile = full_profile(64)
    samples = samples_for(profile, 2, seed=4)
    cfg = TrainConfig(epochs=1, lr=1e-3, seed=5, batch_size=2)
    split, _ = train(profile, samples, cfg)
    monkeypatch.setattr(layers, "_matmul", np.matmul)
    whole, _ = train(profile, samples, cfg)
    assert [p.tobytes() for p in split.params] == [p.tobytes() for p in whole.params]


@pytest.mark.parametrize(
    "profile, batch_size",
    [(full_profile(64), 1), (full_profile(64), 3), (small_profile(64), 1), (small_profile(0), 1)],
    ids=["full64-b1", "full64-b3", "small64-b1", "small0-b1"],
)
def test_streamed_jobs_give_the_inline_checkpoint(monkeypatch, profile, batch_size):
    samples = samples_for(profile, 3, seed=6)
    cfg = TrainConfig(epochs=1 if profile.input_size == 100 else 3, lr=1e-3, seed=8,
                      batch_size=batch_size)
    default = save_checkpoint(train(profile, samples, cfg)[0])

    def trained(floor):
        monkeypatch.setattr(training, "_STREAM_MIN", floor)
        return save_checkpoint(train(profile, samples, cfg)[0])

    # every layer's job on the helper thread, and every job on the calling one
    assert trained(0) == trained(math.inf) == default


class TestFailingJob:
    def reference(self):
        samples = samples_for(small_profile(64), 2, seed=9)
        cfg = TrainConfig(epochs=2, lr=1e-3, seed=4)
        return samples, cfg, save_checkpoint(train(small_profile(64), samples, cfg)[0])

    @pytest.mark.parametrize("failing_call", [1, 5, 8])
    def test_adam_error_reaches_the_caller_and_leaves_nothing_behind(
        self, monkeypatch, failing_call
    ):
        samples, cfg, want = self.reference()
        error = RuntimeError("update failed")
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise error
            adam_step(*args)

        # every layer's job goes to the helper thread
        monkeypatch.setattr(training, "_STREAM_MIN", 0)
        monkeypatch.setattr(training, "adam_step", failing)
        with pytest.raises(RuntimeError) as exc:
            train(small_profile(64), samples, cfg)
        assert exc.value is error
        # a call submitted now runs after everything queued before it
        ran = len(calls)
        helper.submit(int).result(timeout=60)
        assert len(calls) == ran
        monkeypatch.undo()
        assert save_checkpoint(train(small_profile(64), samples, cfg)[0]) == want

    def test_walk_error_with_jobs_queued_leaves_nothing_behind(self, monkeypatch):
        samples, cfg, want = self.reference()
        error = ValueError("input gradient failed")
        calls = []

        def slow_first(*args):
            calls.append(args)
            if len(calls) == 1:
                time.sleep(0.2)  # the jobs after it stay queued
            adam_step(*args)

        def failing(*args):
            raise error

        # the decoder and dense jobs are queued or running when the first
        # conv's input gradient fails
        monkeypatch.setattr(training, "_STREAM_MIN", 0)
        monkeypatch.setattr(training, "adam_step", slow_first)
        monkeypatch.setattr(model, "conv2d_backward", failing)
        with pytest.raises(ValueError) as exc:
            train(small_profile(64), samples, cfg)
        assert exc.value is error
        helper.submit(int).result(timeout=60)  # runs after everything queued
        assert len(calls) == 1
        monkeypatch.undo()
        assert save_checkpoint(train(small_profile(64), samples, cfg)[0]) == want


def test_concurrent_jobs_all_run_and_leave_the_helper_idle():
    # four threads share the one helper thread, taking back queued calls in
    # finish, under a short switch interval; each call runs exactly once
    done = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def worker(k):
            with helper.Jobs() as jobs:
                for i in range(200):
                    jobs.submit(done.append, (k, i))
                    if i % 7 == 6:
                        jobs.finish()

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == [(k, i) for k in range(4) for i in range(200)]


_HELPER_PRODUCT_PROBE = """
import numpy as np

from toacnn import helper
from toacnn.neural import layers

rng = np.random.default_rng(0)
a = rng.standard_normal((1024, 512)).astype(np.float32)
b = rng.standard_normal((512, 512)).astype(np.float32)
assert a.shape[0] * a.shape[1] * b.shape[1] >= layers._SPLIT_MIN_MACS
whole = helper.submit(layers._matmul, a, b).result(timeout=60)
print(whole.tobytes() == (a @ b).tobytes())
"""


def test_large_product_inside_a_helper_job_stays_whole():
    # a split on the helper thread would queue its half behind itself; the
    # probe runs in its own process so a hang fails the test and ends there
    src = os.path.dirname(os.path.dirname(os.path.abspath(toacnn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _HELPER_PRODUCT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


class TestInfer:
    def test_output_is_density_field(self):
        ck, _ = train(PROFILE, samples_for(PROFILE, 2), TrainConfig(epochs=2, lr=1e-3))
        field = infer(ck, 0.5)
        assert isinstance(field, DensityField)
        assert field.grid.nelx == field.grid.nely == 8
        assert field.values.min() >= 0.0 and field.values.max() <= 1.0

    def test_vf_bounds_checked(self):
        ck, _ = train(PROFILE, samples_for(PROFILE, 2), TrainConfig(epochs=1, lr=1e-3))
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                infer(ck, bad)

    def test_deterministic(self):
        ck, _ = train(PROFILE, samples_for(PROFILE, 2), TrainConfig(epochs=2, lr=1e-3))
        a = infer(ck, 0.3)
        b = infer(ck, 0.3)
        assert a.values.tobytes() == b.values.tobytes()


def layout_checkpoint(profile, seed=8):
    """He-initialised tensors with random biases, so that every layer sees a
    varied input. At n = 0 the full profile's square dense weight (655 MB)
    stays zero and its bias alone feeds the decoder."""
    rng = np.random.default_rng(seed)
    if profile.adaptive_units == 0 and profile.flatten_width > 1024:
        params = init_params(full_profile(64), seed)
        params[6:10] = [np.zeros((12800, 12800), np.float32), np.zeros(12800, np.float32)]
    else:
        params = init_params(profile, seed)
    for arr, (name, _, _) in zip(params, profile.parameter_specs()):
        if name.endswith(".bias"):
            arr[:] = rng.uniform(-0.5, 1.0, arr.shape)
    return Checkpoint(profile, params, seed, epochs=1)


class TestProductLayouts:
    @pytest.mark.parametrize(
        "profile",
        [full_profile(64), full_profile(0), small_profile(64), small_profile(0)],
        ids=["full64", "full0", "small64", "small0"],
    )
    def test_cached_layout_gives_the_uncached_bytes(self, profile):
        ck = layout_checkpoint(profile)
        side = profile.input_size
        for vf in (0.3, 0.45):
            x = make_input_image(vf, side, side).astype(np.float32)[:, :, None]
            uncached = predict(profile, ck.params, x)
            assert predict(profile, ck.params, x, ck.layouts).tobytes() == uncached.tobytes()
            expected = np.clip(uncached[:, :, 0].astype(np.float64), 0.0, 1.0).ravel()
            assert infer(ck, vf).values.tobytes() == expected.tobytes()

    def test_built_once_per_checkpoint(self, monkeypatch):
        built, handed = [], []
        layout = layers.tconv_layout
        forward = model.tconv_forward

        def counted(kernels):
            built.append(kernels)
            return layout(kernels)

        def recording(x, kernels, bias, ready=None):
            handed.append(ready)
            return forward(x, kernels, bias, ready)

        monkeypatch.setattr(layers, "tconv_layout", counted)
        monkeypatch.setattr(model, "tconv_layout", counted)
        monkeypatch.setattr(model, "tconv_forward", recording)
        ck = layout_checkpoint(small_profile(64))
        infer(ck, 0.3)
        infer(ck, 0.6)
        decoder = len(small_profile(64).decoder)
        assert len(built) == decoder
        assert len(handed) == 2 * decoder
        assert all(m is not None for m in handed)
        assert all(a is b for a, b in zip(handed[:decoder], handed[decoder:]))

    def test_layouts_die_with_the_checkpoint(self):
        ck = layout_checkpoint(small_profile(64))
        infer(ck, 0.3)
        refs = [weakref.ref(m) for m in ck.layouts.values()]
        assert all(r() is not None for r in refs)
        del ck
        gc.collect()
        assert all(r() is None for r in refs)

