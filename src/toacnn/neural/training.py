"""Seeded training loop with Adam, plus checkpoint-driven inference."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import helper
from ..dataset import make_input_image
from ..errors import TrainingDiverged
from ..fem import DensityField, Grid
from .checkpoint import Checkpoint
from .layers import mse_loss
from .model import backward, first_nonfinite_layer, forward, init_params, predict
from .profile import NetworkProfile


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    lr: float = 1e-4
    seed: int = 42
    batch_size: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (0.0 < self.lr < math.inf):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


# Adam moment decay rates and the denominator guard.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# A layer's gradients and update go to the helper thread when its weights and
# its output gradient, the arrays that work grows with, hold at least this
# many elements. Smaller layers do theirs together on the calling thread
# after the backward walk: small_profile's jobs take 0.1-0.3 ms each, and
# handing them over slowed its steps by about 5 %, while full_profile's
# streamed layers take 1.2-22 ms.
_STREAM_MIN = 1 << 17
# Elements per Adam chunk: six float32 chunks (g, m, v, p and two scratch
# buffers) take 768 KB, which fits a core's L2 cache.
_ADAM_CHUNK = 1 << 15


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )

    def part(self, indices: list[int]) -> "AdamState":
        """The state of the parameters at ``indices`` alone, at this step
        count; its moments are this state's arrays, so a step on it updates
        them."""
        return AdamState([self.m[i] for i in indices], [self.v[i] for i in indices], self.t)


def adam_step(
    state: AdamState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
) -> None:
    """One bias-corrected Adam update, in place on params and state.

    The update runs chunk by chunk through two scratch buffers, no longer
    than the largest gradient, so each chunk stays in cache through every
    step. Each chunk sees the float32 operations of ``m = beta1 * m + (1 -
    beta1) * g``, ``v = beta2 * v + (1 - beta2) * (g * g)`` and ``p -= lr *
    (m / c1) / (sqrt(v / c2) + eps)`` in their order, with beta1 = 0.9,
    beta2 = 0.999 and eps = 1e-8, so the result is bit for bit that of these
    expressions, without their full-size temporaries. ``_adam_chunk`` holds
    these operations; training's dense weight update runs the same ones.
    """
    state.t += 1
    chunk = min(_ADAM_CHUNK, max([1] + [g.size for g in grads]))
    buf_a = np.empty(chunk, dtype=np.float32)
    buf_b = np.empty(chunk, dtype=np.float32)
    for i, g in enumerate(grads):
        it = np.nditer(
            [g, state.m[i], state.v[i], params[i]],
            flags=["external_loop", "buffered", "zerosize_ok"],
            op_flags=[["readonly"], ["readwrite"], ["readwrite"], ["readwrite"]],
            buffersize=chunk,
        )
        with it:
            for gc, m, v, p in it:
                _adam_chunk(gc, m, v, p, buf_a[: gc.size], buf_b[: gc.size], lr, state.t)


def _adam_chunk(g, m, v, p, a, b, lr, t):
    """Adam's float32 operations at step ``t`` on one chunk, in place on m,
    v and p; a and b are scratch of the chunk's shape."""
    np.multiply(m, _BETA1, out=m)
    np.multiply(g, 1.0 - _BETA1, out=a)
    m += a
    np.multiply(v, _BETA2, out=v)
    np.multiply(g, g, out=a)
    a *= 1.0 - _BETA2
    v += a
    np.divide(m, 1.0 - _BETA1**t, out=a)
    a *= lr
    np.divide(v, 1.0 - _BETA2**t, out=b)
    np.sqrt(b, out=b)
    b += _EPS
    a /= b
    p -= a


def _dense_weight_step(pairs, scale, m, v, p, lr, t):
    """Adam step ``t`` on a dense weight whose gradient is the sum of x ⊗ d
    over the (x, d) ``pairs``, times ``scale`` if given. The gradient is
    formed one row block at a time, with the float32 operations of ``g =
    x1 ⊗ d1; g += x2 ⊗ d2; ...; g *= scale``, and each block takes its Adam
    step at once, so the whole gradient is never held."""
    cols = p.shape[1]
    rows = max(1, _ADAM_CHUNK // cols)
    bufs = np.empty((3, min(rows, p.shape[0]), cols), dtype=np.float32)
    for r0 in range(0, p.shape[0], rows):
        r1 = min(r0 + rows, p.shape[0])
        g, a, b = bufs[:, : r1 - r0]
        x, d = pairs[0]
        np.multiply(x[r0:r1, None], d, out=g)
        for x, d in pairs[1:]:
            np.multiply(x[r0:r1, None], d, out=a)
            g += a
        if scale is not None:
            g *= scale
        _adam_chunk(g, m[r0:r1], v[r0:r1], p[r0:r1], a, b, lr, t)


def _update(layers, acc, n, state, params, lr):
    """Adds one sample's gradients of each layer ``(p, param_grads, cache,
    d)`` in ``layers``, whose parameters are params[p] and params[p + 1],
    into ``acc``, taking each layer off the list so that its cache is freed
    once read; with ``n``, the batch size, the batch mean then updates those
    parameters in one Adam step, and their sums are dropped.

    A dense weight's gradient x ⊗ d is never formed whole: its entry in
    ``acc`` lists the batch's (x, d) pairs, and the update forms it block by
    block (``_dense_weight_step``)."""
    touched = []
    while layers:
        p, param_grads, cache, d = layers.pop(0)
        if params[p].ndim == 2:
            # a dense layer: cache is (x, weight), and the bias gradient is d,
            # copied since the sum below is taken in place
            grads = ([(cache[0], d)], d.copy())
        else:
            grads = param_grads(cache, d)
        del cache, d
        for i, g in zip((p, p + 1), grads):
            if acc[i] is None:
                acc[i] = g
            else:
                acc[i] += g  # a list of pairs grows by one
            touched.append(i)
    if n and touched:
        scale = np.float32(1.0 / n) if n > 1 else None
        dense = [i for i in touched if isinstance(acc[i], list)]
        rest = [i for i in touched if i not in dense]
        if scale is not None:
            for i in rest:
                acc[i] *= scale
        adam_step(state.part(rest), [params[i] for i in rest], [acc[i] for i in rest], lr)
        for i in dense:
            _dense_weight_step(acc[i], scale, state.m[i], state.v[i], params[i], lr, state.t + 1)
        for i in touched:
            acc[i] = None


def train(
    profile: NetworkProfile,
    samples: list[tuple[np.ndarray, np.ndarray]],
    cfg: TrainConfig,
) -> tuple[Checkpoint, list[float]]:
    """SGD over (input, target) image pairs; returns checkpoint and per-epoch
    mean loss history.

    Everything is a pure function of (profile, samples, cfg): He-uniform init
    from cfg.seed, and an independent seeded stream drives the per-epoch
    shuffles. A non-finite loss aborts with the epoch, batch, and first
    offending layer; so does a non-finite parameter after the last step,
    which names the tensor.

    Training takes both cores. As soon as the backward walk has a layer's
    input gradient, that layer's parameter gradients, their sum over the
    batch and, after the batch's last sample, its Adam update become one job
    on the helper thread, while the walk carries on down the network. The
    small layers do the same together on the calling thread once the walk
    is over. Each sample ends when all of its jobs have run. A job comes
    after its layer's input gradient because the update rewrites the
    weights that gradient reads.

    Each array lives only until its last reader is done: the walk pops
    each layer's cache as it passes it, a job holds only the cache and
    output gradient it was handed and lets them go once its gradients are
    summed, and each sum is dropped after its Adam step. A dense weight's
    gradient is never formed whole; the job keeps each sample's (x, d), and
    the update forms the sum of x ⊗ d one row block at a time.

    Every operation and the order of every sum are those of running
    ``backward`` without ``emit`` on each sample, taking the batch mean of
    the gradients and then one ``adam_step``, so the checkpoint is the same
    bytes.
    """
    if not samples:
        raise ValueError("cannot train on an empty sample list")
    side = profile.input_size
    for i, (x, y) in enumerate(samples):
        if x.shape != (side, side, 1) or y.shape != (side, side, 1):
            raise ValueError(
                f"sample {i} shapes {x.shape}/{y.shape} do not match profile size {side}"
            )

    params = init_params(profile, cfg.seed)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    history: list[float] = []

    with helper.Jobs() as jobs:
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(len(samples))
            epoch_losses = []
            for b0 in range(0, len(order), cfg.batch_size):
                batch = order[b0 : b0 + cfg.batch_size]
                acc: list[np.ndarray | None] = [None] * len(params)
                for j, idx in enumerate(batch):
                    x, y = samples[idx]
                    out, caches = forward(profile, params, x)
                    loss, dloss = mse_loss(out, y)
                    if not math.isfinite(loss):
                        layer = first_nonfinite_layer(profile, params, x) or "loss"
                        raise TrainingDiverged(epoch, b0 // cfg.batch_size, layer)
                    epoch_losses.append(loss)
                    # the batch's last sample also scales the sums and updates
                    n = len(batch) if j == len(batch) - 1 else 0
                    small = []

                    def emit(p, param_grads, cache, d, n=n, small=small):
                        if params[p].size + d.size < _STREAM_MIN:
                            small.append((p, param_grads, cache, d))
                        else:
                            job = [(p, param_grads, cache, d)]
                            jobs.submit(_update, job, acc, n, state, params, cfg.lr)

                    backward(profile, params, caches, dloss, emit)
                    _update(small, acc, n, state, params, cfg.lr)
                    jobs.finish()
                state.t += 1
            history.append(float(np.mean(epoch_losses)))
    # the last step's update is seen by no later loss, so check it here
    for p, (name, _, _) in zip(params, profile.parameter_specs()):
        if not np.all(np.isfinite(p)):
            raise TrainingDiverged(cfg.epochs - 1, b0 // cfg.batch_size, name)

    # each array owns its memory, so the checkpoint takes it without a copy
    ck = Checkpoint(
        profile=profile,
        params=params,
        seed=cfg.seed,
        epochs=cfg.epochs,
        loss_tail=history[-10:],
    )
    return ck, history


def infer(ck: Checkpoint, vf: float) -> DensityField:
    """Predict a design for a volume fraction; output clamped into [0, 1].
    The transposed convs take their kernels' product layouts from the
    checkpoint, which builds them on its first prediction."""
    if not (0.0 < vf < 1.0):
        raise ValueError(f"vf must lie in (0, 1), got {vf}")
    side = ck.profile.input_size
    x = make_input_image(vf, side, side).astype(np.float32)[:, :, None]
    y = predict(ck.profile, ck.params, x, ck.layouts)
    values = np.clip(y[:, :, 0].astype(np.float64), 0.0, 1.0)
    return DensityField(Grid(side, side), values.ravel())
