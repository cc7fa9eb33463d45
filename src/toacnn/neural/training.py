"""Seeded training loop with Adam, plus checkpoint-driven inference."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 42
    batch_size: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")


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


def adam_step(
    state: AdamState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place on params and state.

    The update runs chunk by chunk through two scratch buffers, so each chunk
    stays in cache through every step. Each chunk sees the float32 operations
    of ``m = beta1 * m + (1 - beta1) * g``, ``v = beta2 * v + (1 - beta2) *
    (g * g)`` and ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` in their
    order, so the result is bit for bit that of these expressions, without
    their full-size temporaries.
    """
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    buf_a = np.empty(_ADAM_CHUNK, dtype=np.float32)
    buf_b = np.empty(_ADAM_CHUNK, dtype=np.float32)
    for i, g in enumerate(grads):
        it = np.nditer(
            [g, state.m[i], state.v[i], params[i]],
            flags=["external_loop", "buffered", "zerosize_ok"],
            op_flags=[["readonly"], ["readwrite"], ["readwrite"], ["readwrite"]],
            buffersize=_ADAM_CHUNK,
        )
        with it:
            for gc, m, v, p in it:
                a = buf_a[: gc.size]
                b = buf_b[: gc.size]
                np.multiply(m, beta1, out=m)
                np.multiply(gc, 1.0 - beta1, out=a)
                m += a
                np.multiply(v, beta2, out=v)
                np.multiply(gc, gc, out=a)
                a *= 1.0 - beta2
                v += a
                np.divide(m, c1, out=a)
                a *= lr
                np.divide(v, c2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                p -= a


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
    offending layer.
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

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(samples))
        epoch_losses = []
        for b0 in range(0, len(order), cfg.batch_size):
            batch = order[b0 : b0 + cfg.batch_size]
            acc: list[np.ndarray] | None = None
            for idx in batch:
                x, y = samples[idx]
                out, caches = forward(profile, params, x)
                loss, dloss = mse_loss(out, y)
                if not math.isfinite(loss):
                    layer = first_nonfinite_layer(profile, params, x) or "loss"
                    raise TrainingDiverged(epoch, b0 // cfg.batch_size, layer)
                epoch_losses.append(loss)
                grads = backward(profile, params, caches, dloss)
                if acc is None:
                    acc = grads
                else:
                    for i, g in enumerate(grads):
                        acc[i] += g
            if len(batch) > 1:
                scale = np.float32(1.0 / len(batch))
                for g in acc:
                    g *= scale
            adam_step(state, params, acc, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        history.append(float(np.mean(epoch_losses)))

    ck = Checkpoint(
        profile=profile,
        params=params,
        seed=cfg.seed,
        epochs=cfg.epochs,
        loss_tail=history[-10:],
    )
    return ck, history


def infer(ck: Checkpoint, vf: float) -> DensityField:
    """Predict a design for a volume fraction; output clamped into [0, 1]."""
    if not (0.0 < vf < 1.0):
        raise ValueError(f"vf must lie in (0, 1), got {vf}")
    side = ck.profile.input_size
    x = make_input_image(vf, side, side).astype(np.float32)[:, :, None]
    y = predict(ck.profile, ck.params, x)
    values = np.clip(y[:, :, 0].astype(np.float64), 0.0, 1.0)
    return DensityField(Grid(side, side), values.ravel())
