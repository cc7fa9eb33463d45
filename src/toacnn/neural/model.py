"""Assemble a profile into a runnable network: init, forward, backward.

Parameters live in a flat list of float32 arrays in the exact order of
``profile.parameter_specs()``; gradients come back in the same order. The
forward/backward walks share one op plan so the two can never drift apart,
and the forward and the non-finite probe share one walk over that plan.
A forward may be handed each transposed conv's kernels ready in the layout
of its product (``product_layouts``), as inference is by its checkpoint.
The backward walk hands each layer's parameter gradients out as soon as it
has that layer's input gradient, so training can compute them, and apply
the layer's update, on the helper thread while the walk goes on.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .layers import (
    conv2d_backward,
    conv2d_forward,
    conv2d_param_grads,
    dense_backward,
    dense_forward,
    dense_param_grads,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    tconv_backward,
    tconv_forward,
    tconv_layout,
    tconv_param_grads,
)
from .profile import NetworkProfile


@lru_cache(maxsize=None)
def _plan(profile: NetworkProfile) -> tuple:
    ops = []
    p = 0
    for i, (_, _, pool) in enumerate(profile.encoder):
        ops.append(("conv", f"enc{i}.conv", p, None))
        p += 2
        ops.append(("relu", f"enc{i}.relu", None, None))
        ops.append(("pool", f"enc{i}.pool", None, pool))
    ops.append(("flatten", "flatten", None, None))
    ops.append(("dense", "dense0", p, None))
    p += 2
    if profile.adaptive_units > 0:
        ops.append(("relu", "dense.relu", None, None))
        ops.append(("dense", "dense1", p, None))
        p += 2
    bs = profile.bottleneck_size
    ops.append(("unflatten", "unflatten", None, (bs, bs, profile.bottleneck_channels)))
    for i, _ in enumerate(profile.decoder):
        ops.append(("tconv", f"dec{i}.tconv", p, None))
        p += 2
        ops.append(("relu", f"dec{i}.relu", None, None))
    return tuple(ops)


def init_params(profile: NetworkProfile, seed: int) -> list[np.ndarray]:
    """He-uniform weights U(-sqrt(6/fan_in), +sqrt(6/fan_in)), zero biases.

    One seeded generator drawn in declaration order makes the whole parameter set a
    pure function of (profile, seed).
    """
    rng = np.random.default_rng(seed)
    params = []
    for name, shape, fan_in in profile.parameter_specs():
        if name.endswith(".bias"):
            params.append(np.zeros(shape, dtype=np.float32))
        else:
            bound = np.sqrt(6.0 / fan_in)
            params.append(rng.uniform(-bound, bound, size=shape).astype(np.float32))
    return params


def product_layouts(
    profile: NetworkProfile, params: Sequence[np.ndarray]
) -> dict[int, np.ndarray]:
    """Each transposed conv's kernels as the matrix of its forward product
    (``tconv_layout``), keyed by the kernels' index in ``params``."""
    return {p: tconv_layout(params[p]) for kind, _, p, _ in _plan(profile) if kind == "tconv"}


def _walk(profile: NetworkProfile, params: Sequence[np.ndarray], x: np.ndarray, layouts=None):
    """Run the plan op by op, yielding (op name, output, cache) after each."""
    for kind, name, p, aux in _plan(profile):
        if kind == "conv":
            x, c = conv2d_forward(x, params[p], params[p + 1])
        elif kind == "relu":
            x, c = relu_forward(x)
        elif kind == "pool":
            x, c = maxpool_forward(x, aux)
        elif kind == "flatten":
            c = x.shape
            x = x.reshape(-1)
        elif kind == "dense":
            x, c = dense_forward(x, params[p], params[p + 1])
        elif kind == "unflatten":
            c = x.shape
            x = x.reshape(aux)
        else:
            layout = None if layouts is None else layouts[p]
            x, c = tconv_forward(x, params[p], params[p + 1], layout)
        yield name, x, c


def forward(
    profile: NetworkProfile,
    params: Sequence[np.ndarray],
    x: np.ndarray,
    layouts: dict[int, np.ndarray] | None = None,
    keep_caches: bool = True,
) -> tuple[np.ndarray, list]:
    """Run the network; returns (output, caches) for a later backward.
    ``layouts``, if given, is ``product_layouts(profile, params)``: the
    transposed convs then take their kernels' matrices from it. With
    ``keep_caches`` false, each op's cache is dropped as the walk passes it
    and the list comes back empty."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape != (profile.input_size, profile.input_size, 1):
        raise ValueError(
            f"expected input {(profile.input_size, profile.input_size, 1)}, got {x.shape}"
        )
    caches = []
    for _, x, c in _walk(profile, params, x, layouts):
        if keep_caches:
            caches.append(c)
    return x, caches


def backward(
    profile: NetworkProfile,
    params: list[np.ndarray],
    caches: list,
    d_out: np.ndarray,
    emit=None,
) -> list[np.ndarray] | None:
    """Gradient of the scalar loss w.r.t. every parameter, given dL/d(output).

    The walk runs the input-gradient chain from the last op to the first,
    and consumes ``caches``: it pops each op's cache as it reaches that op,
    so the list ends empty and no cache outlives its last reader.
    Once it has a layer's input gradient it calls ``emit(p, param_grads,
    cache, d)`` for that layer, whose parameters are ``params[p]`` and
    ``params[p + 1]``: ``param_grads(cache, d)`` returns their gradients.
    The walk keeps no reference to that cache or to ``d`` after the call,
    and reads no layer's parameters after it, so ``emit`` may update them,
    on any thread. Without ``emit`` the gradients come back as one list in
    parameter order. The first op is a conv on the input image, so it gets
    no input gradient.
    """
    grads: list[np.ndarray | None] | None = None
    if emit is None:
        grads = [None] * len(params)

        def emit(p, param_grads, cache, d):
            grads[p], grads[p + 1] = param_grads(cache, d)

    d = np.asarray(d_out, dtype=np.float32)
    for kind, _, p, aux in reversed(_plan(profile)[1:]):
        cache = caches.pop()
        if kind == "conv":
            dx = conv2d_backward(cache, d)
            emit(p, conv2d_param_grads, cache, d)
            d = dx
        elif kind == "relu":
            d = relu_backward(cache, d)
        elif kind == "pool":
            d = maxpool_backward(cache, d)
        elif kind in ("flatten", "unflatten"):
            d = d.reshape(cache)
        elif kind == "dense":
            dx = dense_backward(cache, d)
            emit(p, dense_param_grads, cache, d)
            d = dx
        else:
            dx = tconv_backward(cache, d)
            emit(p, tconv_param_grads, cache, d)
            d = dx
    emit(0, conv2d_param_grads, caches.pop(), d)
    return grads


def predict(
    profile: NetworkProfile,
    params: Sequence[np.ndarray],
    x: np.ndarray,
    layouts: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Forward pass that drops each op's cache as it goes."""
    y, _ = forward(profile, params, x, layouts, keep_caches=False)
    return y


def first_nonfinite_layer(
    profile: NetworkProfile, params: list[np.ndarray], x: np.ndarray
) -> str | None:
    """Name of the first op whose output contains a non-finite value."""
    x = np.asarray(x, dtype=np.float32)
    if not np.all(np.isfinite(x)):
        return "input"
    for name, y, _ in _walk(profile, params, x):
        if not np.all(np.isfinite(y)):
            return name
    return None
