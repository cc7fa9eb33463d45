"""Binary checkpoint format.

Layout: 8-byte magic, little-endian u64 header length, canonical JSON header
(sorted keys, no whitespace), then every tensor's raw float32 little-endian
payload in declaration order. The header pins the profile, seed, epoch count, the
loss tail, and each tensor's name and shape, so a file is self-describing
and a load-save round trip is byte-identical. Every number in the header is
read as the JSON type it was written as: an integer field takes a JSON
integer and no bool, and the loss tail takes numbers.

A checkpoint's tensors never change once it is built, so what is derived
from them, such as the product layouts inference needs, is built once and
kept with the checkpoint.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..dataset import atomic_write, canonical_json, json_value, parse_json
from ..errors import FormatError
from .model import product_layouts
from .profile import NetworkProfile

MAGIC = b"TOACNN01"


@dataclass(eq=False)
class Checkpoint:
    """A trained network: its profile, its tensors in ``parameter_specs()``
    order, and how it was trained. Two checkpoints compare equal only when
    they are the same object; compare ``save_checkpoint`` bytes instead.

    The checkpoint owns its tensors and makes them read-only when it is
    built. An array that shares another's memory is copied first, so that
    no view can change it; one that owns its memory, as ``train``'s and
    ``load_checkpoint``'s do, is made read-only in place, without a copy.
    """

    profile: NetworkProfile
    params: tuple[np.ndarray, ...]
    seed: int
    epochs: int
    loss_tail: list[float] = field(default_factory=list)

    def __post_init__(self):
        specs = self.profile.parameter_specs()
        if len(self.params) != len(specs):
            raise ValueError(
                f"expected {len(specs)} tensors, got {len(self.params)}"
            )
        for arr, (name, shape, _) in zip(self.params, specs):
            if tuple(arr.shape) != shape:
                raise ValueError(f"tensor {name} has shape {arr.shape}, expected {shape}")
        owned = tuple(arr if arr.flags.owndata else arr.copy() for arr in self.params)
        for arr in owned:
            arr.flags.writeable = False
        self.params = owned

    @cached_property
    def layouts(self) -> dict[int, np.ndarray]:
        """``model.product_layouts`` of the tensors, built on first use and
        freed with the checkpoint."""
        return product_layouts(self.profile, self.params)


def save_checkpoint(ck: Checkpoint) -> bytes:
    header = {
        "epochs": ck.epochs,
        "loss_tail": [float(v) for v in ck.loss_tail],
        "profile": ck.profile.to_dict(),
        "seed": ck.seed,
        "tensors": [
            {"name": name, "shape": list(arr.shape)}
            for arr, (name, _, _) in zip(ck.params, ck.profile.parameter_specs())
        ],
    }
    head = canonical_json(header).encode("utf-8")
    chunks = [MAGIC, struct.pack("<Q", len(head)), head]
    for arr in ck.params:
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(chunks)


def load_checkpoint(data: bytes) -> Checkpoint:
    if len(data) < 16 or data[:8] != MAGIC:
        raise FormatError("not a checkpoint: bad magic")
    (head_len,) = struct.unpack("<Q", data[8:16])
    if 16 + head_len > len(data):
        raise FormatError("checkpoint truncated inside header")
    header = parse_json(data[16 : 16 + head_len], "checkpoint header")
    try:
        profile = NetworkProfile.from_dict(header["profile"])
        seed = json_value(header["seed"], int, "seed")
        epochs = json_value(header["epochs"], int, "epochs")
        loss_tail = [json_value(v, float, "loss_tail") for v in header["loss_tail"]]
        tensors = [
            (t["name"], tuple(json_value(v, int, "shape") for v in t["shape"]))
            for t in header["tensors"]
        ]
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc}") from exc

    specs = profile.parameter_specs()
    if len(tensors) != len(specs):
        raise FormatError(
            f"header lists {len(tensors)} tensors, profile defines {len(specs)}"
        )
    params = []
    offset = 16 + head_len
    for entry, (name, shape, _) in zip(tensors, specs):
        if entry != (name, shape):
            raise FormatError(
                f"tensor mismatch: header has {entry}, profile expects {name} {shape}"
            )
        nbytes = 4 * math.prod(shape)
        if offset + nbytes > len(data):
            raise FormatError(f"checkpoint truncated inside tensor {name}")
        arr = np.frombuffer(data[offset : offset + nbytes], dtype="<f4").reshape(shape)
        params.append(arr.astype(np.float32, copy=True))
        offset += nbytes
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes after last tensor")
    for arr, (name, _, _) in zip(params, specs):
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"tensor {name} contains non-finite values")
    return Checkpoint(profile, params, seed, epochs, loss_tail)


def save_checkpoint_file(ck: Checkpoint, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    atomic_write(path, save_checkpoint(ck))


def load_checkpoint_file(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read())
