"""Binary checkpoint format.

Layout: 8-byte magic, little-endian u64 header length, canonical JSON header
(sorted keys, no whitespace), then every tensor's raw float32 little-endian
payload in declaration order. The header pins the profile, seed, epoch count, the
loss tail, and each tensor's name and shape, so a file is self-describing
and a load-save round trip is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..dataset import atomic_write
from ..errors import FormatError
from .profile import NetworkProfile

MAGIC = b"TOACNN01"


@dataclass
class Checkpoint:
    profile: NetworkProfile
    params: list[np.ndarray]
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
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
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
    try:
        header = json.loads(data[16 : 16 + head_len].decode("utf-8"))
        profile = NetworkProfile.from_dict(header["profile"])
        seed = int(header["seed"])
        epochs = int(header["epochs"])
        loss_tail = [float(v) for v in header["loss_tail"]]
        tensors = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
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
