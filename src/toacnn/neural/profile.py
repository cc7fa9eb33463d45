"""Architecture descriptions and exact parameter accounting.

A profile pins the encoder stages (same-conv + max pool), the adaptive dense
block in the middle, and the mirrored transposed-conv decoder. Parameter
counts are computed arithmetically from shapes so that even the largest
configurations can be sized without allocating anything.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..dataset import json_value


@dataclass(frozen=True)
class NetworkProfile:
    """Encoder/decoder layout plus the adaptive bottleneck width.

    encoder: per stage (kernel, channels, pool); convs are stride-1 "same".
    adaptive_units: hidden width n of the dense block; 0 collapses it to a
    single square layer on the flattened bottleneck.
    decoder: per stage (upsample factor, channels); transposed convs with
    stride = kernel = factor.
    """

    input_size: int
    encoder: tuple[tuple[int, int, int], ...]
    adaptive_units: int
    decoder: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.adaptive_units < 0:
            raise ValueError(f"adaptive_units must be >= 0, got {self.adaptive_units}")
        if not (self.encoder and self.decoder):
            raise ValueError("encoder and decoder need at least one stage each")
        stages = (self.input_size,) + sum(self.encoder + self.decoder, ())
        if min(stages) < 1:
            raise ValueError(f"sizes, kernels, channels, pools and factors must be >= 1: {self}")
        size = self.input_size
        for k, _, pool in self.encoder:
            if k % 2 == 0:
                raise ValueError(f"conv kernels must be odd for same padding, got {k}")
            if size % pool:
                raise ValueError(f"pool {pool} does not divide stage input {size}")
            size //= pool
        up = math.prod(f for f, _ in self.decoder)
        if size * up != self.input_size:
            raise ValueError(
                f"decoder upsampling x{up} does not restore {self.input_size} from {size}"
            )
        if self.decoder[-1][1] != 1:
            raise ValueError("decoder must end in a single channel")

    @property
    def bottleneck_size(self) -> int:
        size = self.input_size
        for _, _, pool in self.encoder:
            size //= pool
        return size

    @property
    def bottleneck_channels(self) -> int:
        return self.encoder[-1][1]

    @property
    def flatten_width(self) -> int:
        return self.bottleneck_size**2 * self.bottleneck_channels

    def parameter_specs(self) -> list[tuple[str, tuple[int, ...], int]]:
        """(name, shape, fan_in) for every tensor, in draw/storage order."""
        specs: list[tuple[str, tuple[int, ...], int]] = []
        cin = 1
        for i, (k, cout, _) in enumerate(self.encoder):
            specs.append((f"enc{i}.kernel", (k, k, cin, cout), k * k * cin))
            specs.append((f"enc{i}.bias", (cout,), k * k * cin))
            cin = cout
        f = self.flatten_width
        n = self.adaptive_units
        if n == 0:
            specs.append(("dense0.weight", (f, f), f))
            specs.append(("dense0.bias", (f,), f))
        else:
            specs.append(("dense0.weight", (f, n), f))
            specs.append(("dense0.bias", (n,), f))
            specs.append(("dense1.weight", (n, f), n))
            specs.append(("dense1.bias", (f,), n))
        cin = self.bottleneck_channels
        for i, (fac, cout) in enumerate(self.decoder):
            specs.append((f"dec{i}.kernel", (fac, fac, cin, cout), cin))
            specs.append((f"dec{i}.bias", (cout,), cin))
            cin = cout
        return specs

    def parameter_count(self) -> int:
        return sum(math.prod(shape) for _, shape, _ in self.parameter_specs())

    def dense_parameter_count(self) -> int:
        """Adaptive-block weights and biases only."""
        return sum(math.prod(shape) for name, shape, _ in self.parameter_specs()
                   if name.startswith("dense"))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkProfile":
        """The profile of a parsed JSON object; every size in it must be a
        JSON integer, or TypeError names the field."""

        def stages(name):
            return tuple(tuple(json_value(v, int, name) for v in s) for s in d[name])

        return cls(
            input_size=json_value(d["input_size"], int, "input_size"),
            encoder=stages("encoder"),
            adaptive_units=json_value(d["adaptive_units"], int, "adaptive_units"),
            decoder=stages("decoder"),
        )


def full_profile(adaptive_units: int = 0) -> NetworkProfile:
    """Full-resolution 100x100 layout: 64/256/512 encoder channels, pools
    2/2/5 down to 5x5x512 (flatten 12800), mirrored 5/2/2 decoder."""
    return NetworkProfile(
        input_size=100,
        encoder=((3, 64, 2), (3, 256, 2), (3, 512, 5)),
        adaptive_units=adaptive_units,
        decoder=((5, 256), (2, 64), (2, 1)),
    )


def small_profile(adaptive_units: int = 64) -> NetworkProfile:
    """Reduced 40x40 layout for tests and quick experiments: 16/32/64
    channels, same pooling schedule, flatten width 256."""
    return NetworkProfile(
        input_size=40,
        encoder=((3, 16, 2), (3, 32, 2), (3, 64, 5)),
        adaptive_units=adaptive_units,
        decoder=((5, 32), (2, 16), (2, 1)),
    )
