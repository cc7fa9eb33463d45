"""Dataset generation: volume-fraction sweeps, PGM images, JSONL manifests.

Input images encode a volume fraction as a flat fill: the requested share of
pixels turns solid starting from the bottom row, left to right. Density maps
to 8-bit gray with solid = black (byte = round(255 (1 - rho))), so files
render the way designs are usually shown. A manifest line per sample records
where the files live, the solver objective, and a fingerprint of the solver
config so stale datasets are detected instead of silently reused.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import tempfile
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cantilever import CantileverConfig, solve_cantilever
from .errors import FormatError, SolverFailure
from .fem import DensityField
from .microstructure import MicroConfig, solve_micro
from .pressure import PressureConfig, solve_arch

# Names the linear-solver code that produced a dataset's targets. A solver
# change that moves targets, even in their last bits, changes this tag, so a
# resume re-solves the old samples instead of mixing them with new ones.
SOLVER_REVISION = "split-band-1"

PROBLEMS = {
    "cantilever": (CantileverConfig, solve_cantilever),
    "arch": (PressureConfig, solve_arch),
    "micro": (MicroConfig, solve_micro),
}


def make_input_image(vf: float, width: int, height: int) -> np.ndarray:
    """(height, width) image whose mean equals round(vf * N) / N pixels of
    solid (value 1), filled from the bottom row upward, left to right."""
    if not (0.0 <= vf <= 1.0):
        raise ValueError(f"vf must lie in [0, 1], got {vf}")
    order = np.arange(width * height).reshape(height, width)[::-1]
    return (order < int(round(vf * width * height))).astype(float)


def write_pgm(image: np.ndarray) -> bytes:
    """Binary 8-bit PGM; density 1 (solid) maps to byte 0 (black)."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if image.min() < 0.0 or image.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")
    h, w = image.shape
    payload = np.rint(255.0 * (1.0 - image)).astype(np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + payload.tobytes()


# P5, then width, height and maxval, each after whitespace or comments that
# run from # to the end of their line (a CR or an LF, as in Netpbm), then
# one whitespace byte
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d{1,9})" * 3 + rb"\s")


def read_pgm(data: bytes) -> np.ndarray:
    """Inverse of write_pgm; tolerates comments and extra header whitespace."""
    if not data.startswith(b"P5"):
        raise FormatError("not a binary PGM (missing P5 magic)")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FormatError("bad PGM header tokens: want three numbers of at most 9 digits")
    w, h, maxval = map(int, header.groups())
    pos = header.end()
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    if w == 0 or h == 0:
        raise FormatError(f"PGM image is {w}x{h}, with no pixels")
    if len(data) - pos != w * h:
        raise FormatError(f"PGM payload has {len(data) - pos} bytes, expected {w * h}")
    raw = np.frombuffer(data[pos:], dtype=np.uint8).reshape(h, w)
    return 1.0 - raw.astype(float) / 255.0


def atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file plus rename so readers never see partial data."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_json(obj) -> str:
    """The one JSON form written to disk: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_json(data: str | bytes, what: str):
    """JSON text or UTF-8 bytes to a value; any undecodable or malformed
    input, however deep or long, raises FormatError naming ``what``."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"malformed {what}: {exc}") from exc


def write_pgm_file(image: np.ndarray, path: str) -> None:
    atomic_write(path, write_pgm(image))


def read_pgm_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


# the JSON values each field type accepts, and their name in messages
_JSON_KINDS = {str: ((str,), "strings"), float: ((int, float), "numbers"), int: ((int,), "integers")}


def json_value(v, kind: type, name: str):
    """A parsed JSON value as ``kind`` (str, float or int), if it is one:
    a float takes any JSON number, and a bool is no number. Anything else
    raises TypeError naming the field ``name``."""
    kinds, noun = _JSON_KINDS[kind]
    if isinstance(v, bool) or not isinstance(v, kinds):
        got = "null" if v is None else type(v).__name__
        raise TypeError(f"{name} takes {noun}, not {got}")
    return kind(v)


class JsonRecord:
    """Base of the frozen dataclasses stored one canonical JSON line each.

    Writing drops the None fields. Reading checks every field against its
    declared type: a float takes any JSON number, and a bool is no number.
    A field typed ``X | None``, ``error`` aside, may be absent or null only
    on a line that carries ``error``. Each subclass names its lines in ``_what``.
    """

    def to_json(self) -> str:
        return canonical_json({k: v for k, v in dataclasses.asdict(self).items() if v is not None})

    @classmethod
    @functools.cache
    def _schema(cls) -> tuple:
        """(name, type, nullable) per field; the arguments of a type
        ``X | None`` are (X, None)."""
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        types = [typing.get_args(hints[f.name]) or (hints[f.name],) for f in fields]
        return tuple((f.name, t[0], len(t) > 1) for f, t in zip(fields, types))

    @classmethod
    def from_json(cls, line: str | bytes):
        """One record from a line of text or UTF-8 bytes."""
        d = parse_json(line, cls._what)
        values = {}
        try:
            if not isinstance(d, dict):
                raise TypeError("not an object")
            for name, kind, nullable in cls._schema():
                v = d.get(name)
                if v is None and nullable and (name == "error" or d.get("error") is not None):
                    values[name] = None
                else:
                    values[name] = json_value(v, kind, name)
        except (TypeError, OverflowError) as exc:
            raise FormatError(f"malformed {cls._what}: {exc}") from exc
        return cls(**values)

    @classmethod
    def from_lines(cls, data: bytes) -> list:
        """A record for every non-blank line of ``data``."""
        return [cls.from_json(line) for line in data.splitlines() if line.strip()]


@dataclass(frozen=True)
class ManifestRecord(JsonRecord):
    """One sample of a sweep; ``error`` is set instead of the file fields
    when the solver failed for that volume fraction."""

    _what = "manifest line"

    problem: str
    vf: float
    input: str | None
    target: str | None
    objective: float | None
    iterations: int | None
    fingerprint: str
    error: str | None = None

    def files_exist(self, base: str) -> bool:
        """Whether the input and target files lie under ``base``."""
        return all(p is not None and os.path.exists(os.path.join(base, p))
                   for p in (self.input, self.target))


def config_fingerprint(problem: str, cfg) -> str:
    """Hash of the full solver config minus the swept volume fraction, plus
    SOLVER_REVISION."""
    d = dataclasses.asdict(cfg)
    d.pop("vf", None)
    blob = canonical_json({"problem": problem, "config": d, "solver": SOLVER_REVISION})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def manifest_bytes(records: typing.Sequence[JsonRecord]) -> bytes:
    """One line per record: the form of both the manifest and the report."""
    return "".join(r.to_json() + "\n" for r in records).encode("utf-8")


def write_manifest(records: list[ManifestRecord], path: str) -> None:
    atomic_write(path, manifest_bytes(records))


def read_manifest(path: str, validate: bool = True) -> list[ManifestRecord]:
    """Load and (by default) validate a manifest.

    Validation enforces strictly increasing vf, a single shared fingerprint,
    and existence of every referenced file; violations raise FormatError.
    """
    with open(path, "rb") as fh:
        records = ManifestRecord.from_lines(fh.read())
    if not validate:
        return records
    base = os.path.dirname(os.path.abspath(path))
    prev = -1.0
    fingerprints = {r.fingerprint for r in records}
    if len(fingerprints) > 1:
        raise FormatError(f"manifest mixes {len(fingerprints)} config fingerprints")
    for r in records:
        if r.vf <= prev:
            raise FormatError(f"manifest vf not strictly increasing at {r.vf}")
        prev = r.vf
        if r.error is None and not r.files_exist(base):
            raise FormatError(f"manifest references missing file {r.input} or {r.target}")
    return records


def sweep_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic vf grid, rounded to cancel float drift."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    count = int(round((stop - start) / step)) + 1
    vals = [round(start + i * step, 9) for i in range(count)]
    return [v for v in vals if v <= stop + 1e-9]


def generate_dataset(
    problem: str,
    cfg,
    out_dir: str,
    vf_start: float = 0.01,
    vf_stop: float = 0.95,
    vf_step: float = 0.01,
    threads: int = 1,
) -> list[ManifestRecord]:
    """Run the solver across a vf sweep and write images plus a manifest.

    Fewer than one thread, or a start above the stop, raise ValueError
    before any file is written. Resumable: samples whose manifest entry
    carries the current config fingerprint and whose files still exist are
    not re-solved. Failed solves become error records and are retried on
    the next run. All file writes are atomic, and the manifest is rewritten
    once at the end, unless its bytes would not change.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}, expected one of {sorted(PROBLEMS)}")
    cfg_type, solver = PROBLEMS[problem]
    if not isinstance(cfg, cfg_type):
        raise ValueError(f"problem {problem} needs a {cfg_type.__name__}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if not vf_start <= vf_stop:
        raise ValueError(f"vf start {vf_start} lies above vf stop {vf_stop}")
    # file names resolve vf to 0.01, 101 names over [0, 1]: a longer sweep
    # must collide, and is refused before its list is built
    if vf_step > 0.0 and (vf_stop - vf_start) / vf_step >= 101:
        raise ValueError("vf grid collides at 0.01 file-name resolution")
    vfs = sweep_values(vf_start, vf_stop, vf_step)
    tags = [f"{round(v * 100):03d}" for v in vfs]
    if len(set(tags)) != len(tags):
        raise ValueError("vf grid collides at 0.01 file-name resolution")
    # every sweep config is checked before the first solve writes a file
    run_cfgs = [dataclasses.replace(cfg, vf=v) for v in vfs]
    fingerprint = config_fingerprint(problem, cfg)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")

    try:
        with open(manifest_path, "rb") as fh:
            previous = fh.read()
    except FileNotFoundError:
        previous = b""
    done: dict[float, ManifestRecord] = {}
    try:
        for r in ManifestRecord.from_lines(previous):
            if r.fingerprint == fingerprint and r.error is None and r.files_exist(out_dir):
                done[r.vf] = r
    except FormatError:
        pass  # unreadable manifest: regenerate everything

    def run_one(run_cfg, tag: str) -> ManifestRecord:
        vf = run_cfg.vf
        if vf in done:
            return done[vf]
        grid = run_cfg.grid
        input_name = f"input_{tag}.pgm"
        target_name = f"target_{tag}.pgm"
        try:
            result = solver(run_cfg)
        except SolverFailure as exc:
            return ManifestRecord(
                problem, vf, None, None, None, None, fingerprint, error=str(exc)
            )
        write_pgm_file(make_input_image(vf, grid.nelx, grid.nely), os.path.join(out_dir, input_name))
        write_pgm_file(result.field.as_image(), os.path.join(out_dir, target_name))
        return ManifestRecord(
            problem,
            vf,
            input_name,
            target_name,
            result.objective,
            result.iterations,
            fingerprint,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(run_one, run_cfgs, tags))
    else:
        records = [run_one(c, t) for c, t in zip(run_cfgs, tags)]

    # a resume that changed nothing leaves the manifest's inode and mtime alone
    if previous != manifest_bytes(records):
        write_manifest(records, manifest_path)
    return records


def load_samples(manifest_path: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """(input, target) float32 (H, W, 1) pairs for every non-error record."""
    base = os.path.dirname(os.path.abspath(manifest_path))

    def load(rel: str) -> np.ndarray:
        return read_pgm_file(os.path.join(base, rel)).astype(np.float32)[:, :, None]

    return [(load(r.input), load(r.target)) for r in read_manifest(manifest_path) if r.error is None]


def field_from_pgm_file(path: str) -> DensityField:
    return DensityField.from_image(read_pgm_file(path))
