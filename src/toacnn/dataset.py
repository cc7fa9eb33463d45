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
import hashlib
import json
import os
import tempfile
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
SOLVER_REVISION = "scatter-assembly-1"

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
    n_black = int(round(vf * width * height))
    img = np.zeros((height, width))
    remaining = n_black
    for row in range(height - 1, -1, -1):
        if remaining <= 0:
            break
        take = min(width, remaining)
        img[row, :take] = 1.0
        remaining -= take
    return img


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


def read_pgm(data: bytes) -> np.ndarray:
    """Inverse of write_pgm; tolerates comments and extra header whitespace."""
    if not data.startswith(b"P5"):
        raise FormatError("not a binary PGM (missing P5 magic)")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit() or len(token) > 9:
            raise FormatError(f"bad PGM header token {token[:20]!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
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


def write_pgm_file(image: np.ndarray, path: str) -> None:
    atomic_write(path, write_pgm(image))


def read_pgm_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


@dataclass(frozen=True)
class ManifestRecord:
    """One sample of a sweep; ``error`` is set instead of the file fields
    when the solver failed for that volume fraction."""

    problem: str
    vf: float
    input: str | None
    target: str | None
    objective: float | None
    iterations: int | None
    fingerprint: str
    error: str | None = None

    def to_json(self) -> str:
        d = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str | bytes) -> "ManifestRecord":
        """One record from a manifest line; bytes are decoded here, so a
        line that is not UTF-8 is malformed like any other."""
        try:
            d = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
            if not isinstance(d, dict) or not all(
                isinstance(d.get(k), (str, type(None)))
                for k in ("problem", "input", "target", "fingerprint", "error")
            ):
                raise TypeError("not an object whose names, paths and errors are strings")
            return cls(
                problem=d["problem"],
                vf=float(d["vf"]),
                input=d.get("input"),
                target=d.get("target"),
                objective=d.get("objective"),
                iterations=d.get("iterations"),
                fingerprint=d["fingerprint"],
                error=d.get("error"),
            )
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise FormatError(f"malformed manifest line: {exc}") from exc


def config_fingerprint(problem: str, cfg) -> str:
    """Hash of the full solver config minus the swept volume fraction, plus
    SOLVER_REVISION."""
    d = dataclasses.asdict(cfg)
    d.pop("vf", None)
    blob = json.dumps(
        {"problem": problem, "config": d, "solver": SOLVER_REVISION},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def manifest_bytes(records: list[ManifestRecord]) -> bytes:
    return "".join(r.to_json() + "\n" for r in records).encode("utf-8")


def write_manifest(records: list[ManifestRecord], path: str) -> None:
    atomic_write(path, manifest_bytes(records))


def read_manifest(path: str, validate: bool = True) -> list[ManifestRecord]:
    """Load and (by default) validate a manifest.

    Validation enforces strictly increasing vf, a single shared fingerprint,
    and existence of every referenced file; violations raise FormatError.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    records = [ManifestRecord.from_json(line) for line in lines if line.strip()]
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
        if r.error is None:
            for rel in (r.input, r.target):
                if rel is None or not os.path.exists(os.path.join(base, rel)):
                    raise FormatError(f"manifest references missing file {rel}")
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

    Resumable: samples whose manifest entry carries the current config
    fingerprint and whose files still exist are not re-solved. Failed solves
    become error records and are retried on the next run. All file writes are
    atomic, and the manifest is rewritten once at the end, unless its bytes
    would not change.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}, expected one of {sorted(PROBLEMS)}")
    cfg_type, solver = PROBLEMS[problem]
    if not isinstance(cfg, cfg_type):
        raise ValueError(f"problem {problem} needs a {cfg_type.__name__}")
    vfs = sweep_values(vf_start, vf_stop, vf_step)
    tags = [f"{round(v * 100):03d}" for v in vfs]
    if len(set(tags)) != len(tags):
        raise ValueError("vf grid collides at 0.01 file-name resolution")
    # every sweep config is checked before the first solve writes a file
    run_cfgs = [dataclasses.replace(cfg, vf=v) for v in vfs]
    fingerprint = config_fingerprint(problem, cfg)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")

    done: dict[float, ManifestRecord] = {}
    if os.path.exists(manifest_path):
        try:
            for r in read_manifest(manifest_path, validate=False):
                if r.fingerprint != fingerprint or r.error is not None:
                    continue
                paths_ok = all(
                    p is not None and os.path.exists(os.path.join(out_dir, p))
                    for p in (r.input, r.target)
                )
                if paths_ok:
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
    try:
        with open(manifest_path, "rb") as fh:
            unchanged = fh.read() == manifest_bytes(records)
    except FileNotFoundError:
        unchanged = False
    if not unchanged:
        write_manifest(records, manifest_path)
    return records


def load_samples(manifest_path: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """(input, target) float32 (H, W, 1) pairs for every non-error record."""
    records = read_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    out = []
    for r in records:
        if r.error is not None:
            continue
        x = read_pgm_file(os.path.join(base, r.input)).astype(np.float32)[:, :, None]
        y = read_pgm_file(os.path.join(base, r.target)).astype(np.float32)[:, :, None]
        out.append((x, y))
    return out


def field_from_pgm_file(path: str) -> DensityField:
    return DensityField.from_image(read_pgm_file(path))
