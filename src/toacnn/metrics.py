"""Volume error and the (vf, n) sweep report.

A report scores two relative percentages of the target quantity: V_err
from volume_error, and Obj_err = 100 |obj(pred) - obj(target)| /
|obj(target)|, both objectives from the config's own ``evaluate``.
Predictions are evaluated as gray fields clamped to [0, 1] under the same
penalized physics as the targets; no thresholding is applied anywhere.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import (
    ManifestRecord,
    atomic_write,
    config_fingerprint,
    read_manifest,
    read_pgm_file,
)
from .errors import FormatError, ToacnnError
from .fem import DensityField
from .neural.checkpoint import Checkpoint
from .neural.training import infer
from .optimize import SimpConfig


def volume_error(pred: DensityField, target: DensityField) -> float:
    """100 |mean(pred) - mean(target)| / mean(target)."""
    if pred.grid != target.grid:
        raise ValueError(f"grid mismatch: {pred.grid} vs {target.grid}")
    mt = float(target.values.mean())
    if mt == 0.0:
        raise ValueError("target volume fraction is zero; relative error undefined")
    return 100.0 * abs(float(pred.values.mean()) - mt) / mt


@dataclass(frozen=True)
class EvalRecord:
    """One (vf, n) cell of a sweep report; ``error`` replaces the numbers
    when that cell could not be computed."""

    problem: str
    vf: float
    n: int
    v_err: float | None
    obj_err: float | None
    objective_pred: float | None
    objective_target: float | None
    error: str | None = None

    def to_json(self) -> str:
        d = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str | bytes) -> "EvalRecord":
        """One record from a report line; bytes are decoded here, so a line
        that is not UTF-8 is malformed like any other."""
        try:
            d = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
            return cls(
                problem=d["problem"],
                vf=float(d["vf"]),
                n=int(d["n"]),
                v_err=d.get("v_err"),
                obj_err=d.get("obj_err"),
                objective_pred=d.get("objective_pred"),
                objective_target=d.get("objective_target"),
                error=d.get("error"),
            )
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise FormatError(f"malformed report line: {exc}") from exc


def _find_record(records: list[ManifestRecord], vf: float) -> ManifestRecord | None:
    for r in records:
        if abs(r.vf - vf) < 1e-9:
            return r
    return None


def eval_report(
    checkpoints: dict[int, Checkpoint],
    manifest_path: str,
    cfg: SimpConfig,
    vfs: Sequence[float],
) -> list[EvalRecord]:
    """EvalRecord for every vf and checkpoint, vf-major and in ascending
    adaptive width, never raising per cell.

    The manifest's config fingerprint must match ``cfg`` so predictions are
    scored against targets produced by the same physics; a mismatch raises
    FormatError up front. A vf absent from the manifest or an evaluator
    failure turns into a per-record error.
    """
    for n, ck in checkpoints.items():
        if ck.profile.adaptive_units != n:
            raise ValueError(
                f"checkpoint under key {n} has adaptive width {ck.profile.adaptive_units}"
            )
    records = read_manifest(manifest_path)
    if not records:
        raise FormatError(f"empty manifest {manifest_path}")
    problem = records[0].problem
    if records[0].fingerprint != config_fingerprint(problem, cfg):
        raise FormatError(
            "manifest was generated with a different solver config; regenerate "
            "the dataset or evaluate with the matching config"
        )
    base = os.path.dirname(os.path.abspath(manifest_path))

    target_cache: dict[float, tuple[DensityField, float]] = {}
    out: list[EvalRecord] = []
    for vf in vfs:
        for n in sorted(checkpoints):
            def fail(msg: str) -> EvalRecord:
                return EvalRecord(problem, vf, n, None, None, None, None, error=msg)

            rec = _find_record(records, vf)
            if rec is None:
                out.append(fail("no manifest sample at this volume fraction"))
                continue
            if rec.error is not None:
                out.append(fail(f"target generation failed: {rec.error}"))
                continue
            try:
                if vf not in target_cache:
                    field = DensityField.from_image(
                        read_pgm_file(os.path.join(base, rec.target))
                    )
                    target_cache[vf] = (field, cfg.evaluate(field))
                target, obj_t = target_cache[vf]
                pred = infer(checkpoints[n], vf)
                if pred.grid != target.grid:
                    out.append(fail(
                        f"prediction grid {pred.grid} does not match target {target.grid}"
                    ))
                    continue
                obj_p = cfg.evaluate(pred)
                ve = volume_error(pred, target)
                oe = 100.0 * abs(obj_p - obj_t) / abs(obj_t)
                if not all(np.isfinite([ve, oe, obj_p, obj_t])):
                    out.append(fail("non-finite metric"))
                    continue
                out.append(EvalRecord(problem, vf, n, ve, oe, obj_p, obj_t))
            except (ToacnnError, ValueError) as exc:
                out.append(fail(str(exc)))
    return out


def render_report(records: Sequence[EvalRecord]) -> str:
    """Fixed-width text table, one line per record."""
    lines = [
        f"{'problem':<12}{'vf':>6}{'n':>8}{'V_err%':>10}{'Obj_err%':>10}"
        f"{'obj_pred':>14}{'obj_target':>14}  note"
    ]
    for r in records:
        if r.error is None:
            lines.append(
                f"{r.problem:<12}{r.vf:>6.2f}{r.n:>8d}{r.v_err:>10.2f}{r.obj_err:>10.2f}"
                f"{r.objective_pred:>14.6g}{r.objective_target:>14.6g}"
            )
        else:
            lines.append(
                f"{r.problem:<12}{r.vf:>6.2f}{r.n:>8d}{'-':>10}{'-':>10}"
                f"{'-':>14}{'-':>14}  {r.error}"
            )
    return "\n".join(lines) + "\n"


def write_report(records: Sequence[EvalRecord], path: str) -> None:
    body = "".join(r.to_json() + "\n" for r in records)
    atomic_write(path, body.encode("utf-8"))


def read_report(path: str) -> list[EvalRecord]:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    return [EvalRecord.from_json(line) for line in lines if line.strip()]
