"""Volume error and the (vf, n) sweep report.

A report scores two relative percentages of the target quantity: V_err
from volume_error, and Obj_err = 100 |obj(pred) - obj(target)| /
|obj(target)|, both objectives from the config's own ``evaluate``.
Predictions are evaluated as gray fields clamped to [0, 1] under the same
penalized physics as the targets; no thresholding is applied anywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import (
    JsonRecord,
    atomic_write,
    config_fingerprint,
    field_from_pgm_file,
    manifest_bytes,
    read_manifest,
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
class EvalRecord(JsonRecord):
    """One (vf, n) cell of a sweep report; ``error`` replaces the numbers
    when that cell could not be computed."""

    _what = "report line"

    problem: str
    vf: float
    n: int
    v_err: float | None
    obj_err: float | None
    objective_pred: float | None
    objective_target: float | None
    error: str | None = None


def eval_report(
    checkpoints: Sequence[Checkpoint],
    manifest_path: str,
    cfg: SimpConfig,
    vfs: Sequence[float] | None = None,
) -> list[EvalRecord]:
    """EvalRecord for every vf (by default, every solved manifest vf) and
    checkpoint, vf-major and in ascending adaptive width, never raising per
    cell. Two checkpoints of one adaptive width raise ValueError.

    The manifest's config fingerprint must match ``cfg`` so predictions are
    scored against targets produced by the same physics; a mismatch raises
    FormatError up front. A vf absent from the manifest or an evaluator
    failure turns into a per-record error.
    """
    by_width: dict[int, Checkpoint] = {}
    for ck in checkpoints:
        n = ck.profile.adaptive_units
        if n in by_width:
            raise ValueError(f"two checkpoints with adaptive width {n}")
        by_width[n] = ck
    records = read_manifest(manifest_path)
    if not records:
        raise FormatError(f"empty manifest {manifest_path}")
    problem = records[0].problem
    if records[0].fingerprint != config_fingerprint(problem, cfg):
        raise FormatError(
            "manifest was generated with a different solver config; regenerate "
            "the dataset or evaluate with the matching config"
        )
    if vfs is None:
        vfs = [r.vf for r in records if r.error is None]
    base = os.path.dirname(os.path.abspath(manifest_path))

    target_cache: dict[float, tuple[DensityField, float]] = {}
    out: list[EvalRecord] = []
    for vf in vfs:
        for n, ck in sorted(by_width.items()):
            def fail(msg: str) -> EvalRecord:
                return EvalRecord(problem, vf, n, None, None, None, None, error=msg)

            rec = next((r for r in records if abs(r.vf - vf) < 1e-9), None)
            if rec is None:
                out.append(fail("no manifest sample at this volume fraction"))
                continue
            if rec.error is not None:
                out.append(fail(f"target generation failed: {rec.error}"))
                continue
            try:
                if vf not in target_cache:
                    field = field_from_pgm_file(os.path.join(base, rec.target))
                    target_cache[vf] = (field, cfg.evaluate(field))
                target, obj_t = target_cache[vf]
                pred = infer(ck, vf)
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
        # two decimals unless they would print another vf, such as 0.125
        places = 2 if round(r.vf, 2) == r.vf else 3
        head = f"{r.problem:<12}{r.vf:>6.{places}f}{r.n:>8d}"
        if r.error is None:
            lines.append(
                f"{head}{r.v_err:>10.2f}{r.obj_err:>10.2f}"
                f"{r.objective_pred:>14.6g}{r.objective_target:>14.6g}"
            )
        else:
            lines.append(f"{head}{'-':>10}{'-':>10}{'-':>14}{'-':>14}  {r.error}")
    return "\n".join(lines) + "\n"


def write_report(records: Sequence[EvalRecord], path: str) -> None:
    atomic_write(path, manifest_bytes(records))


def read_report(path: str) -> list[EvalRecord]:
    with open(path, "rb") as fh:
        return EvalRecord.from_lines(fh.read())
