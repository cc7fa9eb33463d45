"""The problem interface and density-update machinery shared by the solvers.

``SimpConfig`` is the base of every problem config: the grid, target volume
fraction, SIMP penalty, filter radius, move limit and material, plus the
problem's objective name and its ``evaluate`` re-analysis. ``optimize`` is
the one optimizer loop: each problem hands it a starting field and a
``step`` closure that analyzes a design and returns its objective and the
updated densities; the driver tracks the max change, the history and the
stop rule, and re-analyzes the final design. The analysis, filter and update
calls stay inside each problem's ``step``: the benchmark tracer
(``perfbench/tracing.py``) times them where each problem module looks them up.

Also here: the cone filter on sensitivities, the optimality-criteria update
with volume bisection, a single-constraint method-of-moving-asymptotes step,
and the smoothed Heaviside projection. All functions are pure numpy and
deterministic; density vectors use the flat row-major element order from
:mod:`toacnn.fem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, ClassVar

import numpy as np
import scipy.sparse as sp

from .fem import DensityField, Grid, Material, Workspace, off_heap

# MMA constants: initial asymptote span, adaptation factors, bound offset,
# and the small positive term that keeps the objective approximation strictly
# convex. raa0 enters only the objective terms so that rescaling the
# constraint rescales its multiplier exactly and leaves the step unchanged.
_ASYINIT = 0.5
_ASYINCR = 1.2
_ASYDECR = 0.7
_ALBEFA = 0.1
_RAA0 = 1e-5
# Floor on the density in the sensitivity filter's denominator.
_FILTER_GAMMA = 1e-3
# Elastic penalty on constraint violation; caps the dual multiplier so an
# infeasible subproblem (possible only from an infeasible iterate, where the
# move box cannot restore feasibility in one step) degrades into the largest
# feasibility-restoring move instead of a runaway bracket search.
_ELASTIC = 1e9


@dataclass(frozen=True)
class OptResult:
    """Outcome of one optimization run.

    ``history`` holds one ``(objective, change)`` pair per iteration, where
    ``objective`` is the value analyzed at the start of that iteration and
    ``change`` the max density move applied at its end. ``objective`` is the
    final design re-analyzed through its config's ``evaluate``, so
    evaluating the returned field reproduces it exactly.
    """

    field: DensityField
    objective: float
    iterations: int
    history: list[tuple[float, float]]


@dataclass(frozen=True)
class SimpConfig:
    """Fields every problem shares; subclasses add their own after these.

    A subclass sets ``objective_name`` and implements ``evaluate``.
    """

    objective_name: ClassVar[str]

    nelx: int = 100
    nely: int = 100
    vf: float = 0.5
    penal: float = 3.0
    rmin: float = 2.4
    move: float = 0.2
    material: Material = field(default_factory=Material)

    def __post_init__(self):
        if not (0.0 < self.vf < 1.0):
            raise ValueError(f"vf must lie in (0, 1), got {self.vf}")
        if not (0.0 < self.move <= 1.0):
            raise ValueError(f"move must lie in (0, 1], got {self.move}")
        if not self.penal >= 1.0:
            raise ValueError(f"penal must be at least 1, got {self.penal}")
        if not (0.0 < self.rmin < math.inf):
            raise ValueError(f"rmin must be positive and finite, got {self.rmin}")

    @property
    def grid(self) -> Grid:
        return Grid(self.nelx, self.nely)

    def evaluate(self, rho: DensityField) -> float:
        """The problem's objective for a given design."""
        raise NotImplementedError


@dataclass(frozen=True)
class ChangeStopConfig(SimpConfig):
    """A SimpConfig whose run stops once the max density change falls below
    ``change_tol``, or after ``max_iters`` iterations (see optimize)."""

    max_iters: int = 200
    change_tol: float = 0.01

    def __post_init__(self):
        super().__post_init__()
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.change_tol >= 0.0:
            raise ValueError(f"change_tol must be non-negative, got {self.change_tol}")


def optimize(
    cfg: SimpConfig,
    rho: np.ndarray,
    step: Callable[[np.ndarray, int], tuple[float, np.ndarray]],
    max_iters: int,
    change_tol: float = 0.0,
) -> OptResult:
    """Run ``step(rho, iteration)`` -> (objective, new rho) from ``rho``.

    Stops after ``max_iters`` iterations or once the max density change
    falls below ``change_tol`` (never, at the default 0), then re-analyzes
    the final design with ``cfg.evaluate``. ``iteration`` is 1-based. The
    run, final analysis included, has one Workspace: each analysis reuses
    the memory of the one before, and the run's memory is released when it
    returns or raises.
    """
    history: list[tuple[float, float]] = []
    iters = 0
    with Workspace():
        for iters in range(1, max_iters + 1):
            obj, rho_new = step(rho, iters)
            change = float(np.abs(rho_new - rho).max())
            rho = rho_new
            history.append((obj, change))
            if change < change_tol:
                break
        final = DensityField(cfg.grid, rho)
        return OptResult(final, cfg.evaluate(final), iters, history)


@dataclass(frozen=True)
class FilterKernel:
    """Precomputed cone-weight matrix for one grid and radius."""

    weights: sp.csr_array  # (n_elements, n_elements), w_ej = max(0, rmin - dist)
    weight_sums: np.ndarray  # row sums of `weights`


@lru_cache(maxsize=None)
def build_filter(grid: Grid, rmin: float) -> FilterKernel:
    """Cone weights between element centers closer than ``rmin``.

    Weights depend only on center distance, so each integer offset (dx, dy)
    with dx^2 + dy^2 < rmin^2 contributes one constant diagonal band. An
    offset as long as the grid pairs no elements, so the offsets stop short
    of that and a radius wider than the grid costs no more than the grid.
    Built once per grid and radius and shared, so its arrays are read-only.
    """
    if not (0.0 < rmin < math.inf):
        raise ValueError(f"rmin must be positive and finite, got {rmin}")
    nelx, nely = grid.nelx, grid.nely
    eid = np.arange(grid.n_elements).reshape(nely, nelx)
    reach_x = min(int(math.ceil(rmin)), nelx - 1)
    reach_y = min(int(math.ceil(rmin)), nely - 1)
    rows, cols, data = [], [], []
    for dy in range(-reach_y, reach_y + 1):
        for dx in range(-reach_x, reach_x + 1):
            dist = math.hypot(dx, dy)
            if dist >= rmin:
                continue
            r0, r1 = max(0, -dy), min(nely, nely - dy)
            c0, c1 = max(0, -dx), min(nelx, nelx - dx)
            if r0 >= r1 or c0 >= c1:
                continue
            src = eid[r0:r1, c0:c1].ravel()
            dst = eid[r0 + dy : r1 + dy, c0 + dx : c1 + dx].ravel()
            rows.append(src)
            cols.append(dst)
            data.append(np.full(src.size, rmin - dist))
    w = sp.coo_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_elements, grid.n_elements),
    ).tocsr()
    # kept for the life of the process: narrow indices, off the heap
    index = np.int32 if w.nnz < 2**31 else np.int64
    csr = (off_heap(w.data), off_heap(w.indices.astype(index)), off_heap(w.indptr.astype(index)))
    return FilterKernel(sp.csr_array(csr, shape=w.shape), off_heap(np.asarray(w.sum(axis=1)).ravel()))


def sensitivity_filter(rho: np.ndarray, dc: np.ndarray, kernel: FilterKernel) -> np.ndarray:
    """Density-weighted cone smoothing of a sensitivity field.

    dc_hat_e = sum_j w_ej rho_j dc_j / (max(gamma, rho_e) * sum_j w_ej);
    gamma = 1e-3 guards the division where the density reaches zero.
    """
    return (kernel.weights @ (rho * dc)) / (np.maximum(_FILTER_GAMMA, rho) * kernel.weight_sums)


def oc_update(
    rho: np.ndarray,
    dc: np.ndarray,
    dv: np.ndarray,
    vf_target: float,
    move: float = 0.2,
) -> np.ndarray:
    """Optimality-criteria step with bisection on the volume multiplier.

    Requires dc <= 0 (compliance-type monotone objective); raises ValueError
    otherwise since the fixed-point rule rho * sqrt(-dc / (lambda dv)) is
    meaningless for ascent directions. The returned field satisfies the box
    and move limits exactly and hits mean(rho) = vf_target to well below the
    1e-4 contract whenever the limits allow it at all.
    """
    if np.any(dc > 1e-12):
        raise ValueError(
            "oc_update needs non-positive objective sensitivities; "
            "use mma_update for non-monotone objectives"
        )
    if np.any(dv <= 0.0):
        raise ValueError("volume sensitivities must be positive")
    lo = np.maximum(0.0, rho - move)
    hi = np.minimum(1.0, rho + move)
    if hi.mean() <= vf_target:
        return hi
    if lo.mean() >= vf_target:
        return lo
    base = rho * np.sqrt(np.maximum(-dc, 0.0) / dv)

    def volume(lam: float) -> float:
        return float(np.clip(base / math.sqrt(lam), lo, hi).mean())

    l1, l2 = 1e-40, 1e40  # volume(l1) ~ hi side, volume(l2) ~ lo side
    for _ in range(256):
        lmid = math.sqrt(l1 * l2)
        vol = volume(lmid)
        if vol > vf_target:
            l1 = lmid
        else:
            l2 = lmid
        if abs(vol - vf_target) <= 1e-9:
            break
    lam = math.sqrt(l1 * l2)
    return np.clip(base / math.sqrt(lam), lo, hi)


@dataclass
class MmaState:
    """Carry-over between successive mma_update calls; single owner."""

    low: np.ndarray | None = None
    upp: np.ndarray | None = None
    xold1: np.ndarray | None = None
    xold2: np.ndarray | None = None
    kkt_residual: float | None = None


def mma_update(
    state: MmaState,
    rho: np.ndarray,
    dobj: np.ndarray,
    constraint: float,
    dconstraint: np.ndarray,
    iteration: int,
    move: float = 0.2,
) -> tuple[np.ndarray, MmaState]:
    """One moving-asymptotes step for a single inequality constraint <= 0.

    The convex subproblem is solved exactly in its dual: with one constraint
    the dual is one-dimensional and the primal minimizer has a closed form
    per element, so a bisection on the multiplier drives the KKT residual to
    the 1e-9 contract. ``iteration`` is 1-based; the first two iterations use
    the fixed initial asymptote span. Densities live in [0, 1], so the
    variable range is 1 and drops out of every asymptote and move term.
    """
    if not (np.all(np.isfinite(dobj)) and np.all(np.isfinite(dconstraint))):
        raise ValueError("non-finite gradients passed to mma_update")
    if not math.isfinite(constraint):
        raise ValueError("non-finite constraint value passed to mma_update")
    n = rho.size

    if iteration <= 2 or state.xold1 is None or state.xold2 is None:
        low = rho - _ASYINIT
        upp = rho + _ASYINIT
    else:
        zzz = (rho - state.xold1) * (state.xold1 - state.xold2)
        factor = np.ones(n)
        factor[zzz > 0.0] = _ASYINCR
        factor[zzz < 0.0] = _ASYDECR
        low = rho - factor * (state.xold1 - state.low)
        upp = rho + factor * (state.upp - state.xold1)
        low = np.clip(low, rho - 10.0, rho - 0.01)
        upp = np.clip(upp, rho + 0.01, rho + 10.0)

    alfa = np.maximum(np.maximum(0.0, low + _ALBEFA * (rho - low)), rho - move)
    beta = np.minimum(np.minimum(1.0, upp - _ALBEFA * (upp - rho)), rho + move)

    ux1 = upp - rho
    xl1 = rho - low
    ux2 = ux1 * ux1
    xl2 = xl1 * xl1
    op = np.maximum(dobj, 0.0)
    om = np.maximum(-dobj, 0.0)
    cp = np.maximum(dconstraint, 0.0)
    cm = np.maximum(-dconstraint, 0.0)
    p0 = (1.001 * op + 0.001 * om + _RAA0) * ux2
    q0 = (0.001 * op + 1.001 * om + _RAA0) * xl2
    pc = (1.001 * cp + 0.001 * cm) * ux2
    qc = (0.001 * cp + 1.001 * cm) * xl2
    b = float(np.sum(pc / ux1 + qc / xl1) - constraint)

    def primal(lam: float) -> np.ndarray:
        sp_ = np.sqrt(p0 + lam * pc)
        sq_ = np.sqrt(q0 + lam * qc)
        return np.clip((low * sp_ + upp * sq_) / (sp_ + sq_), alfa, beta)

    def theta(lam: float) -> float:
        x = primal(lam)
        return float(np.sum(pc / (upp - x) + qc / (x - low)) - b)

    if theta(0.0) <= 0.0:
        lam_star = 0.0
    elif theta(_ELASTIC) > 0.0:
        lam_star = _ELASTIC  # elastic branch: violation absorbed by y >= 0
    else:
        hi = 1.0
        while hi < _ELASTIC and theta(hi) > 0.0:
            hi *= 2.0
        hi = min(hi, _ELASTIC)
        lo_l = 0.0
        for _ in range(128):
            mid = 0.5 * (lo_l + hi)
            # theta(lo_l) > 0 >= theta(hi) hold throughout, so once mid
            # rounds onto an end every later step would leave both unchanged
            if mid == lo_l or mid == hi:
                break
            if theta(mid) > 0.0:
                lo_l = mid
            else:
                hi = mid
        lam_star = hi

    x_new = primal(lam_star)
    th = theta(lam_star)
    if lam_star == _ELASTIC:
        th -= max(0.0, th)  # y* = max(0, g~) makes the elastic KKT exact
    kkt = abs(lam_star * th) + max(0.0, th)
    new_state = MmaState(
        low=low,
        upp=upp,
        xold1=rho.copy(),
        xold2=None if state.xold1 is None else state.xold1.copy(),
        kkt_residual=kkt,
    )
    return x_new, new_state


def smooth_heaviside(
    rho: np.ndarray | float, eta: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed threshold projection and its derivative.

    H(rho) = (tanh(beta eta) + tanh(beta (rho - eta)))
           / (tanh(beta eta) + tanh(beta (1 - eta)));
    H(0) = 0 and H(1) = 1 hold exactly in floating point because tanh is odd.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    rho = np.asarray(rho, dtype=float)
    c1 = math.tanh(beta * eta)
    den = c1 + math.tanh(beta * (1.0 - eta))
    t = np.tanh(beta * (rho - eta))
    h = (c1 + t) / den
    dh = beta * (1.0 - t * t) / den
    return h, dh
