"""Minimum-compliance design of a tip-loaded cantilever.

Left edge fully clamped, unit downward point load at mid-height of the right
edge, SIMP interpolation, density-weighted sensitivity filtering, and
optimality-criteria updates. Runs until the max density change drops below
``change_tol`` or ``max_iters`` is reached. cantilever_analysis is the one
forward chain, shared by the optimizer step and evaluate_cantilever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import fem  # solve_many via the module: the benchmark tracer wraps fem.solve_many
from .fem import DensityField, assemble_stiffness, compliance, simp_derivative
from .optimize import (ChangeStopConfig, OptResult, build_filter, oc_update, optimize,
                       sensitivity_filter)


@dataclass(frozen=True)
class CantileverConfig(ChangeStopConfig):
    objective_name: ClassVar[str] = "compliance"

    load_magnitude: float = 1.0

    def evaluate(self, rho: DensityField) -> float:
        return evaluate_cantilever(rho, self)


def cantilever_system(cfg: CantileverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Load vector and fixed DOFs: clamp the left edge, pull the right-edge
    mid-height node down."""
    grid = cfg.grid
    f = np.zeros(grid.n_dofs)
    tip = grid.node_id(grid.nelx, grid.nely // 2)
    f[2 * tip + 1] = -cfg.load_magnitude
    fixed = np.arange(2 * (grid.nely + 1))  # all DOFs of column-0 nodes
    return f, fixed


def cantilever_analysis(rho: DensityField, cfg: CantileverConfig) -> tuple[np.ndarray, np.ndarray]:
    """The forward chain: assembly, then the solve under the cantilever
    system. Returns ``(f, u)``, the load and the displacements."""
    f, fixed = cantilever_system(cfg)
    k = assemble_stiffness(rho, cfg.penal, cfg.material)
    return f, fem.solve_many(k, f, fixed)[0]


def evaluate_cantilever(rho: DensityField, cfg: CantileverConfig) -> float:
    """Compliance f^T u of a given design under the cantilever system."""
    if rho.grid != cfg.grid:
        raise ValueError(f"field grid {rho.grid} does not match config grid {cfg.grid}")
    f, u = cantilever_analysis(rho, cfg)
    return float(f @ u)


def solve_cantilever(cfg: CantileverConfig) -> OptResult:
    grid = cfg.grid
    mat = cfg.material
    kernel = build_filter(grid, cfg.rmin)
    dv = np.ones(grid.n_elements)

    def step(rho: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        rho_field = DensityField(grid, rho)
        _, u = cantilever_analysis(rho_field, cfg)
        c, ce = compliance(u, rho_field, cfg.penal, mat)
        dc = simp_derivative(rho, cfg.penal, mat) * ce
        dc = sensitivity_filter(rho, dc, kernel)
        return c, oc_update(rho, dc, dv, cfg.vf, cfg.move)

    rho = np.full(grid.n_elements, cfg.vf)
    return optimize(cfg, rho, step, cfg.max_iters, cfg.change_tol)
