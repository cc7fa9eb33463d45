"""Minimum-compliance design of a tip-loaded cantilever.

Left edge fully clamped, unit downward point load at mid-height of the right
edge, SIMP interpolation, density-weighted sensitivity filtering, and
optimality-criteria updates. Runs until the max density change drops below
``change_tol`` or ``max_iters`` is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import fem  # solve_many via the module: the benchmark tracer wraps fem.solve_many
from .fem import DensityField, assemble_stiffness, compliance, element_stiffness
from .optimize import OptResult, SimpConfig, build_filter, oc_update, optimize, sensitivity_filter


@dataclass(frozen=True)
class CantileverConfig(SimpConfig):
    objective_name: ClassVar[str] = "compliance"

    max_iters: int = 200
    change_tol: float = 0.01
    load_magnitude: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

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


def evaluate_cantilever(rho: DensityField, cfg: CantileverConfig) -> float:
    """Compliance f^T u of a given design under the cantilever system."""
    if rho.grid != cfg.grid:
        raise ValueError(f"field grid {rho.grid} does not match config grid {cfg.grid}")
    f, fixed = cantilever_system(cfg)
    k = assemble_stiffness(rho, cfg.penal, cfg.material)
    u = fem.solve_many(k, f, fixed)[0]
    return float(f @ u)


def solve_cantilever(cfg: CantileverConfig) -> OptResult:
    grid = cfg.grid
    mat = cfg.material
    ke = element_stiffness(mat)
    kernel = build_filter(grid, cfg.rmin)
    f, fixed = cantilever_system(cfg)
    dv = np.ones(grid.n_elements)

    def step(rho: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        rho_field = DensityField(grid, rho)
        k = assemble_stiffness(rho_field, cfg.penal, mat, ke)
        u = fem.solve_many(k, f, fixed)[0]
        c, ce = compliance(u, rho_field, cfg.penal, mat, ke)
        dc = -cfg.penal * rho ** (cfg.penal - 1.0) * (mat.e0 - mat.emin) * ce
        dc = sensitivity_filter(rho, dc, kernel)
        return c, oc_update(rho, dc, dv, cfg.vf, cfg.move)

    rho = np.full(grid.n_elements, cfg.vf)
    return optimize(cfg, rho, step, cfg.max_iters, cfg.change_tol)
