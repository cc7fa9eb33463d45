"""Periodic-cell homogenization and bulk-modulus microstructure design.

The unit cell is the full grid with opposite edges identified. Each of the
three unit test strains (xx, yy, engineering shear) is imposed as an affine
field plus a periodic fluctuation solved on the reduced (master-node) DOFs;
mutual strain energies of the total fields give the homogenized elasticity
matrix. Maximizing the bulk response = minimizing minus the 2x2 upper block
sum is OC-compatible because that objective is monotone in every density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .fem import (
    Assembly,
    DensityField,
    Grid,
    Material,
    edof_matrix,
    element_stiffness,
    simp_derivative,
    simp_moduli,
    solve_many,
    workspace,
)
from .optimize import (ChangeStopConfig, OptResult, build_filter, oc_update, optimize,
                       sensitivity_filter)


@lru_cache(maxsize=None)
def _periodic_edof(nelx: int, nely: int) -> np.ndarray:
    """Element DOF map into the reduced periodic space.

    Master nodes are those with col < nelx and row < nely; a node on the
    right or bottom seam maps to its wrapped master. Reduced node index is
    (col % nelx) * nely + (row % nely).
    """
    edof = edof_matrix(Grid(nelx, nely))
    cols, rows = np.divmod(edof // 2, nely + 1)
    return 2 * ((cols % nelx) * nely + rows % nely) + edof % 2


def _fold(n: int) -> np.ndarray:
    """0, n-1, 1, n-2, ...: neighbours across the wrap-around end up close."""
    return np.column_stack([np.arange(n), n - 1 - np.arange(n)]).ravel()[:n]


@lru_cache(maxsize=None)
def periodic_assembly(grid: Grid) -> Assembly:
    """The Assembly of the reduced periodic DOFs in folded band order.

    Folding the master columns and, within each, the master rows (see
    _fold) puts every node within two columns and two rows of all its
    neighbours, the wrapped ones included, so the band is about twice the
    DOFs of one column wide: 405 at 100x100.
    """
    nodes = (_fold(grid.nelx)[:, None] * grid.nely + _fold(grid.nely)).ravel()
    order = (2 * nodes[:, None] + np.arange(2)).ravel()
    return Assembly.build(_periodic_edof(grid.nelx, grid.nely), 2 * grid.n_elements, order)


def unit_strain_fields(grid: Grid) -> np.ndarray:
    """(3, n_dofs) affine displacements for unit xx, yy, and engineering
    shear strains, evaluated at true node coordinates."""
    xy = grid.node_coords()
    x, y = xy[:, 0], xy[:, 1]
    out = np.zeros((3, grid.n_dofs))
    out[0, 0::2] = x
    out[1, 1::2] = y
    out[2, 0::2] = 0.5 * y
    out[2, 1::2] = 0.5 * x
    return out


def _unit_strains(grid: Grid, ke: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit strain fields per element, (3, n_elements, 8), and their
    products with ``ke``; they depend on grid and material alone."""
    ustar = unit_strain_fields(grid)[:, edof_matrix(grid)]
    out = ustar, ustar @ ke  # ke is symmetric
    for a in out:
        a.flags.writeable = False
    return out


def _reduced_loads(fe: np.ndarray, edof_red: np.ndarray) -> np.ndarray:
    """(3, n_reduced) sums of the element forces ``fe`` on the reduced DOFs."""
    return np.stack([np.bincount(edof_red.ravel(), f.ravel(), 2 * f.shape[0]) for f in fe])


def homogenize(
    rho: DensityField, penal: float, material: Material
) -> tuple[np.ndarray, np.ndarray]:
    """Homogenized elasticity matrix and per-element mutual energies.

    Returns (c_h, q) with c_h = sum_e E_e q[e] and q[e, i, j] the unit-modulus
    mutual energy of total fields i and j on element e, already divided by
    the cell area. The fluctuation problem is self-adjoint, so
    d c_h[i, j] / d rho_e = dE/drho * q[e, i, j] with no extra adjoint solve.
    """
    grid = rho.grid
    ke = element_stiffness(material)
    edof_red = _periodic_edof(grid.nelx, grid.nely)
    moduli = simp_moduli(rho.values, penal, material)
    ustar, ustar_ke = workspace().keep(("unit strains", grid, material),
                                       lambda: _unit_strains(grid, ke))

    # anchor the master node at the origin corner; periodicity leaves only
    # the two translations in the kernel. The matrix and the loads die with
    # the solve: in a solver run its band stays mapped for the next analysis
    # while the energies below are formed.
    w_red = solve_many(
        periodic_assembly(grid).assemble_scaled((moduli, ke)),
        -_reduced_loads(moduli[:, None] * ustar_ke, edof_red),
        np.array([0, 1]),
    )

    area = float(grid.n_elements)
    totals = ustar + w_red[:, edof_red]
    q = np.einsum("ina,jna->nij", totals @ ke, totals) / area
    c_h = np.einsum("n,nij->ij", moduli, q)
    return c_h, q


def bulk_modulus(c_h: np.ndarray) -> float:
    """Plane bulk response: quarter sum of the 2x2 normal-strain block."""
    return float(c_h[:2, :2].sum() / 4.0)


def bulk_objective(
    rho: DensityField, penal: float, material: Material
) -> tuple[float, np.ndarray]:
    """Objective -(c11 + c12 + c21 + c22) and its density gradient.

    The gradient is always <= 0 (the summed mutual energy is a squared form),
    which is what lets the OC update drive this problem.
    """
    c_h, q = homogenize(rho, penal, material)
    obj = -float(c_h[:2, :2].sum())
    dc = simp_derivative(rho.values, penal, material) * q[:, :2, :2].sum(axis=(1, 2))
    return obj, dc


@dataclass(frozen=True)
class MicroConfig(ChangeStopConfig):
    objective_name: ClassVar[str] = "bulk_modulus"

    def evaluate(self, rho: DensityField) -> float:
        return evaluate_micro(rho, self)


def micro_seed_field(cfg: MicroConfig) -> DensityField:
    """Uniform vf with a centered soft disk at half density, rescaled back to
    the target mean. The disk breaks the uniform state, which is a (useless)
    stationary point of the periodic problem."""
    grid = cfg.grid
    r, c = np.meshgrid(np.arange(grid.nely), np.arange(grid.nelx), indexing="ij")
    d2 = (c + 0.5 - grid.nelx / 2.0) ** 2 + (r + 0.5 - grid.nely / 2.0) ** 2
    rho = np.full(grid.n_elements, cfg.vf)
    rho[(d2 < (grid.nelx / 6.0) ** 2).ravel()] = cfg.vf / 2.0
    rho *= cfg.vf / rho.mean()
    np.clip(rho, 0.0, 1.0, out=rho)
    return DensityField(grid, rho)


def evaluate_micro(rho: DensityField, cfg: MicroConfig) -> float:
    """Bulk modulus of a given cell design."""
    if rho.grid != cfg.grid:
        raise ValueError(f"field grid {rho.grid} does not match config grid {cfg.grid}")
    c_h, _ = homogenize(rho, cfg.penal, cfg.material)
    return bulk_modulus(c_h)


def solve_micro(cfg: MicroConfig) -> OptResult:
    """OC-driven bulk maximization; history records (bulk modulus, change)."""
    grid = cfg.grid
    kernel = build_filter(grid, cfg.rmin)
    dv = np.ones(grid.n_elements)

    def step(rho: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        obj, dc = bulk_objective(DensityField(grid, rho), cfg.penal, cfg.material)
        dc = sensitivity_filter(rho, dc, kernel)
        return -obj / 4.0, oc_update(rho, dc, dv, cfg.vf, cfg.move)

    rho = micro_seed_field(cfg).values.copy()
    return optimize(cfg, rho, step, cfg.max_iters, cfg.change_tol)
