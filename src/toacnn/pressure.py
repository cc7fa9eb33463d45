"""Pressure-loaded arch design: Darcy pressure diffusion with drainage,
consistent pressure-to-load transfer, and compliance minimization by MMA.

The fluid model treats density as an impermeability field: flow conductivity
drops from K_max in void to eps_k * K_max in solid, while a drainage term
d_s * H(rho) kills pressure inside solid material over a prescribed depth.
The resulting pressure gradient loads the structure, so the load moves with
the design and its sensitivity needs the adjoint term below. arch_analysis
is the one forward chain, shared by the optimizer step and evaluate_arch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import fem  # solve_many via the module: the benchmark tracer wraps fem.solve_many
from .fem import (
    _GAUSS_1D,
    AssembledMatrix,
    Assembly,
    DensityField,
    Factor,
    Grid,
    _shape_gradients,
    assemble_stiffness,
    compliance,
    edof_matrix,
    element_nodes,
    factorize,
    simp_derivative,
    solve_many,  # noqa: F401  (re-exported: the benchmark tracer wraps it here)
)
from .optimize import (
    MmaState,
    OptResult,
    SimpConfig,
    build_filter,
    mma_update,
    optimize,
    sensitivity_filter,
    smooth_heaviside,
)


def _shape_values(xi, eta):
    return np.array([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta])


def _flow_matrices():
    """Unit-square conduction, mass, and pressure-coupling element matrices.

    laplace_ij = int grad(N_i) . grad(N_j)
    mass_ij    = int N_i N_j
    coupling[2i+d, j] = int N_i dN_j/dx_d  (structural DOF row, pressure col)
    2x2 Gauss is exact for all three integrands.
    """
    lap = np.zeros((4, 4))
    mass = np.zeros((4, 4))
    coup = np.zeros((8, 4))
    for xi in _GAUSS_1D:
        for eta in _GAUSS_1D:
            n = _shape_values(xi, eta)
            g = _shape_gradients(xi, eta)
            lap += 0.25 * g.T @ g
            mass += 0.25 * np.outer(n, n)
            coup[0::2] += 0.25 * np.outer(n, g[0])
            coup[1::2] += 0.25 * np.outer(n, g[1])
    return (lap + lap.T) / 2.0, (mass + mass.T) / 2.0, coup


_LAPLACE, _MASS, _COUPLING = _flow_matrices()


@dataclass(frozen=True)
class PressureConfig(SimpConfig):
    objective_name: ClassVar[str] = "compliance"

    vf: float = 0.3
    etaf: float = 0.2
    betaf: float = 8.0
    lst: int = 1  # include the load-sensitivity adjoint term
    maxit: int = 100
    p0: float = 1.0
    kmax: float = 1.0
    eps_k: float = 1e-7
    r_d: float = 0.1
    delta_s: float = 2.0
    support_halfwidth: int = 5

    def __post_init__(self):
        super().__post_init__()
        if self.lst not in (0, 1):
            raise ValueError(f"lst must be 0 or 1, got {self.lst}")
        if self.maxit < 1:
            raise ValueError("maxit must be at least 1")

    def evaluate(self, rho: DensityField) -> float:
        return evaluate_arch(rho, self)

    @property
    def drainage(self) -> float:
        """Drainage coefficient calibrated so pressure in solid decays to
        r_d * p0 over depth delta_s: sqrt(D / K_solid) = |ln r_d| / delta_s."""
        return self.eps_k * self.kmax * (math.log(self.r_d) / self.delta_s) ** 2


def flow_properties(rho: np.ndarray, cfg: PressureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-element conductivity and drainage, plus nothing else; projection
    happens here so solid means H ~ 1."""
    h, _ = smooth_heaviside(rho, cfg.etaf, cfg.betaf)
    k = cfg.kmax * (1.0 - (1.0 - cfg.eps_k) * h)
    d = cfg.drainage * h
    return k, d


@lru_cache(maxsize=None)
def _darcy_assembly(grid: Grid) -> Assembly:
    """The Assembly of the grid's pressure nodes, natural band order."""
    return Assembly.build(element_nodes(grid), grid.n_nodes)


def assemble_darcy(rho: DensityField, cfg: PressureConfig) -> AssembledMatrix:
    """Node-based flow matrix A = sum_e (K_e laplace + D_e mass)."""
    k, d = flow_properties(rho.values, cfg)
    return _darcy_assembly(rho.grid).assemble_scaled((k, _LAPLACE), (d, _MASS))


def pressure_boundary(grid: Grid, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet nodes and values: inlet p0 along the bottom edge, zero along
    the top edge; sides are natural (zero flux)."""
    cols = np.arange(grid.nelx + 1)
    inlet = cols * (grid.nely + 1) + grid.nely
    outlet = cols * (grid.nely + 1)
    fixed = np.concatenate([inlet, outlet])
    values = np.concatenate([np.full(inlet.size, p0), np.zeros(outlet.size)])
    return fixed, values


def solve_pressure(a: AssembledMatrix, grid: Grid, p0: float) -> tuple[Factor, np.ndarray]:
    """``(factor, p)``: the Darcy matrix ``a`` factored on its pressure-free
    nodes, and the nodal pressure of the two-edge Dirichlet problem. The
    load adjoint has the same matrix and Dirichlet nodes, so the factor
    serves it too."""
    fixed, values = pressure_boundary(grid, p0)
    factor = factorize(a, fixed)
    return factor, factor.solve(np.zeros((1, grid.n_nodes)), values)[0]


def pressure_to_loads(p: np.ndarray, grid: Grid) -> np.ndarray:
    """Consistent nodal forces f = -T p for the pressure-gradient body load."""
    fe = -np.einsum("ij,nj->ni", _COUPLING, p[element_nodes(grid)])
    return np.bincount(edof_matrix(grid).ravel(), weights=fe.ravel(), minlength=grid.n_dofs)


def arch_supports(cfg: PressureConfig) -> np.ndarray:
    """Fixed structural DOFs: both components at bottom-edge nodes within
    support_halfwidth elements of each bottom corner."""
    grid = cfg.grid
    w = cfg.support_halfwidth
    cols = np.unique(np.concatenate([np.arange(0, w + 1), np.arange(grid.nelx - w, grid.nelx + 1)]))
    nids = cols * (grid.nely + 1) + grid.nely
    return np.sort(np.concatenate([2 * nids, 2 * nids + 1]))


def arch_analysis(
    rho: DensityField, cfg: PressureConfig
) -> tuple[Factor, np.ndarray, np.ndarray, np.ndarray]:
    """The forward chain: Darcy assembly, the pressure solve, load transfer,
    then the elastic solve. Returns ``(darcy, p, f, u)``; ``darcy``, the
    pressure factor, also serves the load adjoint in arch_sensitivities."""
    grid = rho.grid
    darcy, p = solve_pressure(assemble_darcy(rho, cfg), grid, cfg.p0)
    f = pressure_to_loads(p, grid)
    k = assemble_stiffness(rho, cfg.penal, cfg.material)
    u = fem.solve_many(k, f, arch_supports(cfg))[0]
    return darcy, p, f, u


def evaluate_arch(rho: DensityField, cfg: PressureConfig) -> float:
    """Compliance f^T u of a given design under its own pressure load."""
    if rho.grid != cfg.grid:
        raise ValueError(f"field grid {rho.grid} does not match config grid {cfg.grid}")
    _, _, f, u = arch_analysis(rho, cfg)
    return float(f @ u)


def arch_sensitivities(
    u: np.ndarray,
    p: np.ndarray,
    rho: DensityField,
    cfg: PressureConfig,
    ce: np.ndarray,
    darcy: Factor,
) -> np.ndarray:
    """d(compliance)/d(rho) with design-dependent loads.

    Stiffness part is the usual simp_derivative times ``ce``, the
    unit-modulus element energies from compliance. The load part solves
    the adjoint A mu = T^T (2u) on the pressure-free nodes and adds mu^T
    (dA/drho_e) p per element; lst=0 drops it (frozen-load approximation).
    The adjoint has the pressure problem's matrix and Dirichlet nodes, so it
    reuses ``darcy``, the factor that solved for ``p`` (see arch_analysis).
    """
    grid = rho.grid
    dc = simp_derivative(rho.values, cfg.penal, cfg.material) * ce
    if cfg.lst:
        rhs = pressure_to_loads_transpose(2.0 * u, grid)
        mu = darcy.solve(rhs[None, :])[0]
        _, dh = smooth_heaviside(rho.values, cfg.etaf, cfg.betaf)
        dk = -cfg.kmax * (1.0 - cfg.eps_k) * dh
        dd = cfg.drainage * dh
        nodes = element_nodes(grid)
        pe = p[nodes]
        me = mu[nodes]
        lap_term = np.einsum("ni,ni->n", me @ _LAPLACE, pe)
        mass_term = np.einsum("ni,ni->n", me @ _MASS, pe)
        dc = dc + dk * lap_term + dd * mass_term
    return dc


def pressure_to_loads_transpose(v: np.ndarray, grid: Grid) -> np.ndarray:
    """T^T v: gather the structural vector back onto pressure nodes."""
    ge = np.einsum("ij,ni->nj", _COUPLING, v[edof_matrix(grid)])
    return np.bincount(element_nodes(grid).ravel(), weights=ge.ravel(), minlength=grid.n_nodes)


def solve_arch(cfg: PressureConfig) -> OptResult:
    """MMA-driven run for exactly cfg.maxit iterations (no early stop); the
    fluid-structure coupling keeps shifting the load, so a change-based stop
    would freeze designs prematurely."""
    grid = cfg.grid
    kernel = build_filter(grid, cfg.rmin)
    n = grid.n_elements
    dg = np.full(n, 1.0 / (n * cfg.vf))
    state = MmaState()

    def step(rho: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        nonlocal state
        rho_field = DensityField(grid, rho)
        darcy, p, _, u = arch_analysis(rho_field, cfg)
        c, ce = compliance(u, rho_field, cfg.penal, cfg.material)
        dc = arch_sensitivities(u, p, rho_field, cfg, ce, darcy)
        dc = sensitivity_filter(rho, dc, kernel)
        g = float(rho.mean() / cfg.vf - 1.0)
        rho_new, state = mma_update(state, rho, dc, g, dg, iteration=it, move=cfg.move)
        return c, rho_new

    return optimize(cfg, np.full(n, cfg.vf), step, cfg.maxit)
