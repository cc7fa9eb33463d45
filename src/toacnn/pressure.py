"""Pressure-loaded arch design: Darcy pressure diffusion with drainage,
consistent pressure-to-load transfer, and compliance minimization by MMA.

The fluid model treats density as an impermeability field: flow conductivity
drops from K_max in void to eps_k * K_max in solid, while a drainage term
d_s * H(rho) kills pressure inside solid material over a prescribed depth.
The resulting pressure gradient loads the structure, so the load moves with
the design and its sensitivity needs the adjoint term below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fem import (
    _GAUSS_1D,
    AssembledMatrix,
    Assembly,
    DensityField,
    Factor,
    Grid,
    LinearSystem,
    Material,
    _shape_gradients,
    assemble_stiffness,
    compliance,
    edof_matrix,
    element_nodes,
    element_stiffness,
    factorize,
    solve_many,  # noqa: F401  (re-exported: the benchmark tracer wraps it here)
    solve_spd,
)
from .optimize import (
    MmaState,
    OptResult,
    build_filter,
    mma_update,
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
class PressureConfig:
    nelx: int = 100
    nely: int = 100
    vf: float = 0.3
    penal: float = 3.0
    rmin: float = 2.4
    etaf: float = 0.2
    betaf: float = 8.0
    lst: int = 1  # include the load-sensitivity adjoint term
    maxit: int = 100
    move: float = 0.2
    p0: float = 1.0
    kmax: float = 1.0
    eps_k: float = 1e-7
    r_d: float = 0.1
    delta_s: float = 2.0
    support_halfwidth: int = 5
    material: Material = field(default_factory=Material)

    def __post_init__(self):
        if not (0.0 < self.vf < 1.0):
            raise ValueError(f"vf must lie in (0, 1), got {self.vf}")
        if self.lst not in (0, 1):
            raise ValueError(f"lst must be 0 or 1, got {self.lst}")
        if self.maxit < 1:
            raise ValueError("maxit must be at least 1")

    @property
    def grid(self) -> Grid:
        return Grid(self.nelx, self.nely)

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
    return _darcy_assembly(rho.grid).assemble(
        k[:, None, None] * _LAPLACE + d[:, None, None] * _MASS
    )


def pressure_boundary(grid: Grid, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet nodes and values: inlet p0 along the bottom edge, zero along
    the top edge; sides are natural (zero flux)."""
    cols = np.arange(grid.nelx + 1)
    inlet = cols * (grid.nely + 1) + grid.nely
    outlet = cols * (grid.nely + 1)
    fixed = np.concatenate([inlet, outlet])
    values = np.concatenate([np.full(inlet.size, p0), np.zeros(outlet.size)])
    return fixed, values


def pressure_factor(a: AssembledMatrix, grid: Grid) -> Factor:
    """Darcy matrix ``a`` factored on its pressure-free nodes. The pressure
    solve and the load adjoint have the same matrix and Dirichlet nodes, so
    one factor serves both."""
    fixed, _ = pressure_boundary(grid, 0.0)
    return factorize(a, fixed)


def solve_pressure(
    a: AssembledMatrix, grid: Grid, p0: float, factor: Factor | None = None
) -> np.ndarray:
    """Nodal pressure field for the two-edge Dirichlet problem; ``factor``,
    the pressure_factor of ``a`` when the caller has it, saves factoring
    ``a`` again."""
    if factor is None:
        factor = pressure_factor(a, grid)
    _, values = pressure_boundary(grid, p0)
    return factor.solve(np.zeros((1, grid.n_nodes)), values)[0]


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


def evaluate_arch(rho: DensityField, cfg: PressureConfig) -> float:
    """Full forward pass: pressure solve, load transfer, elastic solve,
    compliance f^T u."""
    if rho.grid != cfg.grid:
        raise ValueError(f"field grid {rho.grid} does not match config grid {cfg.grid}")
    a = assemble_darcy(rho, cfg)
    p = solve_pressure(a, rho.grid, cfg.p0)
    f = pressure_to_loads(p, rho.grid)
    k = assemble_stiffness(rho, cfg.penal, cfg.material)
    u = solve_spd(LinearSystem(k, f, arch_supports(cfg)))
    return float(f @ u)


def arch_sensitivities(
    u: np.ndarray,
    p: np.ndarray,
    rho: DensityField,
    cfg: PressureConfig,
    ce: np.ndarray | None = None,
    darcy: Factor | None = None,
) -> np.ndarray:
    """d(compliance)/d(rho) with design-dependent loads.

    Stiffness part is the usual -penal rho^(p-1) (e0 - emin) ce. The load
    part solves the adjoint A mu = T^T (2u) on the pressure-free nodes and
    adds mu^T (dA/drho_e) p per element; lst=0 drops it (frozen-load
    approximation). The adjoint has the pressure problem's matrix and
    Dirichlet nodes, so ``darcy``, the factor that solved for ``p``, is
    reused when given; otherwise the Darcy matrix is assembled and factored.
    """
    grid = rho.grid
    mat = cfg.material
    if ce is None:
        _, ce = compliance(u, rho, cfg.penal, mat)
    dc = -cfg.penal * rho.values ** (cfg.penal - 1.0) * (mat.e0 - mat.emin) * ce
    if cfg.lst:
        if darcy is None:
            darcy = pressure_factor(assemble_darcy(rho, cfg), grid)
        rhs = pressure_to_loads_transpose(2.0 * u, grid)
        mu = darcy.solve(rhs[None, :])[0]
        _, dh = smooth_heaviside(rho.values, cfg.etaf, cfg.betaf)
        dk = -cfg.kmax * (1.0 - cfg.eps_k) * dh
        dd = cfg.drainage * dh
        nodes = element_nodes(grid)
        pe = p[nodes]
        me = mu[nodes]
        lap_term = np.einsum("ni,ij,nj->n", me, _LAPLACE, pe)
        mass_term = np.einsum("ni,ij,nj->n", me, _MASS, pe)
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
    mat = cfg.material
    ke = element_stiffness(mat)
    kernel = build_filter(grid, cfg.rmin)
    supports = arch_supports(cfg)
    n = grid.n_elements

    rho = np.full(n, cfg.vf)
    state = MmaState()
    history: list[tuple[float, float]] = []
    for it in range(1, cfg.maxit + 1):
        rho_field = DensityField(grid, rho)
        a = assemble_darcy(rho_field, cfg)
        darcy = pressure_factor(a, grid)
        p = solve_pressure(a, grid, cfg.p0, darcy)
        f = pressure_to_loads(p, grid)
        k = assemble_stiffness(rho_field, cfg.penal, mat, ke)
        u = solve_spd(LinearSystem(k, f, supports))
        c, ce = compliance(u, rho_field, cfg.penal, mat, ke)
        dc = arch_sensitivities(u, p, rho_field, cfg, ce=ce, darcy=darcy)
        dc = sensitivity_filter(rho, dc, kernel)
        g = float(rho.mean() / cfg.vf - 1.0)
        dg = np.full(n, 1.0 / (n * cfg.vf))
        rho_new, state = mma_update(state, rho, dc, g, dg, iteration=it, move=cfg.move)
        change = float(np.abs(rho_new - rho).max())
        rho = rho_new
        history.append((c, change))

    final = DensityField(grid, rho)
    return OptResult(final, evaluate_arch(final, cfg), cfg.maxit, history)
