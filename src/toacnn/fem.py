"""Plane-stress finite elements on a regular grid of unit-square bilinear quads.

Conventions used everywhere in this package:

* The grid is ``nelx`` elements wide and ``nely`` elements tall, each element
  a unit square. Node ids run column-major, ``id = col * (nely + 1) + row``,
  with ``row`` counted from the top of the grid; node coordinates are
  ``(x, y) = (col, nely - row)`` so y points up.
* Each node carries two displacement DOFs, ``(2 * id, 2 * id + 1)`` for
  (x, y).
* Elements are indexed row-major, ``e = row * nelx + col``, row 0 at the top.
  Density vectors are flat in this element order; reshaping to
  ``(nely, nelx)`` gives an image whose first row is the top of the domain.
* Local element nodes are ordered counterclockwise from the lower-left
  corner: LL, LR, UR, UL.
"""

from __future__ import annotations

import hashlib
import mmap
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import SolverFailure

# 2x2 Gauss rule on [0, 1]; exact for the bilinear-quad stiffness integrand.
_GAUSS_1D = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


@dataclass(frozen=True)
class Grid:
    """Regular mesh of ``nelx`` by ``nely`` unit-square elements."""

    nelx: int
    nely: int

    def __post_init__(self):
        if self.nelx < 1 or self.nely < 1:
            raise ValueError(f"grid must have positive extents, got {self.nelx}x{self.nely}")

    @property
    def n_elements(self) -> int:
        return self.nelx * self.nely

    @property
    def n_nodes(self) -> int:
        return (self.nelx + 1) * (self.nely + 1)

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    def node_id(self, col: int, row: int) -> int:
        """Node id at grid column ``col`` (0..nelx) and row ``row`` (0..nely, top down)."""
        if not (0 <= col <= self.nelx and 0 <= row <= self.nely):
            raise ValueError(f"node ({col}, {row}) outside grid {self.nelx}x{self.nely}")
        return col * (self.nely + 1) + row

    def node_coords(self) -> np.ndarray:
        """(n_nodes, 2) array of node (x, y) positions, y up."""
        cols = np.arange(self.n_nodes) // (self.nely + 1)
        rows = np.arange(self.n_nodes) % (self.nely + 1)
        return np.column_stack([cols.astype(float), (self.nely - rows).astype(float)])


@dataclass(frozen=True)
class Material:
    """Isotropic SIMP material: solid modulus, void floor, Poisson ratio."""

    e0: float = 1.0
    emin: float = 1e-9
    nu: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.emin < self.e0):
            raise ValueError(f"need 0 < emin < e0, got emin={self.emin}, e0={self.e0}")
        if not (0.0 <= self.nu < 0.5):
            raise ValueError(f"nu must lie in [0, 0.5), got {self.nu}")


@dataclass
class DensityField:
    """Flat per-element densities on a grid, every entry in [0, 1]."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.grid.n_elements:
            raise ValueError(
                f"expected {self.grid.n_elements} densities, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("density field contains non-finite entries")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError(
                f"densities outside [0, 1]: min={v.min()}, max={v.max()}"
            )
        self.values = v

    def as_image(self) -> np.ndarray:
        """(nely, nelx) array, first row = top of the domain."""
        return self.values.reshape(self.grid.nely, self.grid.nelx)

    @classmethod
    def from_image(cls, image: np.ndarray) -> "DensityField":
        image = np.asarray(image, dtype=float)
        if image.ndim != 2:
            raise ValueError(f"expected a 2-D image, got shape {image.shape}")
        nely, nelx = image.shape
        return cls(Grid(nelx, nely), image.ravel())


@dataclass(frozen=True)
class LinearSystem:
    """K u = f with Dirichlet DOFs eliminated at solve time."""

    matrix: sp.csr_array
    rhs: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray = field(default=None)  # zeros when omitted

    def __post_init__(self):
        if self.fixed_values is None:
            object.__setattr__(
                self, "fixed_values", np.zeros(len(self.fixed_dofs))
            )
        if len(self.fixed_values) != len(self.fixed_dofs):
            raise ValueError("fixed_values length must match fixed_dofs")


def _shape_gradients(xi: float, eta: float) -> np.ndarray:
    """(2, 4) gradients of the bilinear shape functions at (xi, eta) in [0,1]^2."""
    return np.array(
        [
            [-(1.0 - eta), (1.0 - eta), eta, -eta],
            [-(1.0 - xi), -xi, xi, (1.0 - xi)],
        ]
    )


def element_stiffness(material: Material) -> np.ndarray:
    """8x8 stiffness of one unit-square plane-stress element at unit modulus.

    SIMP scaling is applied during assembly, so the material only contributes
    its Poisson ratio here. Integrated with a 2x2 Gauss rule, which is exact
    for this integrand on an undistorted square.
    """
    nu = material.nu
    d = np.array(
        [
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, (1.0 - nu) / 2.0],
        ]
    ) / (1.0 - nu**2)
    ke = np.zeros((8, 8))
    for xi in _GAUSS_1D:
        for eta in _GAUSS_1D:
            g = _shape_gradients(xi, eta)
            b = np.zeros((3, 8))
            b[0, 0::2] = g[0]
            b[1, 1::2] = g[1]
            b[2, 0::2] = g[1]
            b[2, 1::2] = g[0]
            ke += 0.25 * b.T @ d @ b
    return (ke + ke.T) / 2.0  # exact symmetry, last-ulp safe


@lru_cache(maxsize=None)
def _edof_cached(nelx: int, nely: int) -> np.ndarray:
    ey, ex = np.meshgrid(np.arange(nely), np.arange(nelx), indexing="ij")
    top_left = ((nely + 1) * ex + ey).ravel()  # upper-left node of each element
    ll = top_left + 1
    lr = top_left + nely + 2
    ur = top_left + nely + 1
    ul = top_left
    nodes = np.column_stack([ll, lr, ur, ul])
    edof = np.empty((nelx * nely, 8), dtype=np.int64)
    edof[:, 0::2] = 2 * nodes
    edof[:, 1::2] = 2 * nodes + 1
    return edof


def edof_matrix(grid: Grid) -> np.ndarray:
    """(n_elements, 8) global DOF indices per element, LL, LR, UR, UL order."""
    return _edof_cached(grid.nelx, grid.nely)


def element_nodes(grid: Grid) -> np.ndarray:
    """(n_elements, 4) global node ids per element, LL, LR, UR, UL order."""
    return edof_matrix(grid)[:, 0::2] // 2


def simp_moduli(values: np.ndarray, penal: float, material: Material) -> np.ndarray:
    """Per-element modulus emin + rho^penal (e0 - emin)."""
    return material.emin + values**penal * (material.e0 - material.emin)


def assemble_stiffness(
    rho: DensityField,
    penal: float,
    material: Material,
    ke: np.ndarray | None = None,
) -> sp.csr_array:
    """Global stiffness with SIMP-scaled element blocks; bitwise symmetric."""
    if ke is None:
        ke = element_stiffness(material)
    grid = rho.grid
    edof = edof_matrix(grid)
    factors = simp_moduli(rho.values, penal, material)
    data = (factors[:, None, None] * ke).ravel()
    rows = np.repeat(edof, 8, axis=1).ravel()
    cols = np.tile(edof, (1, 8)).ravel()
    return symmetrize(sp.coo_array((data, (rows, cols)), shape=(grid.n_dofs, grid.n_dofs)))


def symmetrize(a: sp.sparray) -> sp.csr_array:
    """(a + a^T) / 2 of an assembled matrix, on a's own sparsity pattern.

    The pattern must be symmetric, as every element assembly's is. Sparse
    addition would drop entries that cancel to exactly zero, which uniform
    or bound-saturated densities produce, so the pattern would follow the
    values; kept on a's pattern it follows the mesh alone, and factorize
    reuses one band layout across an optimizer's iterations. x + y is
    commutative in IEEE float, so the result is symmetric to the last bit.
    """
    a = sp.csr_array(a)
    a.sum_duplicates()
    at = sp.csr_array(a.T)  # same pattern, sorted indices: entries line up
    return sp.csr_array(((a.data + at.data) * 0.5, a.indices, a.indptr), shape=a.shape)


@dataclass(frozen=True)
class Factor:
    """Banded Cholesky factor of a matrix's free block, reusable across solves.

    ``order`` lists the free DOFs in band order and ``cholesky`` holds the
    upper band of the factor, ``(bandwidth + 1, n_free)`` in Fortran order,
    as ``scipy.linalg.cholesky_banded`` returns it. Build it with factorize.
    """

    matrix: sp.csr_array
    fixed_dofs: np.ndarray
    order: np.ndarray
    cholesky: np.ndarray

    @property
    def bandwidth(self) -> int:
        return self.cholesky.shape[0] - 1

    def solve(
        self,
        rhs_columns: np.ndarray,
        fixed_values: np.ndarray | None = None,
        tol: float = 1e-8,
    ) -> np.ndarray:
        """Full solutions of K u = f, one row per right-hand side in ``rhs_columns``.

        The fixed DOFs take ``fixed_values`` (zeros when omitted). Each
        solution is iteratively refined, at most six passes, until its
        relative residual ||r_free|| / ||b_free|| meets ``tol``; badly scaled
        SIMP systems need a few. Lift and residuals come from products with
        the full matrix. Raises SolverFailure (with the residual attached)
        when refinement stalls short.
        """
        if fixed_values is None:
            fixed_values = np.zeros(self.fixed_dofs.size)
        rhs_columns = np.atleast_2d(np.asarray(rhs_columns, dtype=float))
        order = self.order
        out = np.zeros((rhs_columns.shape[0], self.matrix.shape[0]))
        for f, u in zip(rhs_columns, out):
            u[self.fixed_dofs] = fixed_values
            b = (f - self.matrix @ u)[order]
            scale = np.linalg.norm(b)
            u[order] = self._backsolve(b)
            for passes in range(7):
                r = (f - self.matrix @ u)[order]
                resid = np.linalg.norm(r)
                rel = resid / scale if scale > 0.0 else resid
                if rel <= tol or passes == 6:
                    break
                u[order] += self._backsolve(r)
            if not rel <= tol:  # also catches NaN
                raise SolverFailure(
                    f"linear solve residual {rel:.3e} exceeds tol {tol:.1e}",
                    residual=float(rel),
                )
        return out

    def _backsolve(self, b: np.ndarray) -> np.ndarray:
        return cho_solve_banded((self.cholesky, False), b, check_finite=False)


def _band_positions(order: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int):
    """Band position of every DOF under ``order`` and the bandwidth it gives
    for the (symmetric) free-free entries ``rows``, ``cols``."""
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(order.size)
    width = int((pos[cols] - pos[rows]).max(initial=0))
    return pos, width


@dataclass(frozen=True)
class _BandLayout:
    """Where a sparsity pattern's free block goes in a band: ``order`` lists
    the free DOFs in band order, and the stored entries ``entries`` (indices
    into the CSR data) land at the flat Fortran-order positions ``slots`` of
    the ``(width + 1, order.size)`` upper band."""

    order: np.ndarray
    width: int
    entries: np.ndarray
    slots: np.ndarray


# Band layouts by SHA-1 of their Dirichlet set and CSR pattern, oldest first.
_LAYOUTS: dict[bytes, _BandLayout] = {}
_LAYOUTS_LOCK = threading.Lock()
_LAYOUTS_KEPT = 8


def _band_layout(fixed_dofs: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> _BandLayout:
    """Band layout of an int64 CSR pattern with Dirichlet DOFs ``fixed_dofs``,
    built on its first factorization and then reused. An optimizer's
    matrices keep one pattern, which follows the mesh (see symmetrize), so
    the band order is chosen once per pattern, not once per factor."""
    digest = hashlib.sha1(np.array([fixed_dofs.size, indptr.size, indices.size]))
    for part in (fixed_dofs, indptr, indices):
        digest.update(part)
    key = digest.digest()
    with _LAYOUTS_LOCK:
        layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _build_band_layout(fixed_dofs, indptr, indices)
        with _LAYOUTS_LOCK:
            _LAYOUTS[key] = layout
            if len(_LAYOUTS) > _LAYOUTS_KEPT:
                del _LAYOUTS[next(iter(_LAYOUTS))]
    return layout


def _off_heap(x: np.ndarray) -> np.ndarray:
    """Read-only copy of ``x`` in its own anonymous memory map. A cached
    layout outlives the temporaries of the factorization that built it; in
    the malloc heap it would sit above them and keep their freed pages
    resident (about 80 MB at 100x100)."""
    out = np.frombuffer(mmap.mmap(-1, max(x.nbytes, 1)), dtype=x.dtype, count=x.size)
    out[:] = x
    out.flags.writeable = False
    return out


def _build_band_layout(
    fixed_dofs: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> _BandLayout:
    """The natural DOF order unless reverse Cuthill-McKee gives a narrower
    band, and where each stored free-free upper entry lands in that band."""
    n = indptr.size - 1
    free = np.ones(n, dtype=bool)
    free[fixed_dofs] = False
    rows = np.repeat(np.arange(n), np.diff(indptr))
    entries = np.flatnonzero(free[rows] & free[indices])
    rows, cols = rows[entries], indices[entries]

    order = np.flatnonzero(free)
    pos, width = _band_positions(order, rows, cols, n)
    graph = sp.csr_array((np.ones(indices.size), indices, indptr), shape=(n, n))
    rcm = reverse_cuthill_mckee(graph, symmetric_mode=True)
    rcm = rcm[free[rcm]]
    pos_rcm, width_rcm = _band_positions(rcm, rows, cols, n)
    if width_rcm < width:
        order, pos, width = rcm, pos_rcm, width_rcm

    i, j = pos[rows], pos[cols]
    upper = i <= j
    i, j = i[upper], j[upper]
    slots = width + i - j + (width + 1) * j
    return _BandLayout(_off_heap(order), width, _off_heap(entries[upper]), _off_heap(slots))


def factorize(matrix: sp.csr_array, fixed_dofs: np.ndarray) -> Factor:
    """Cholesky-factor the free block of ``matrix`` once, for many solves.

    The free block (rows and columns not in ``fixed_dofs``) must be
    symmetric positive definite; only its upper triangle is read. It is
    stored as a band and factored by LAPACK ``pbtrf`` via
    ``scipy.linalg.cholesky_banded``. The band follows the natural DOF
    numbering, which is column-major on the grid and so gives a bandwidth of
    about twice the nodes per column, unless a reverse Cuthill-McKee ordering
    of the matrix graph gives a narrower band; that happens on the periodic
    cell, whose wrap-around couples the first and last columns. The choice
    is made once per sparsity pattern and Dirichlet set and then reused. A
    block that is not positive definite raises SolverFailure.
    """
    a = sp.csr_array(matrix)
    a.sum_duplicates()  # the band scatter below keeps one value per entry
    fixed_dofs = np.ascontiguousarray(fixed_dofs, dtype=np.int64)
    if fixed_dofs.size == 0:
        raise ValueError("at least one constrained DOF is required")
    layout = _band_layout(
        fixed_dofs, a.indptr.astype(np.int64, copy=False), a.indices.astype(np.int64, copy=False)
    )
    # Fortran order lets LAPACK factor the band in place instead of copying it
    band = np.zeros((layout.width + 1) * layout.order.size)
    band[layout.slots] = a.data[layout.entries]
    band = band.reshape((layout.width + 1, layout.order.size), order="F")
    try:
        chol = cholesky_banded(band, overwrite_ab=True, lower=False, check_finite=False)
    except LinAlgError as exc:
        raise SolverFailure(f"free block is not positive definite: {exc}") from exc
    return Factor(a, fixed_dofs, layout.order, chol)


def solve_many(
    matrix: sp.csr_array,
    rhs_columns: np.ndarray,
    fixed_dofs: np.ndarray,
    fixed_values: np.ndarray | None = None,
    tol: float = 1e-8,
) -> np.ndarray:
    """Direct solve of K u = f for one or more right-hand sides.

    Dirichlet DOFs are eliminated and the free block, which must be
    symmetric positive definite, is factored once by banded Cholesky in the
    natural DOF order or, when narrower, a reverse Cuthill-McKee order (see
    factorize). Each solution is then refined until its relative residual
    meets ``tol`` (see Factor.solve). Raises SolverFailure, with the residual
    attached when there is one, when refinement stalls short or the block is
    not positive definite.
    """
    return factorize(matrix, fixed_dofs).solve(rhs_columns, fixed_values, tol)


def solve_spd(system: LinearSystem, tol: float = 1e-8) -> np.ndarray:
    """Solve one eliminated Dirichlet system whose free block is symmetric
    positive definite, by banded Cholesky in the natural DOF order or, when
    narrower, a reverse Cuthill-McKee order; see solve_many for the contract."""
    return solve_many(
        system.matrix,
        system.rhs[None, :],
        system.fixed_dofs,
        system.fixed_values,
        tol=tol,
    )[0]


def compliance(
    u: np.ndarray,
    rho: DensityField,
    penal: float,
    material: Material,
    ke: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Total compliance and per-element strain energies at unit modulus.

    Returns ``(c, ce)`` with ``c = sum_e E_e * ce_e``; ``ce`` feeds the
    sensitivity expressions, which need the unscaled energies.
    """
    if ke is None:
        ke = element_stiffness(material)
    edof = edof_matrix(rho.grid)
    ue = u[edof]
    ce = np.einsum("ni,ij,nj->n", ue, ke, ue)
    c = float(np.dot(simp_moduli(rho.values, penal, material), ce))
    return c, ce
