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

import mmap
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

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


def _shape_gradients(xi: float, eta: float) -> np.ndarray:
    """(2, 4) gradients of the bilinear shape functions at (xi, eta) in [0,1]^2."""
    return np.array(
        [
            [-(1.0 - eta), (1.0 - eta), eta, -eta],
            [-(1.0 - xi), -xi, xi, (1.0 - xi)],
        ]
    )


@lru_cache(maxsize=None)
def element_stiffness(material: Material) -> np.ndarray:
    """8x8 stiffness of one unit-square plane-stress element at unit modulus.

    SIMP scaling is applied during assembly, so the material only contributes
    its Poisson ratio here. Integrated with a 2x2 Gauss rule, which is exact
    for this integrand on an undistorted square. Computed once per material
    and shared, so the array is read-only.
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
    ke = (ke + ke.T) / 2.0  # exact symmetry, last-ulp safe
    ke.flags.writeable = False
    return ke


@lru_cache(maxsize=None)
def edof_matrix(grid: Grid) -> np.ndarray:
    """(n_elements, 8) global DOF indices per element, LL, LR, UR, UL order."""
    nelx, nely = grid.nelx, grid.nely
    ey, ex = np.meshgrid(np.arange(nely), np.arange(nelx), indexing="ij")
    top_left = ((nely + 1) * ex + ey).ravel()  # upper-left node of each element
    nodes = top_left[:, None] + np.array([1, nely + 2, nely + 1, 0])  # LL, LR, UR, UL
    return (2 * nodes[:, :, None] + np.arange(2)).reshape(-1, 8)  # (x, y) per node


def element_nodes(grid: Grid) -> np.ndarray:
    """(n_elements, 4) global node ids per element, LL, LR, UR, UL order."""
    return edof_matrix(grid)[:, 0::2] // 2


def simp_moduli(values: np.ndarray, penal: float, material: Material) -> np.ndarray:
    """Per-element modulus emin + rho^penal (e0 - emin)."""
    return material.emin + values**penal * (material.e0 - material.emin)


def simp_derivative(values: np.ndarray, penal: float, material: Material) -> np.ndarray:
    """Per-element d(modulus)/d(rho) of simp_moduli; times a unit-modulus
    element energy it gives that element's compliance sensitivity."""
    return -penal * values ** (penal - 1.0) * (material.e0 - material.emin)


def assemble_stiffness(rho: DensityField, penal: float, material: Material) -> AssembledMatrix:
    """Global stiffness with SIMP-scaled element blocks; bitwise symmetric."""
    blocks = simp_moduli(rho.values, penal, material)[:, None, None] * element_stiffness(material)
    return stiffness_assembly(rho.grid).assemble(blocks)


class AssembledMatrix(sp.csr_array):
    """CSR matrix built by an Assembly, which it carries for factorize.

    Results of sparse arithmetic on it (``-k``, ``k - k.T``) are matrices of
    this type without an assembly, and factorize rejects them.
    """

    assembly: "Assembly | None" = None


def _anonymous_map(nbytes: int) -> mmap.mmap:
    """Zeroed memory in its own map, faulted in at once where the platform
    allows it.

    Bands and cached patterns live here rather than in the malloc heap. Once
    glibc frees a mapped block of up to 32 MiB it serves later blocks of
    that size from the heap, and keeps freed heap pages resident: a 100x100
    band of 33 MB would then stay resident after its solve is done.
    """
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return mmap.mmap(-1, max(nbytes, 1), flags=flags)


def _off_heap(x: np.ndarray) -> np.ndarray:
    """Read-only copy of ``x`` in its own map, for arrays kept for the
    life of the process; see _anonymous_map."""
    out = np.frombuffer(_anonymous_map(x.nbytes), dtype=x.dtype, count=x.size)
    out[:] = x
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class _BandLayout:
    """Where a free block goes in a band: ``order`` lists the free DOFs in
    band order, and the stored entries ``entries`` (indices into the CSR
    data) land at the flat Fortran-order positions ``slots`` of the
    ``(width + 1, order.size)`` upper band."""

    order: np.ndarray
    width: int
    entries: np.ndarray
    slots: np.ndarray


@dataclass(frozen=True, eq=False)
class Assembly:
    """The fixed sparsity pattern of one element DOF map, with a precomputed
    scatter into it and the band order its factorizations use.

    ``scatter`` sends entry ``(e, a, b)`` of the ``(n_elements, k, k)``
    element blocks, flattened, to its place in the CSR data of the sorted
    pattern ``indptr``/``indices``; ``order`` lists all DOFs in band order.
    Build one per map and grid with Assembly.build, not per matrix.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    scatter: np.ndarray
    order: np.ndarray
    _layouts: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, edof: np.ndarray, n: int, order: np.ndarray | None = None) -> "Assembly":
        """Pattern and scatter of the ``(n_elements, k)`` DOF map ``edof`` on
        ``n`` DOFs; ``order`` defaults to the natural DOF numbering."""
        k = edof.shape[1]
        rows = np.repeat(edof, k, axis=1).ravel()
        cols = np.tile(edof, (1, k)).ravel()
        keys, scatter = np.unique(rows * n + cols, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)  # keys are sorted row-major
        order = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
        # the CSR arrays stay resident, so they are kept narrow; the scatter
        # stays intp, which bincount would otherwise convert on every call
        index = np.int32 if keys.size < 2**31 else np.int64
        pattern = (indptr.astype(index), (keys % n).astype(index), scatter.astype(np.intp))
        return cls((n, n), *map(_off_heap, pattern), _off_heap(order))

    def assemble(self, blocks: np.ndarray) -> AssembledMatrix:
        """Sum of the ``(n_elements, k, k)`` element ``blocks`` on the pattern.

        Every entry of the pattern is stored, zeros included, so the pattern
        follows the mesh alone. Entries (i, j) and (j, i) add the same
        element values in the same element order, so symmetric blocks give a
        matrix symmetric to the last bit wherever each element's DOFs are
        distinct (all meshes but a periodic cell one element wide).
        """
        data = np.bincount(self.scatter, weights=blocks.ravel(), minlength=self.indices.size)
        matrix = AssembledMatrix((data, self.indices, self.indptr), shape=self.shape)
        matrix.assembly = self
        return matrix

    def band_layout(self, fixed_dofs: np.ndarray) -> _BandLayout:
        """Band layout of the free block left by Dirichlet DOFs ``fixed_dofs``
        (int64), built on first use and then kept. Two threads may both build
        it; the layouts are equal, and setdefault keeps the first."""
        key = fixed_dofs.tobytes()
        if key in self._layouts:
            return self._layouts[key]
        n = self.shape[0]
        free = np.ones(n, dtype=bool)
        free[fixed_dofs] = False
        order = self.order[free[self.order]]
        pos = np.full(n, -1, dtype=np.int64)
        pos[order] = np.arange(order.size)
        i = pos[np.repeat(np.arange(n), np.diff(self.indptr))]
        j = pos[self.indices]
        entries = np.flatnonzero((i >= 0) & (i <= j))  # free-free, upper in band order
        i, j = i[entries], j[entries]
        width = int((j - i).max(initial=0))
        slots = width + i - j + (width + 1) * j
        index = np.int32 if max(self.indices.size, (width + 1) * order.size) < 2**31 else np.int64
        entries, slots = (_off_heap(a.astype(index)) for a in (entries, slots))
        layout = _BandLayout(_off_heap(order), width, entries, slots)
        return self._layouts.setdefault(key, layout)


@lru_cache(maxsize=None)
def stiffness_assembly(grid: Grid) -> Assembly:
    """The Assembly of the grid's displacement DOFs, natural band order."""
    return Assembly.build(edof_matrix(grid), grid.n_dofs)


@dataclass(frozen=True)
class Factor:
    """Banded Cholesky factor of a matrix's free block, reusable across solves.

    ``order`` lists the free DOFs in band order and ``cholesky`` holds the
    upper band of the factor, ``(bandwidth + 1, n_free)`` in Fortran order,
    as ``scipy.linalg.cholesky_banded`` returns it. Build it with factorize.
    """

    matrix: AssembledMatrix
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


def factorize(matrix: AssembledMatrix, fixed_dofs: np.ndarray) -> Factor:
    """Cholesky-factor the free block of ``matrix`` once, for many solves.

    ``matrix`` must come from Assembly.assemble; its free block (rows and
    columns not in ``fixed_dofs``) must be symmetric positive definite, and
    only its upper triangle is read. The block is stored as a band in the
    assembly's order, natural for the open meshes and folded for the
    periodic cell (see microstructure), and factored by LAPACK ``pbtrf``
    via ``scipy.linalg.cholesky_banded``. The band layout is built once per
    assembly and Dirichlet set. A block that is not positive definite raises
    SolverFailure.
    """
    assembly = getattr(matrix, "assembly", None)
    if assembly is None:
        raise TypeError("factorize needs a matrix built by Assembly.assemble")
    fixed_dofs = np.ascontiguousarray(fixed_dofs, dtype=np.int64)
    if fixed_dofs.size == 0:
        raise ValueError("at least one constrained DOF is required")
    layout = assembly.band_layout(fixed_dofs)
    # Fortran order lets LAPACK factor the band in place instead of copying it
    size = (layout.width + 1) * layout.order.size
    band = np.frombuffer(_anonymous_map(8 * size), dtype=np.float64, count=size)
    band[layout.slots] = matrix.data[layout.entries]
    band = band.reshape((layout.width + 1, layout.order.size), order="F")
    try:
        chol = cholesky_banded(band, overwrite_ab=True, lower=False, check_finite=False)
    except LinAlgError as exc:
        raise SolverFailure(f"free block is not positive definite: {exc}") from exc
    return Factor(matrix, fixed_dofs, layout.order, chol)


def solve_many(
    matrix: AssembledMatrix, rhs_columns: np.ndarray, fixed_dofs: np.ndarray
) -> np.ndarray:
    """Direct solve of K u = f for one or more right-hand sides, zero on
    the Dirichlet DOFs ``fixed_dofs``: factorize once, then Factor.solve
    with its default 1e-8 residual contract. Raises SolverFailure, with the
    residual attached when there is one, when refinement stalls short or the
    free block is not positive definite.
    """
    return factorize(matrix, fixed_dofs).solve(rhs_columns)


def compliance(
    u: np.ndarray, rho: DensityField, penal: float, material: Material
) -> tuple[float, np.ndarray]:
    """Total compliance and per-element strain energies at unit modulus.

    Returns ``(c, ce)`` with ``c = sum_e E_e * ce_e``; ``ce`` feeds the
    sensitivity expressions, which need the unscaled energies.
    """
    ue = u[edof_matrix(rho.grid)]
    ce = np.einsum("ni,ij,nj->n", ue, element_stiffness(material), ue)
    c = float(np.dot(simp_moduli(rho.values, penal, material), ce))
    return c, ce
