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

import ctypes
import math
import mmap
import weakref
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import cython_blas, cython_lapack

from . import helper
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
    edof = (2 * nodes[:, :, None] + np.arange(2)).ravel()  # (x, y) per node
    # cached and shared, so read-only, and kept narrow and off the heap
    return off_heap(edof.astype(np.int32 if grid.n_dofs < 2**31 else np.int64)).reshape(-1, 8)


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
    moduli = simp_moduli(rho.values, penal, material)
    return stiffness_assembly(rho.grid).assemble_scaled((moduli, element_stiffness(material)))


class AssembledMatrix(sp.csr_array):
    """CSR matrix built by an Assembly, which it carries for factorize.

    Results of sparse arithmetic on it (``-k``, ``k - k.T``) are matrices of
    this type without an assembly, and factorize rejects them.
    """

    assembly: "Assembly | None" = None


def _anonymous_map(nbytes: int) -> mmap.mmap:
    """Zeroed memory in its own map, faulted in at once where the platform
    allows it.

    Cached patterns, bands and every analysis's buffers live here rather
    than in the malloc heap. Once glibc frees a mapped block of up to 32 MiB
    it serves later blocks of that size from the heap, and keeps freed heap
    pages resident: a 100x100 band of 33 MB would then stay resident after
    its solve is done. A map is unmapped once nothing uses it. Within a
    solver run the Workspace hands a dead band's map to the next band of its
    size, so only the first analysis of a run maps and faults in its own;
    outside a run each analysis has a Workspace of its own, which recycles
    nothing."""
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return mmap.mmap(-1, max(nbytes, 1), flags=flags)


def _mapped(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zeroed C-order array of ``shape`` in a map of its own."""
    count, dtype = math.prod(shape), np.dtype(dtype)
    return np.frombuffer(_anonymous_map(count * dtype.itemsize), dtype, count).reshape(shape)


def off_heap(x: np.ndarray) -> np.ndarray:
    """Read-only copy of ``x`` in its own map, for arrays kept for the
    life of the process; see _anonymous_map."""
    out = _mapped((x.size,), x.dtype)
    out[:] = x
    out.flags.writeable = False
    return out


_WORKSPACE: ContextVar["Workspace | None"] = ContextVar("toacnn_workspace", default=None)

# glibc returns a freed top of its heap to the system only above a trim
# threshold that its large frees keep raising, so a run's freed arrays can
# stay resident after it; a closing Workspace asks for them back
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int


class Workspace:
    """The memory of one solver run, reused by each analysis of the run.

    ``with Workspace():`` opens it for the code that runs in the block, in
    this thread and context only; optimize opens one per run, so the
    threads of a parallel sweep each have their own. Inside it the bands
    and separators of factorize come from the maps of dead factors (see
    ``zeros``), the element blocks of an assembly borrow one of those maps
    until the matrix is summed (see ``borrow``), bincount reads a scatter
    widened once, and ``keep`` holds other per-run constants. Closing it
    drops all of these, so nothing of the run stays mapped after it, and
    returns the heap pages the run freed. Every analysis takes its memory
    from workspace(): outside a run, a Workspace of its own that recycles
    nothing, whose maps are unmapped once their arrays are gone."""

    def __init__(self):
        # each map lent out and a weak reference to the array over it; a map
        # is free once its array is dead. Only the run's thread uses the list
        self._maps: list[tuple[mmap.mmap, weakref.ref]] = []
        self._kept: dict = {}
        self._token = None

    def __enter__(self) -> "Workspace":
        self._token = _WORKSPACE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _WORKSPACE.reset(self._token)
        self._maps, self._kept = [], {}
        if _malloc_trim is not None:
            _malloc_trim(0)

    def _lend(self, memory: mmap.mmap, count: int) -> np.ndarray:
        """``count`` doubles over ``memory``, which is free again once the
        array dies. Every view, as_strided ones included, keeps the array
        alive, so a live Factor's maps are never handed out again."""
        out = np.frombuffer(memory, dtype=np.float64, count=count)
        self._maps.append((memory, weakref.ref(out)))
        return out

    def _take(self, fits) -> mmap.mmap | None:
        """Remove and return the smallest free map whose size ``fits``."""
        sizes = [(len(m), i) for i, (m, array) in enumerate(self._maps)
                 if array() is None and fits(len(m))]
        return self._maps.pop(min(sizes)[1])[0] if sizes else None

    def zeros(self, count: int) -> np.ndarray:
        """``count`` zeroed doubles in a map of their own: a free map of
        exactly their size, zeroed because pbtrf leaves fill where a band's
        pattern has zeros, else a new one."""
        nbytes = max(8 * count, 1)
        memory = self._take(lambda size: size == nbytes)
        if memory is None:
            return self._lend(_anonymous_map(nbytes), count)
        out = self._lend(memory, count)
        out.fill(0.0)
        return out

    def borrow(self, shape: tuple[int, ...]) -> np.ndarray:
        """Doubles of ``shape`` in the smallest free map that holds them, as
        they were left, else in a new map that is dropped with them. Scratch
        that dies before the next band is made adds nothing resident this
        way: from the second analysis of a run on, it lands in the last
        one's band."""
        count = math.prod(shape)
        memory = self._take(lambda size: size >= 8 * count)
        return _mapped(shape) if memory is None else self._lend(memory, count).reshape(shape)

    def keep(self, key, make):
        """``make()``, made on the first call with ``key`` in this run."""
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]


def workspace() -> Workspace:
    """The open solver run's Workspace, else a new one that recycles
    nothing: each call outside a run maps fresh memory and keeps nothing."""
    ws = _WORKSPACE.get()
    return Workspace() if ws is None else ws


@dataclass(frozen=True)
class _BandLayout:
    """Where a free block goes in its two half bands.

    ``order`` lists the free DOFs in band order and ``width`` is the block's
    half-bandwidth w. The separator S is the ``separator`` DOFs that start at
    position ``split``: the w in the middle, or none at the end for a block
    too small to gain from factoring its halves at once. Half A is the DOFs
    before S, half B the DOFs after it; no entry couples A with B. The first
    band holds [A, S] and the second [B, S] reversed, each as an upper band
    of width w in Fortran order. The stored entries ``entries[h]`` (indices
    into the CSR data) land at the flat positions ``slots[h]`` of band
    ``h``; the K_SS entries go to both.
    """

    order: np.ndarray
    width: int
    split: int
    separator: int
    entries: tuple[np.ndarray, np.ndarray]
    slots: tuple[np.ndarray, np.ndarray]

    def band(self, h: int, data: np.ndarray) -> np.ndarray:
        """Band ``h`` (0 for [A, S], 1 for [B, S] reversed) of the matrix
        with CSR data ``data``, in its own map (see Workspace.zeros) and in
        Fortran order, which lets LAPACK factor it in place."""
        w = self.width
        shape = (w + 1, self.split + self.separator if h == 0 else self.order.size - self.split)
        band = workspace().zeros(shape[0] * shape[1])
        band[self.slots[h]] = data[self.entries[h]]
        return band.reshape(shape, order="F")


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
        keys, scatter = np.unique(rows.astype(np.int64) * n + cols, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)  # keys are sorted row-major
        order = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
        # the arrays stay resident, so they are kept narrow, 2.6 MB less at
        # 100x100; bincount reads the scatter widened to intp, and a solver
        # run widens it once (see assemble)
        index = np.int32 if max(keys.size, scatter.size) < 2**31 else np.int64
        pattern = (indptr.astype(index), (keys % n).astype(index), scatter.astype(index))
        return cls((n, n), *map(off_heap, pattern), off_heap(order))

    def assemble(self, blocks: np.ndarray) -> AssembledMatrix:
        """Sum of the ``(n_elements, k, k)`` element ``blocks`` on the pattern.

        Every entry of the pattern is stored, zeros included, so the pattern
        follows the mesh alone. Entries (i, j) and (j, i) add the same
        element values in the same element order, so symmetric blocks give a
        matrix symmetric to the last bit wherever each element's DOFs are
        distinct (all meshes but a periodic cell one element wide).
        bincount reads the scatter widened to intp in a map the Workspace
        keeps (see workspace): once per solver run, else one per call.
        """
        scatter = workspace().keep(("scatter", self), self._wide_scatter)
        data = np.bincount(scatter, weights=blocks.ravel(), minlength=self.indices.size)
        matrix = AssembledMatrix((data, self.indices, self.indptr), shape=self.shape)
        matrix.assembly = self
        return matrix

    def _wide_scatter(self) -> np.ndarray:
        wide = _mapped(self.scatter.shape, np.intp)
        wide[:] = self.scatter
        return wide

    def assemble_scaled(self, *terms: tuple[np.ndarray, np.ndarray]) -> AssembledMatrix:
        """assemble of the element blocks sum_t c_t[e] m_t, summed in the
        order given, of ``terms`` ``(c_t, m_t)``: per-element coefficients
        and one ``(k, k)`` element matrix. The blocks borrow a free map of
        the Workspace (see Workspace.borrow): a dead band's inside a solver
        run, else a new map, unmapped once the matrix is summed."""
        (c, m), *rest = terms
        blocks = np.multiply(c[:, None, None], m, out=workspace().borrow((c.size, *m.shape)))
        for c, m in rest:
            blocks += c[:, None, None] * m
        return self.assemble(blocks)

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
        upper = np.flatnonzero((i >= 0) & (i <= j))  # free-free, upper in band order
        i, j = i[upper], j[upper]
        w = int((j - i).max(initial=0))
        # the w DOFs of the separator start here when the halves are worth
        # factoring at once; else the block is not split
        m, sep = (order.size - w) // 2, w
        if m * w * w < _SPLIT_MIN_MACS:
            m, sep = order.size, 0
        last = order.size - 1
        in_a, in_b = j < m + sep, i >= m
        # [B, S] reversed: entry (i, j) of the upper triangle lands at (last - j, last - i)
        halves = ((upper[in_a], w + i[in_a] - j[in_a] + (w + 1) * j[in_a]),
                  (upper[in_b], w + i[in_b] - j[in_b] + (w + 1) * (last - i[in_b])))
        size = (w + 1) * (order.size + w)
        index = np.int32 if max(self.indices.size, size) < 2**31 else np.int64
        entries, slots = (tuple(off_heap(h[k].astype(index)) for h in halves) for k in (0, 1))
        layout = _BandLayout(off_heap(order), w, m, sep, entries, slots)
        return self._layouts.setdefault(key, layout)


@lru_cache(maxsize=None)
def stiffness_assembly(grid: Grid) -> Assembly:
    """The Assembly of the grid's displacement DOFs, natural band order."""
    return Assembly.build(edof_matrix(grid), grid.n_dofs)


# A block splits only from this many multiply-adds per half (size * w^2);
# below it half A is the whole block, and S and B are empty. Half B of a
# split block is handed to the helper thread (see toacnn.helper), which
# factors and sweeps it unless the caller takes it back. Measured crossover,
# per-process solves of 12 iterations at one BLAS thread on a 2-vCPU host,
# median ms per iteration whole -> split over 5-6 alternating pairs:
# cantilever 40x40 (halves of 1.2e7) 10.1 -> 11.0 and arch 40x40 13.8 ->
# 15.8 lose; micro 40x40 (4.1e7) 17.5 -> 16.9 is even; cantilever 60x60
# (5.6e7) 27.6 -> 23.4, micro 60x60 (2.1e8) 54.5 -> 51.4, cantilever 80x80
# (1.7e8) 60.4 -> 44.5 and 100x100 (4.2e8) 108.5 -> 82.5 gain.
_SPLIT_MIN_MACS = 5 * 10**7


def _blas_routine(module, name: str, *argtypes):
    """The Fortran routine ``name`` that scipy exports from ``module``,
    bound with ctypes so that calls to it release the interpreter lock."""
    capsule = module.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, capsule_name)
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_CHAR, _INT, _PTR = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
# These kernels, like numpy's matrix-vector products, give the same bits at
# any BLAS thread count (probed on scipy's OpenBLAS 0.3.30, Haswell, at one
# and two threads); dgemm, dpotrf and dtrsm do not from moderate sizes on,
# so the separator is formed with dsyrk and factored by pbtrf.
_DPBTRF = _blas_routine(cython_lapack, "dpbtrf", _CHAR, _INT, _INT, _PTR, _INT, _INT)
_DTBSV = _blas_routine(
    cython_blas, "dtbsv", _CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT
)
_DSYRK = _blas_routine(
    cython_blas, "dsyrk", _CHAR, _CHAR, _INT, _INT, _PTR, _PTR, _INT, _PTR, _PTR, _INT
)


def _ints(*values: int):
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


def _pbtrf(band: np.ndarray, kd: int, where: str = "leading") -> None:
    """Upper Cholesky factor, in place, of the band of ``kd`` superdiagonals
    stored in the Fortran array ``band``. Raises SolverFailure, naming the
    ``where`` minor, when a leading minor is not positive definite."""
    ldab, n = band.shape
    info = ctypes.c_int(0)
    if n:
        _DPBTRF(b"U", *_ints(n, kd), band.ctypes.data, *_ints(ldab), ctypes.byref(info))
    if info.value > 0:
        raise SolverFailure(f"free block is not positive definite ({where} minor {info.value})")


def _tbsv(band: np.ndarray, kd: int, x: np.ndarray, transpose: bool, backwards: bool = False):
    """x <- U^-T x (``transpose``) or U^-1 x, U the upper band factor in
    ``band`` (as for _pbtrf) cut to its first x.size columns. With
    ``backwards`` the contiguous x holds the vector last entry first."""
    if x.size:
        _DTBSV(b"U", b"T" if transpose else b"N", b"N", *_ints(x.size, kd), band.ctypes.data,
               *_ints(band.shape[0]), x.ctypes.data, *_ints(-1 if backwards else 1))


def _lead(a: np.ndarray) -> int:
    """Leading dimension of ``a``, a Fortran-order array or a view with
    unit row stride."""
    return max(a.strides[1] // a.itemsize, 1)


def _syrk_down(c: np.ndarray, a: np.ndarray) -> None:
    """Upper triangle of c <- c - a^T a (both as for _lead)."""
    k, n = a.shape
    if k and n:
        minus, one = ctypes.c_double(-1.0), ctypes.c_double(1.0)
        _DSYRK(b"U", b"T", *_ints(n, k), ctypes.byref(minus), a.ctypes.data, *_ints(_lead(a)),
               ctypes.byref(one), c.ctypes.data, *_ints(_lead(c)))


def _band_block(band: np.ndarray, i: int, j: int, rows: int, cols: int) -> np.ndarray:
    """View of the block at (i, j) of the matrix stored as the upper band
    ``band`` (kd = band.shape[0] - 1): entry (i, j) sits at flat Fortran
    position kd + i + kd * j. Entries below the diagonal or outside the
    band alias other slots."""
    kd = band.shape[0] - 1
    flat = band.reshape(-1, order="F")
    return as_strided(flat[kd + i + kd * j :], shape=(rows, cols), strides=(8, 8 * kd))


@dataclass(frozen=True)
class Factor:
    """Cholesky factor of a matrix's free block, reusable across solves.

    One level of nested dissection (George, SIAM J. Numer. Anal. 10, 1973):
    in band order, with half-bandwidth w, the w DOFs in the middle are the
    separator S, and the DOFs before (A) and after (B) it do not couple. A
    block too small to gain from the split keeps it all in A, with S and B
    empty (see _BandLayout). ``halves`` holds the upper band factors of
    [A, S] and of [B, S] reversed, ``(width + 1, size)`` in Fortran order as
    LAPACK ``pbtrf`` leaves them. Of their S columns only the rows of A and
    B are used, W_A and W_B in ``couplings``: W_A is a view into its band,
    W_B a copy with its rows and S in their natural order. ``separator``
    holds the upper factor of the Schur complement K_SS - W_A^T W_A -
    W_B^T W_B as a full band, stored ``(s + 1, s)`` for the s DOFs of S.
    Build it with factorize.
    """

    matrix: AssembledMatrix
    fixed_dofs: np.ndarray
    order: np.ndarray
    width: int
    halves: tuple[np.ndarray, np.ndarray]
    couplings: tuple[np.ndarray, np.ndarray]
    separator: np.ndarray

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
        """K^-1 b in band order, in place of b: the halves forward, the
        separator, the halves back. Half B's band runs in reverse order, so
        its sweeps read B's part of b backwards; they go to the helper thread."""
        (band_a, band_b), (w_a, w_b), w = self.halves, self.couplings, self.width
        sep = self.separator.shape[1]
        if not sep:  # a block too small to split is half A alone
            _tbsv(band_a, w, b, True)
            _tbsv(band_a, w, b, False)
            return b
        m = band_a.shape[1] - sep
        x_a, x_s, x_b = b[:m], b[m : m + sep], b[m + sep :]
        tail_a, head_b = x_a[m - w_a.shape[0] :], x_b[: w_b.shape[0]]
        for transpose in (True, False):
            if not transpose:
                tail_a -= w_a @ x_s
                head_b -= w_b @ x_s
            with helper.Jobs() as half_b:
                half_b.submit(_tbsv, band_b, w, x_b, transpose, True)
                _tbsv(band_a, w, x_a, transpose)
            if transpose:
                x_s -= w_a.T @ tail_a + w_b.T @ head_b
                _tbsv(self.separator, sep - 1, x_s, True)
                _tbsv(self.separator, sep - 1, x_s, False)
        return b


def factorize(matrix: AssembledMatrix, fixed_dofs: np.ndarray) -> Factor:
    """Cholesky-factor the free block of ``matrix`` once, for many solves.

    ``matrix`` must come from Assembly.assemble; its free block (rows and
    columns not in ``fixed_dofs``) must be symmetric positive definite, and
    only its upper triangle is read. The block is ordered as the assembly
    says, natural for the open meshes and folded for the periodic cell (see
    microstructure), and split into two half bands and a separator (see
    Factor). LAPACK ``pbtrf`` factors the two halves at once, half B handed
    to the helper thread, and then the separator's Schur complement; a
    block too small to gain from the split is factored whole. The layout is
    built once per assembly and Dirichlet set. A block that is not positive
    definite raises SolverFailure.
    """
    assembly = getattr(matrix, "assembly", None)
    if assembly is None:
        raise TypeError("factorize needs a matrix built by Assembly.assemble")
    fixed_dofs = np.ascontiguousarray(fixed_dofs, dtype=np.int64)
    if fixed_dofs.size == 0:
        raise ValueError("at least one constrained DOF is required")
    layout = assembly.band_layout(fixed_dofs)
    w, m, sep = layout.width, layout.split, layout.separator
    band_a = layout.band(0, matrix.data)
    if not sep:  # a block too small to split is half A alone
        _pbtrf(band_a, w)
        empty = band_a[:0, :0]
        return Factor(matrix, fixed_dofs, layout.order, w, (band_a, band_a[:, :0]),
                      (empty, empty), band_a[:1, :0])
    band_b = layout.band(1, matrix.data)
    halves = band_a, band_b
    # The separator and W_B share a map of their own. From the heap, such
    # blocks left between a 100x100 solve's large arrays raised the peak
    # resident size of the work that followed by 4 MB in a third of the runs.
    rows = [min(band.shape[1] - sep, w) for band in halves]
    memory = workspace().zeros((sep + 1 + rows[1]) * sep)
    separator = memory[: (sep + 1) * sep].reshape((sep + 1, sep), order="F")
    # A full band (kd = sep - 1) with ldab = sep + 1 is the dense Fortran
    # matrix with leading dimension sep that starts at flat position sep - 1,
    # so dsyrk forms the separator's Schur complement where pbtrf factors it.
    # Below the diagonal that matrix overlays the band's unused slots.
    schur = separator.reshape(-1, order="F")[sep - 1 : sep - 1 + sep * sep]
    schur = schur.reshape((sep, sep), order="F")
    schur[...] = _band_block(band_a, m, m, sep, sep)  # K_SS, before pbtrf overwrites it
    schur[np.tril_indices(sep, -1)] = 0.0
    with helper.Jobs() as half_b:
        half_b.submit(_pbtrf, band_b, w)
        _pbtrf(band_a, w)
    couplings = []
    for band, k in zip(halves, rows):
        # The factor's rows of the half against S. In this view the entries
        # further than w from the diagonal alias the factor of the half's own
        # S block, which nothing reads, so they are zeroed in place.
        size = band.shape[1] - sep
        couplings.append(_band_block(band, size - k, size, k, sep))
        couplings[-1][np.triu_indices(k, w - k + 1, sep)] = 0.0
    w_a, reversed_w_b = couplings
    w_b = memory[(sep + 1) * sep :].reshape(reversed_w_b.shape, order="F")
    w_b[...] = reversed_w_b[::-1, ::-1]  # B's rows and S back in their natural order
    for coupling in (w_a, w_b):
        _syrk_down(schur, coupling)
    _pbtrf(separator, sep - 1, "separator")
    return Factor(matrix, fixed_dofs, layout.order, w, halves, (w_a, w_b), separator)


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
    ce = np.einsum("ni,ni->n", ue @ element_stiffness(material), ue)
    c = float(np.dot(simp_moduli(rho.values, penal, material), ce))
    return c, ce
