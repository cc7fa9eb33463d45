"""Element matrices, assembly, and the eliminated direct solve."""

import contextlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import toacnn

from toacnn.errors import SolverFailure
from toacnn.fem import (
    Assembly,
    DensityField,
    Grid,
    Material,
    assemble_stiffness,
    compliance,
    edof_matrix,
    element_nodes,
    element_stiffness,
    factorize,
    simp_derivative,
    simp_moduli,
    solve_many,
    stiffness_assembly,
)
from toacnn.microstructure import _periodic_edof, periodic_assembly
from toacnn.pressure import (
    _LAPLACE,
    _MASS,
    PressureConfig,
    _darcy_assembly,
    assemble_darcy,
    pressure_boundary,
)


def closed_form_ke(nu):
    """Exact unit-modulus stiffness of the unit bilinear quad, plane stress.

    Closed form of the integral; all entries are integer multiples of
    1 / (24 (1 - nu^2)) plus nu times another integer multiple.
    """
    a11 = np.array([[12, 3, -6, -3], [3, 12, 3, 0], [-6, 3, 12, -3], [-3, 0, -3, 12]], float)
    a12 = np.array([[-6, -3, 0, 3], [-3, -6, -3, -6], [0, -3, -6, 3], [3, -6, 3, -6]], float)
    b11 = np.array([[-4, 3, -2, 9], [3, -4, -9, 4], [-2, -9, -4, -3], [9, 4, -3, -4]], float)
    b12 = np.array([[2, -3, 4, -9], [-3, 2, 9, -2], [4, 9, 2, 3], [-9, -2, 3, 2]], float)
    a = np.block([[a11, a12], [a12.T, a11]])
    b = np.block([[b11, b12], [b12.T, b11]])
    return (a + nu * b) / (24.0 * (1.0 - nu**2))


def sympy_ke(nu):
    """Independent oracle: symbolic integration of B^T D B over the unit square."""
    import sympy as spy

    x, y = spy.symbols("x y")
    shapes = [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y]
    d = spy.Matrix([[1, nu, 0], [nu, 1, 0], [0, 0, spy.Rational(1, 2) * (1 - nu)]]) / (1 - nu**2)
    b = spy.zeros(3, 8)
    for i, n in enumerate(shapes):
        b[0, 2 * i] = spy.diff(n, x)
        b[1, 2 * i + 1] = spy.diff(n, y)
        b[2, 2 * i] = spy.diff(n, y)
        b[2, 2 * i + 1] = spy.diff(n, x)
    ke = spy.integrate(spy.integrate(b.T * d * b, (x, 0, 1)), (y, 0, 1))
    return np.array(ke.evalf(30), dtype=float)


class TestElementStiffness:
    def test_matches_closed_form(self):
        ke = element_stiffness(Material())
        assert np.abs(ke - closed_form_ke(0.3)).max() <= 1e-12

    def test_matches_symbolic_integration(self):
        for nu in (0.0, 0.3, 0.45):
            ke = element_stiffness(Material(nu=nu))
            assert np.abs(ke - sympy_ke(spq(nu))).max() <= 1e-12

    def test_exactly_symmetric(self):
        ke = element_stiffness(Material())
        assert np.abs(ke - ke.T).max() == 0.0

    def test_rigid_modes_in_nullspace(self):
        ke = element_stiffness(Material())
        tx = np.tile([1.0, 0.0], 4)
        ty = np.tile([0.0, 1.0], 4)
        # infinitesimal rotation about the element center: u = (-(y-c), x-c)
        xy = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float) - 0.5
        rot = np.column_stack([-xy[:, 1], xy[:, 0]]).ravel()
        for mode in (tx, ty, rot):
            assert np.abs(ke @ mode).max() < 1e-14

    def test_positive_semidefinite_rank_five(self):
        w = np.linalg.eigvalsh(element_stiffness(Material()))
        assert w[0] > -1e-14
        assert np.sum(w < 1e-12) == 3  # exactly the rigid modes

    def test_cached_per_material_and_read_only(self):
        ke = element_stiffness(Material())
        assert element_stiffness(Material()) is ke
        assert element_stiffness(Material(nu=0.25)) is not ke
        with pytest.raises(ValueError, match="read-only"):
            ke[0, 0] = 0.0


def spq(nu):
    """Rational nu for sympy where exact, else float."""
    import sympy as spy

    return spy.Rational(3, 10) if nu == 0.3 else spy.nsimplify(nu, rational=True)


class TestGridIndexing:
    def test_node_ids_column_major_top_down(self):
        g = Grid(2, 3)
        assert g.node_id(0, 0) == 0
        assert g.node_id(0, 3) == 3
        assert g.node_id(1, 0) == 4
        assert g.node_id(2, 3) == 11
        assert g.n_nodes == 12 and g.n_dofs == 24

    def test_node_coords_y_up(self):
        g = Grid(1, 2)
        xy = g.node_coords()
        assert xy[g.node_id(0, 0)].tolist() == [0.0, 2.0]  # top-left
        assert xy[g.node_id(0, 2)].tolist() == [0.0, 0.0]  # bottom-left
        assert xy[g.node_id(1, 0)].tolist() == [1.0, 2.0]

    def test_edof_single_element(self):
        g = Grid(1, 1)
        nodes = element_nodes(g)[0]
        # LL, LR, UR, UL with ids col*(nely+1)+row
        assert nodes.tolist() == [1, 3, 2, 0]
        edof = edof_matrix(g)[0]
        assert edof.tolist() == [2, 3, 6, 7, 4, 5, 0, 1]

    def test_edof_row_major_element_order(self):
        g = Grid(2, 2)
        nodes = element_nodes(g)
        # e = row*nelx + col; element 1 is top-right
        assert nodes[1].tolist() == [4, 7, 6, 3]
        assert nodes[2].tolist() == [2, 5, 4, 1]  # bottom-left

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid(0, 5)


class TestDensityField:
    def test_rejects_out_of_range(self):
        g = Grid(2, 2)
        with pytest.raises(ValueError):
            DensityField(g, np.array([0.5, 0.5, 0.5, 1.5]))
        with pytest.raises(ValueError):
            DensityField(g, np.array([0.5, -0.1, 0.5, 0.5]))

    def test_rejects_wrong_size_and_nan(self):
        g = Grid(2, 2)
        with pytest.raises(ValueError):
            DensityField(g, np.zeros(5))
        with pytest.raises(ValueError):
            DensityField(g, np.array([0.5, np.nan, 0.5, 0.5]))

    def test_image_roundtrip(self):
        img = np.linspace(0, 1, 12).reshape(3, 4)
        f = DensityField.from_image(img)
        assert f.grid == Grid(4, 3)
        assert np.array_equal(f.as_image(), img)


class TestAssembly:
    def test_solid_equals_scattered_unit_blocks(self):
        g = Grid(3, 2)
        mat = Material()
        ke = element_stiffness(mat)
        k = assemble_stiffness(DensityField(g, np.ones(g.n_elements)), 3.0, mat)
        ref = np.zeros((g.n_dofs, g.n_dofs))
        for edof in edof_matrix(g):
            ref[np.ix_(edof, edof)] += mat.e0 * ke
        assert np.abs(k.toarray() - ref).max() < 1e-12

    def test_bitwise_symmetric(self):
        g = Grid(4, 3)
        rng = np.random.default_rng(0)
        rho = DensityField(g, rng.uniform(size=g.n_elements))
        k = assemble_stiffness(rho, 3.0, Material())
        assert abs(k - k.T).max() == 0.0

    def test_factorize_rejects_matrices_from_elsewhere(self):
        g, k, f, fixed = cantilever_1x1()
        with pytest.raises(TypeError, match="Assembly"):
            factorize(sp.csr_array(k), fixed)
        with pytest.raises(TypeError, match="Assembly"):
            factorize(2.0 * k, fixed)  # sparse arithmetic drops the assembly

    def test_simp_void_floor(self):
        vals = simp_moduli(np.array([0.0, 1.0]), 3.0, Material())
        assert vals[0] == 1e-9
        assert vals[1] == 1.0


def reference_simp_sensitivity(x, penal, mat, e):
    """The SIMP compliance sensitivity written out, -p x^(p-1) (e0 - emin) e."""
    return -penal * x ** (penal - 1.0) * (mat.e0 - mat.emin) * e


def test_simp_derivative_is_bitwise_the_inline_expression():
    rng = np.random.default_rng(11)
    for penal in (1.0, 3.0, 4.5):
        mat = Material(e0=rng.uniform(0.5, 2.0), emin=1e-9, nu=0.3)
        x = rng.uniform(0.0, 1.0, 500)
        e = rng.uniform(0.0, 10.0, 500)
        ref = reference_simp_sensitivity(x, penal, mat, e)
        assert (simp_derivative(x, penal, mat) * e).tobytes() == ref.tobytes()


def coo_reference(edof, n, blocks):
    """The matrix summed the plain way: COO triplets to CSR."""
    k = edof.shape[1]
    rows = np.repeat(edof, k, axis=1).ravel()
    cols = np.tile(edof, (1, k)).ravel()
    return sp.coo_array((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assembly_cases(g, w):
    """(name, assembly, DOF map, blocks) of the elastic, Darcy and periodic
    maps on grid ``g`` with element weights ``w``."""
    ke = element_stiffness(Material())
    ke_w = w[:, None, None] * ke
    darcy = w[:, None, None] * _LAPLACE + (1.0 - w)[:, None, None] * _MASS
    return [
        ("elastic", stiffness_assembly(g), edof_matrix(g), ke_w),
        ("darcy", _darcy_assembly(g), element_nodes(g), darcy),
        ("periodic", periodic_assembly(g), _periodic_edof(g.nelx, g.nely), ke_w),
    ]


class TestScatterAssembly:
    @pytest.mark.parametrize("shape", [(5, 4), (7, 7), (12, 3)])
    def test_matches_coo_sum_and_is_bit_symmetric(self, shape):
        g = Grid(*shape)
        rng = np.random.default_rng(20)
        for name, assembly, edof, blocks in assembly_cases(g, rng.uniform(1e-3, 1.0, g.n_elements)):
            k = assembly.assemble(blocks)
            ref = coo_reference(edof, assembly.shape[0], blocks)
            assert np.array_equal(k.indptr, ref.indptr) and np.array_equal(k.indices, ref.indices), name
            assert np.allclose(k.data, ref.data, rtol=1e-14, atol=0.0), name
            assert abs(k - k.T).max() == 0.0, name

    def test_uniform_field_keeps_explicit_zeros(self):
        g = Grid(6, 5)
        rng = np.random.default_rng(21)
        for (name, assembly, edof, uniform), (_, _, _, random) in zip(
            assembly_cases(g, np.full(g.n_elements, 0.5)),
            assembly_cases(g, rng.uniform(0.1, 1.0, g.n_elements)),
        ):
            k = assembly.assemble(uniform)
            ref = coo_reference(edof, assembly.shape[0], random)  # no cancellation
            assert k.nnz == ref.nnz and np.array_equal(k.indices, ref.indices), name
            if name != "darcy":  # elastic blocks cancel exactly on a uniform field
                assert np.count_nonzero(k.data) < k.nnz, name

    def test_folded_periodic_band_is_narrower_than_natural(self):
        fixed = np.array([0, 1])
        for n, width in ((100, 405), (40, 165)):
            assert periodic_assembly(Grid(n, n)).band_layout(fixed).width == width
        g = Grid(10, 8)
        folded = periodic_assembly(g)
        natural = Assembly.build(_periodic_edof(g.nelx, g.nely), 2 * g.n_elements)
        assert folded.band_layout(fixed).width < natural.band_layout(fixed).width


def cantilever_1x1():
    g = Grid(1, 1)
    mat = Material()
    rho = DensityField(g, np.ones(1))
    k = assemble_stiffness(rho, 3.0, mat)
    f = np.zeros(g.n_dofs)
    tip = g.node_id(1, 0)
    f[2 * tip + 1] = -1.0
    fixed = np.array(
        [2 * g.node_id(0, 0), 2 * g.node_id(0, 0) + 1, 2 * g.node_id(0, 1), 2 * g.node_id(0, 1) + 1]
    )
    return g, k, f, fixed


class TestSolve:
    def test_single_element_matches_dense_elimination(self):
        g, k, f, fixed = cantilever_1x1()
        u = solve_many(k, f, fixed)[0]
        kd = k.toarray()
        free = np.setdiff1d(np.arange(g.n_dofs), fixed)
        uref = np.zeros(g.n_dofs)
        uref[free] = np.linalg.solve(kd[np.ix_(free, free)], f[free])
        assert np.abs(u - uref).max() <= 1e-9

    def test_random_grid_matches_dense_elimination(self):
        rng = np.random.default_rng(7)
        g = Grid(5, 4)
        rho = DensityField(g, rng.uniform(0.05, 1.0, g.n_elements))
        k = assemble_stiffness(rho, 3.0, Material())
        f = rng.standard_normal(g.n_dofs)
        fixed = np.array([0, 1, 2, 3, 8, 9])
        u = solve_many(k, f, fixed)[0]
        kd = k.toarray()
        free = np.setdiff1d(np.arange(g.n_dofs), fixed)
        uref = np.zeros(g.n_dofs)
        uref[free] = np.linalg.solve(kd[np.ix_(free, free)], f[free])
        assert np.abs(u - uref).max() < 1e-8

    def test_prescribed_values_enter_rhs(self):
        rng = np.random.default_rng(3)
        g = Grid(3, 3)
        rho = DensityField(g, rng.uniform(0.2, 1.0, g.n_elements))
        k = assemble_stiffness(rho, 3.0, Material())
        fixed = np.array([0, 1, 20, 21])
        vals = np.array([0.1, -0.2, 0.0, 0.3])
        u = factorize(k, fixed).solve(np.zeros(g.n_dofs), vals)[0]
        assert u[fixed] == pytest.approx(vals, abs=0)
        free = np.setdiff1d(np.arange(g.n_dofs), fixed)
        resid = (k @ u)[free]
        assert np.abs(resid).max() < 1e-8 * np.abs(k @ u).max()

    def test_failure_carries_residual(self):
        g, k, f, fixed = cantilever_1x1()
        with pytest.raises(SolverFailure) as exc:
            factorize(k, fixed).solve(f, tol=0.0)
        assert exc.value.residual is not None

    def test_requires_constraints(self):
        g, k, f, fixed = cantilever_1x1()
        with pytest.raises(ValueError):
            solve_many(k, f, np.array([], dtype=int))

    def test_multi_rhs_shares_factorization(self):
        g, k, f, fixed = cantilever_1x1()
        f2 = np.zeros_like(f)
        f2[2 * g.node_id(1, 1)] = 1.0
        u = solve_many(k, np.stack([f, f2]), fixed)
        u0 = solve_many(k, f, fixed)[0]
        u1 = solve_many(k, f2, fixed)[0]
        assert np.array_equal(u[0], u0)
        assert np.array_equal(u[1], u1)


def dense_eliminated_solve(k, f, fixed, values):
    """Reference: dense solve of the free block with the lifted right-hand side."""
    kd = k.toarray()
    free = np.setdiff1d(np.arange(kd.shape[0]), fixed)
    u = np.zeros(kd.shape[0])
    u[fixed] = values
    u[free] = np.linalg.solve(kd[np.ix_(free, free)], f[free] - kd[np.ix_(free, fixed)] @ values)
    return u


def periodic_stiffness(rho, penal, mat):
    """Reduced periodic-cell stiffness, assembled the way homogenize does."""
    blocks = simp_moduli(rho.values, penal, mat)[:, None, None] * element_stiffness(mat)
    return periodic_assembly(rho.grid).assemble(blocks)


class TestFactor:
    def test_darcy_block_in_natural_order_matches_dense(self):
        cfg = PressureConfig(nelx=9, nely=7)
        rng = np.random.default_rng(5)
        rho = DensityField(cfg.grid, rng.uniform(0.0, 1.0, cfg.grid.n_elements))
        a = assemble_darcy(rho, cfg)
        fixed, values = pressure_boundary(cfg.grid, cfg.p0)
        f = rng.standard_normal(cfg.grid.n_nodes)
        factor = factorize(a, fixed)
        assert np.array_equal(factor.order, np.setdiff1d(np.arange(cfg.grid.n_nodes), fixed))
        u = factor.solve(f, values)[0]
        uref = dense_eliminated_solve(a, f, fixed, values)
        assert np.linalg.norm(u - uref) <= 1e-8 * np.linalg.norm(uref)

    def test_periodic_block_takes_folded_band_and_matches_dense(self):
        g = Grid(10, 8)
        rng = np.random.default_rng(6)
        rho = DensityField(g, rng.uniform(0.1, 1.0, g.n_elements))
        k = periodic_stiffness(rho, 3.0, Material())
        fixed = np.array([0, 1])
        factor = factorize(k, fixed)
        free = np.arange(2, k.shape[0])
        natural = int(max(abs(r - c) for r, c in zip(*k.nonzero()) if r >= 2 and c >= 2))
        assert not np.array_equal(factor.order, free)
        assert np.array_equal(np.sort(factor.order), free)
        assert factor.width < natural
        f = rng.standard_normal((3, k.shape[0]))
        u = factor.solve(f)
        for i in range(3):
            uref = dense_eliminated_solve(k, f[i], fixed, np.zeros(2))
            assert np.linalg.norm(u[i] - uref) <= 1e-8 * np.linalg.norm(uref)

    def test_reused_factor_matches_separate_solves_bitwise(self):
        rng = np.random.default_rng(8)
        g = Grid(6, 5)
        rho = DensityField(g, rng.uniform(0.05, 1.0, g.n_elements))
        k = assemble_stiffness(rho, 3.0, Material())
        fixed = np.arange(2 * (g.nely + 1))
        f1, f2 = rng.standard_normal((2, g.n_dofs))
        values = rng.standard_normal(fixed.size)
        factor = factorize(k, fixed)
        u1 = factor.solve(f1, values)
        u2 = factor.solve(f2)
        assert np.array_equal(u1, factorize(k, fixed).solve(f1, values))
        assert np.array_equal(u2, solve_many(k, f2, fixed))

    def test_indefinite_block_raises_solver_failure(self):
        g, k, f, fixed = cantilever_1x1()
        negated = k.assembly.assemble(-element_stiffness(Material())[None])
        with pytest.raises(SolverFailure, match="positive definite"):
            solve_many(negated, f, fixed)
        with pytest.raises(SolverFailure):
            factorize(negated, fixed)

    @pytest.mark.parametrize("split", ["none", "middle"])
    def test_tiny_blocks_with_short_or_empty_halves_match_dense(self, split, monkeypatch):
        # One back-solve (no refinement at tol=inf) against a dense solve.
        # Tiny blocks are not split: half A is the whole block, S and B are
        # empty. With no floor they split in the middle, where half A is
        # empty or shorter than the band width and half B goes to the helper.
        import toacnn.fem as fem

        if split == "middle":
            monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)
        rng = np.random.default_rng(13)
        shapes = set()
        for nelx, nely in [(1, 1), (2, 1), (1, 3), (3, 2), (2, 5), (6, 1)]:
            g = Grid(nelx, nely)
            values = rng.uniform(0.2, 1.0, g.n_elements)
            for name, cached, edof, blocks in assembly_cases(g, values):
                fixed = np.array([0, 1]) if name != "elastic" else np.arange(2 * (g.nely + 1))
                k = Assembly.build(edof, cached.shape[0], cached.order).assemble(blocks)
                factor = factorize(k, fixed)
                for half, band in zip("AB", factor.halves):
                    size = band.shape[1] - factor.separator.shape[1]
                    kind = "empty" if size == 0 else "short" if size < factor.width else "long"
                    shapes.add((half, kind))
                f = rng.standard_normal(k.shape[0])
                u = factor.solve(f, tol=np.inf)[0]
                uref = dense_eliminated_solve(k, f, fixed, np.zeros(fixed.size))
                assert np.linalg.norm(u - uref) <= 1e-10 * np.linalg.norm(uref), (name, nelx, nely)
        if split == "none":
            assert {shape for half, shape in shapes if half == "B"} == {"empty"}
        else:
            assert {("A", "empty"), ("A", "short")} <= shapes

    @pytest.mark.parametrize("part", ["A", "B", "separator"])
    def test_block_indefinite_in_one_part_raises(self, part, monkeypatch):
        # a chain of 2x2 blocks on DOFs 0..7 with DOF 7 fixed: the free block
        # is tridiagonal, w = 1, and with no floor it splits in the middle,
        # A = {0, 1, 2}, S = {3}, B = {4, 5, 6}. With unit diagonal and
        # off-diagonal c, [A, S] and [B, S] are positive definite for c = 0.6
        # while the whole block is not; a coupling of 2 inside a half makes
        # that half indefinite.
        import toacnn.fem as fem

        monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)
        edof = np.column_stack([np.arange(7), np.arange(1, 8)])
        assembly = Assembly.build(edof, 8)
        c = np.full(7, 0.6 if part == "separator" else 0.1)
        if part != "separator":
            c[{"A": 0, "B": 5}[part]] = 2.0
        c[6] = 0.0  # the fixed DOF's coupling
        blocks = np.array([[[0.5, x], [x, 0.5]] for x in c])
        blocks[0, 0, 0] = 1.0  # unit diagonal on the first DOF too
        k = assembly.assemble(blocks)
        fixed = np.array([7])
        layout = assembly.band_layout(fixed)
        assert (layout.width, layout.split) == (1, 3)
        free = k.toarray()[:7, :7]
        assert np.linalg.eigvalsh(free).min() < 0.0
        if part == "separator":
            assert np.linalg.eigvalsh(free[:4, :4]).min() > 0.0
            assert np.linalg.eigvalsh(free[3:, 3:]).min() > 0.0
        where = "separator minor" if part == "separator" else "leading minor"
        with pytest.raises(SolverFailure, match=f"positive definite.*{where}"):
            factorize(k, fixed)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_indefinite_half_on_either_thread_raises(self, side, monkeypatch):
        import toacnn.fem as fem

        # with no floor the block splits in the middle and half B is
        # factored on the helper thread
        monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)
        g = Grid(40, 20)
        assembly = Assembly.build(edof_matrix(g), g.n_dofs)
        fixed = np.arange(2 * (g.nely + 1))
        layout = assembly.band_layout(fixed)
        assert 0 < layout.split < layout.order.size - layout.width
        moduli = np.ones((g.nely, g.nelx))
        moduli[:, slice(0, 3) if side == "left" else slice(-3, None)] = -1.0
        k = assembly.assemble(moduli.ravel()[:, None, None] * element_stiffness(Material()))
        with pytest.raises(SolverFailure, match="positive definite"):
            factorize(k, fixed)

    def test_layout_is_built_once_per_assembly_and_dirichlet_set(self, monkeypatch):
        import toacnn.fem as fem

        built = []
        layout_type = fem._BandLayout

        def counted(order, *args):
            built.append(order.size)
            return layout_type(order, *args)

        monkeypatch.setattr(fem, "_BandLayout", counted)
        rng = np.random.default_rng(9)
        g = Grid(7, 6)
        ke = element_stiffness(Material())
        blocks = [
            np.full(g.n_elements, 0.5)[:, None, None] * ke,
            rng.uniform(0.05, 1.0, g.n_elements)[:, None, None] * ke,
        ]
        assembly = Assembly.build(edof_matrix(g), g.n_dofs)  # fresh: no layouts yet
        fixed = np.arange(2 * (g.nely + 1))
        # a uniform field makes some assembled entries cancel to exactly zero;
        # they stay in the pattern, so both matrices share one band layout
        mats = [assembly.assemble(b) for b in blocks]
        assert np.count_nonzero(mats[0].data) < mats[0].nnz == mats[1].nnz
        warm = [factorize(k, fixed) for k in mats]
        n_free = g.n_dofs - fixed.size
        assert built == [n_free]  # same assembly and Dirichlet set: one layout
        factorize(mats[0], fixed[:-1])
        assert built == [n_free, n_free + 1]  # a different Dirichlet set
        cold = factorize(Assembly.build(edof_matrix(g), g.n_dofs).assemble(blocks[1]), fixed)
        assert len(built) == 3
        assert np.array_equal(cold.order, warm[1].order)
        for name in ("halves", "couplings"):
            for a, b in zip(getattr(cold, name), getattr(warm[1], name)):
                assert np.array_equal(a, b)
        assert np.array_equal(cold.separator, warm[1].separator)

    @pytest.mark.parametrize("floor", ["default", "none"])
    def test_concurrent_factorizations_match_serial(self, floor, monkeypatch):
        import threading

        import toacnn.fem as fem

        if floor == "none":  # every half B goes to the one helper thread
            monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)
        rng = np.random.default_rng(10)
        ke = element_stiffness(Material())
        cases = []
        for nelx in range(3, 15):
            g = Grid(nelx, 3)
            blocks = rng.uniform(0.1, 1.0, g.n_elements)[:, None, None] * ke
            fixed = np.arange(2 * (g.nely + 1))
            f = rng.standard_normal(g.n_dofs)
            ref = solve_many(Assembly.build(edof_matrix(g), g.n_dofs).assemble(blocks), f, fixed)
            cases.append((g, blocks, fixed, f, ref))
        # fresh assemblies, shared by all threads: their layouts are built
        # while other threads factor on the same assembly
        shared = [Assembly.build(edof_matrix(g), g.n_dofs) for g, *_ in cases]
        errors = []

        def worker(offset):
            try:
                for i in range(4 * len(cases)):
                    case = (i + offset) % len(cases)
                    _, blocks, fixed, f, ref = cases[case]
                    if not np.array_equal(factorize(shared[case].assemble(blocks), fixed).solve(f), ref):
                        errors.append(f"case {case} differs")
            except Exception as exc:  # reported below with the case
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(len(a._layouts) == 1 for a in shared)

    def test_split_solve_takes_back_its_half_from_a_busy_helper(self, monkeypatch):
        import threading

        import toacnn.fem as fem
        from toacnn import helper

        g = Grid(12, 6)
        rng = np.random.default_rng(14)
        blocks = rng.uniform(0.1, 1.0, g.n_elements)[:, None, None] * element_stiffness(Material())
        fixed = np.arange(2 * (g.nely + 1))
        f = np.zeros(g.n_dofs)
        f[2 * (g.nelx * (g.nely + 1) + g.nely) + 1] = -1.0
        # with no floor the block splits, so the factorization and every
        # back-solve hand half B to the helper
        monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)
        k = Assembly.build(edof_matrix(g), g.n_dofs).assemble(blocks)
        assert k.assembly.band_layout(fixed).separator > 0
        free = factorize(k, fixed).solve(f)
        # the helper is kept busy, so the caller takes each half B back
        event = threading.Event()
        result = []
        solver = threading.Thread(target=lambda: result.append(factorize(k, fixed).solve(f)))
        try:
            helper.submit(event.wait, 30)
            solver.start()
            solver.join(timeout=5)
            assert not solver.is_alive() and not event.is_set()
        finally:
            event.set()
            solver.join(timeout=60)
        assert np.array_equal(result[0], free)

    @pytest.mark.parametrize("problem", ["cantilever", "micro"])
    def test_one_factorization_per_iteration(self, problem, monkeypatch):
        import toacnn.fem as fem
        from toacnn.cantilever import CantileverConfig, solve_cantilever
        from toacnn.microstructure import MicroConfig, solve_micro

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return factorize(*args, **kwargs)

        monkeypatch.setattr(fem, "factorize", counted)
        if problem == "cantilever":
            res = solve_cantilever(CantileverConfig(nelx=12, nely=6, max_iters=3))
        else:
            res = solve_micro(MicroConfig(nelx=8, nely=8, max_iters=3))
        # one per iteration, then one for the final re-analysis
        assert res.iterations == 3
        assert len(calls) == res.iterations + 1


_THREAD_PROBE = """
import hashlib

from toacnn.cantilever import CantileverConfig, solve_cantilever
from toacnn.microstructure import MicroConfig, solve_micro
from toacnn.pressure import PressureConfig, solve_arch

runs = [
    solve_cantilever(CantileverConfig(nelx=100, nely=100, max_iters=2)),
    solve_arch(PressureConfig(nelx=40, nely=40, vf=0.3, maxit=4)),
    solve_micro(MicroConfig(nelx=40, nely=40, max_iters=3)),
    solve_micro(MicroConfig(nelx=100, nely=100, max_iters=1)),  # folded band, w = 405
]
for r in runs:
    print(hashlib.sha256(r.field.values.tobytes()).hexdigest(), repr(r.objective))
"""


def test_results_do_not_depend_on_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(toacnn.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]


def test_large_solve_leaves_one_helper_thread():
    import threading

    from toacnn.cantilever import CantileverConfig, solve_cantilever

    solve_cantilever(CantileverConfig(nelx=100, nely=100, max_iters=1))
    helpers = [t for t in threading.enumerate() if t.name.startswith("toacnn-helper")]
    assert len(helpers) == 1


class TestCompliance:
    def test_energy_matches_work(self):
        rng = np.random.default_rng(11)
        g = Grid(6, 4)
        rho = DensityField(g, rng.uniform(0.0, 1.0, g.n_elements))
        mat = Material()
        k = assemble_stiffness(rho, 3.0, mat)
        f = np.zeros(g.n_dofs)
        f[2 * g.node_id(6, 2) + 1] = -1.0
        fixed = np.arange(2 * (g.nely + 1))  # clamp the whole left edge
        u = solve_many(k, f, fixed)[0]
        c, ce = compliance(u, rho, 3.0, mat)
        assert np.all(ce >= 0.0)
        assert c == pytest.approx(float(f @ u), rel=1e-8)
        assert c == pytest.approx(float(u @ (k @ u)), rel=1e-8)


def _field(g, seed):
    return DensityField(g, np.random.default_rng(seed).uniform(0.05, 1.0, g.n_elements))


def _band_address(factor):
    return factor.halves[0].__array_interface__["data"][0]


class TestWorkspace:
    """A solver run's Workspace reuses dead factors' maps and never a live one."""

    @pytest.mark.parametrize("split", ["none", "middle"])
    def test_held_factor_solves_the_same_after_later_factorizations(self, split, monkeypatch):
        import toacnn.fem as fem

        if split == "middle":  # separator and half B too, at a size that runs fast
            monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)
        g, mat = Grid(16, 8), Material()
        fixed = np.arange(2 * (g.nely + 1))
        f = np.random.default_rng(3).standard_normal((2, g.n_dofs))
        outside = factorize(assemble_stiffness(_field(g, 0), 3.0, mat), fixed).solve(f)
        with fem.Workspace():
            held = factorize(assemble_stiffness(_field(g, 0), 3.0, mat), fixed)
            before = held.solve(f)
            # each of these dies before the next, so its maps come back and are
            # handed out again, never the held factor's
            addresses = set()
            for seed in range(1, 5):
                later = factorize(assemble_stiffness(_field(g, seed), 3.0, mat), fixed)
                later.solve(f)
                assert later.halves[0].base is not held.halves[0].base
                addresses.add(_band_address(later))
                del later
            after = held.solve(f)
        assert len(addresses) == 1  # the dead factors' band was reused
        assert _band_address(held) not in addresses
        assert before.tobytes() == after.tobytes() == outside.tobytes()

    def test_reused_band_is_zeroed_before_the_scatter(self):
        import toacnn.fem as fem

        g, mat = Grid(12, 6), Material()
        fixed = np.arange(2 * (g.nely + 1))
        k = assemble_stiffness(_field(g, 1), 3.0, mat)
        layout = k.assembly.band_layout(fixed)
        fresh = layout.band(0, k.data)
        with fem.Workspace():
            first = factorize(k, fixed)
            address = _band_address(first)
            del first  # pbtrf left its fill in the map
            band = layout.band(0, k.data)
            assert band.__array_interface__["data"][0] == address
            assert band.tobytes() == fresh.tobytes()

    def test_closing_drops_the_runs_maps_but_not_a_live_factors(self, monkeypatch):
        import weakref

        import toacnn.fem as fem

        g, mat = Grid(12, 6), Material()
        fixed = np.arange(2 * (g.nely + 1))
        factorize(assemble_stiffness(_field(g, 1), 3.0, mat), fixed)  # builds the layout
        maps = []
        real_map = fem._anonymous_map
        monkeypatch.setattr(fem, "_anonymous_map", lambda n: maps.append(real_map(n)) or maps[-1])
        with fem.Workspace() as ws:
            held = factorize(assemble_stiffness(_field(g, 1), 3.0, mat), fixed)
            factorize(assemble_stiffness(_field(g, 2), 3.0, mat), fixed)  # dies at once
        maps = [weakref.ref(m) for m in maps]
        # two bands, the wide scatter, and two maps of blocks, which had no
        # dead band to borrow
        assert len(maps) == 5
        assert sum(m() is not None for m in maps) == 1  # only the held factor's band
        assert ws._maps == [] and ws._kept == {}
        del held
        assert all(m() is None for m in maps)

    # the split block gets a grid of its own, whose cached layout is split
    @pytest.mark.parametrize("split, nelx, nely", [("none", 12, 6), ("middle", 9, 5)])
    def test_outside_a_run_every_map_is_gone_once_the_analysis_returns(self, split, nelx, nely,
                                                                        monkeypatch):
        import weakref

        import toacnn.fem as fem
        from toacnn.cantilever import CantileverConfig, evaluate_cantilever

        if split == "middle":  # separator and half B too
            monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)
        cfg = CantileverConfig(nelx=nelx, nely=nely)
        rho = _field(cfg.grid, 1)
        expected = evaluate_cantilever(rho, cfg)  # builds the cached patterns and layout
        maps = []
        real_map = fem._anonymous_map
        monkeypatch.setattr(fem, "_anonymous_map", lambda n: maps.append(real_map(n)) or maps[-1])
        assert evaluate_cantilever(rho, cfg) == expected
        maps = [weakref.ref(m) for m in maps]
        # the band (two, and the separator's map, when split), the element
        # blocks and the wide scatter
        assert len(maps) == (5 if split == "middle" else 3)
        assert all(m() is None for m in maps)

    def test_darcy_factor_serves_the_adjoint_after_the_elastic_solve(self):
        import toacnn.fem as fem
        from toacnn.pressure import arch_analysis, pressure_to_loads_transpose

        cfg = PressureConfig(nelx=20, nely=10, vf=0.3)
        fields = [_field(cfg.grid, seed) for seed in (4, 5)]
        results = []
        for scope in (None, fem.Workspace()):
            with scope or contextlib.nullcontext():
                out = []
                for rho in fields:  # the second analysis reuses the first's maps
                    darcy, p, f, u = arch_analysis(rho, cfg)
                    mu = darcy.solve(pressure_to_loads_transpose(2.0 * u, cfg.grid)[None, :])
                    out.append(b"".join(a.tobytes() for a in (p, f, u, mu)))
                results.append(out)
        assert results[0] == results[1]

    @pytest.mark.parametrize("problem", ["cantilever", "arch", "micro"])
    def test_results_inside_and_outside_a_run_are_equal(self, problem):
        import toacnn.fem as fem
        from toacnn.cantilever import CantileverConfig
        from toacnn.microstructure import MicroConfig, homogenize

        g = Grid(14, 10)
        cfg = {"cantilever": CantileverConfig, "arch": PressureConfig, "micro": MicroConfig}[problem](
            nelx=g.nelx, nely=g.nely, vf=0.4
        )

        def analyses():
            out = []
            for seed in (6, 7, 6):
                rho = _field(g, seed)
                out.append(repr(cfg.evaluate(rho)).encode())
                if problem == "micro":
                    out.extend(a.tobytes() for a in homogenize(rho, cfg.penal, cfg.material))
            return out

        outside = analyses()
        with fem.Workspace():
            inside = analyses()
        assert inside == outside

    def test_concurrent_runs_keep_their_own_workspaces(self, monkeypatch):
        import threading

        import toacnn.fem as fem

        monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)  # half B on the shared helper thread
        mat = Material()
        cases = []
        for nelx in (8, 10, 12):
            g = Grid(nelx, 4)
            fixed = np.arange(2 * (g.nely + 1))
            f = np.random.default_rng(nelx).standard_normal(g.n_dofs)
            rhos = [_field(g, seed) for seed in range(3)]
            refs = [solve_many(assemble_stiffness(rho, 3.0, mat), f, fixed) for rho in rhos]
            cases.append((fixed, f, rhos, refs))
        errors = []

        def worker(offset):
            try:
                with fem.Workspace() as ws:
                    held = []
                    for i in range(24):
                        fixed, f, rhos, refs = cases[(i + offset) % len(cases)]
                        j = i % len(rhos)
                        factor = factorize(assemble_stiffness(rhos[j], 3.0, mat), fixed)
                        if fem._WORKSPACE.get() is not ws:
                            errors.append("another thread's workspace")
                        if i % 5 == 0:  # held across later factorizations of this run
                            held.append((factor, f, refs[j]))
                        if not np.array_equal(factor.solve(f), refs[j]):
                            errors.append(f"case {i} differs")
                    for factor, f, ref in held:
                        if not np.array_equal(factor.solve(f), ref):
                            errors.append("a held factor changed")
            except Exception as exc:  # reported below
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert fem._WORKSPACE.get() is None
