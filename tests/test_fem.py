"""Element matrices, assembly, and the eliminated direct solve."""

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
        assert factor.bandwidth < natural
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
        assert np.array_equal(cold.cholesky, warm[1].cholesky)

    def test_concurrent_factorizations_match_serial(self):
        import threading

        rng = np.random.default_rng(10)
        ke = element_stiffness(Material())
        cases = []
        for nelx in range(3, 15):
            g = Grid(nelx, 3)
            blocks = rng.uniform(0.1, 1.0, g.n_elements)[:, None, None] * ke
            fixed = np.arange(2 * (g.nely + 1))
            f = rng.standard_normal(g.n_dofs)
            ref = solve_many(stiffness_assembly(g).assemble(blocks), f, fixed)
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
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


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
