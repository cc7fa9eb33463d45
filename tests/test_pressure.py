"""Darcy-with-drainage pressure model, load transfer, adjoint, arch solver."""

import math

import numpy as np
import pytest

from toacnn.fem import DensityField, Grid, compliance
from toacnn.pressure import (
    _COUPLING,
    _LAPLACE,
    _MASS,
    PressureConfig,
    arch_analysis,
    arch_sensitivities,
    arch_supports,
    assemble_darcy,
    evaluate_arch,
    flow_properties,
    pressure_boundary,
    pressure_to_loads,
    pressure_to_loads_transpose,
    solve_arch,
    solve_pressure,
)


class TestElementMatrices:
    def test_laplace_closed_form(self):
        ref = np.array(
            [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]]
        ) / 6.0
        assert np.abs(_LAPLACE - ref).max() < 1e-14

    def test_mass_closed_form(self):
        ref = np.array(
            [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]]
        ) / 36.0
        assert np.abs(_MASS - ref).max() < 1e-14

    def test_mass_integrates_to_area(self):
        assert _MASS.sum() == pytest.approx(1.0, abs=1e-15)

    def test_laplace_annihilates_constants(self):
        assert np.abs(_LAPLACE @ np.ones(4)).max() < 1e-15

    def test_coupling_against_symbolic_integration(self):
        import sympy as spy

        x, y = spy.symbols("x y")
        shapes = [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y]
        ref = np.zeros((8, 4))
        for i, ni in enumerate(shapes):
            for j, nj in enumerate(shapes):
                ref[2 * i, j] = float(spy.integrate(ni * spy.diff(nj, x), (x, 0, 1), (y, 0, 1)))
                ref[2 * i + 1, j] = float(spy.integrate(ni * spy.diff(nj, y), (x, 0, 1), (y, 0, 1)))
        assert np.abs(_COUPLING - ref).max() < 1e-14

    def test_uniform_pressure_gives_no_force(self):
        # constant p has zero gradient: every row of T sums to zero
        assert np.abs(_COUPLING @ np.ones(4)).max() < 1e-15


class TestFlowProperties:
    def test_void_and_solid_limits(self):
        cfg = PressureConfig(nelx=4, nely=4)
        k, d = flow_properties(np.array([0.0, 1.0]), cfg)
        assert k[0] == 1.0 and d[0] == 0.0  # H(0) = 0 exactly
        assert k[1] == pytest.approx(cfg.eps_k, rel=1e-12)
        assert d[1] == pytest.approx(cfg.drainage, rel=1e-12)

    def test_drainage_calibration(self):
        cfg = PressureConfig()
        # decay rate in solid: sqrt(d_s / (eps_k kmax)) = |ln r_d| / delta_s
        rate = math.sqrt(cfg.drainage / (cfg.eps_k * cfg.kmax))
        assert rate == pytest.approx(abs(math.log(0.1)) / 2.0, rel=1e-12)


class TestPressureField:
    def test_boundary_nodes(self):
        g = Grid(3, 2)
        fixed, vals = pressure_boundary(g, 1.0)
        assert sorted(fixed[vals == 1.0]) == [2, 5, 8, 11]  # bottom row
        assert sorted(fixed[vals == 0.0]) == [0, 3, 6, 9]  # top row

    def test_void_column_linear_profile(self):
        cfg = PressureConfig(nelx=4, nely=50)
        fld = DensityField(cfg.grid, np.zeros(200))
        _, p = solve_pressure(assemble_darcy(fld, cfg), cfg.grid, 1.0)
        rows = np.arange(51)
        for c in range(5):
            node_p = p[c * 51 + rows]
            assert np.abs(node_p - rows / 50.0).max() < 1e-10

    def test_solid_column_decay_depth(self):
        # 1-D column of solid: pressure at depth delta_s should sit near
        # r_d * p0; FE at unit resolution lands within 14 percent
        cfg = PressureConfig(nelx=1, nely=100)
        fld = DensityField(cfg.grid, np.ones(100))
        _, p = solve_pressure(assemble_darcy(fld, cfg), cfg.grid, 1.0)
        depth2 = p[100 - 2]  # node two elements above the inlet
        assert depth2 == pytest.approx(0.1, rel=0.2)
        assert depth2 == pytest.approx(0.08610566, rel=1e-6)

    def test_discrete_max_principle(self):
        cfg = PressureConfig(nelx=10, nely=10)
        rng = np.random.default_rng(8)
        for _ in range(5):
            fld = DensityField(cfg.grid, rng.uniform(0.0, 1.0, 100))
            _, p = solve_pressure(assemble_darcy(fld, cfg), cfg.grid, 1.0)
            assert p.min() >= -1e-10 and p.max() <= 1.0 + 1e-10

    def test_matrix_symmetric(self):
        cfg = PressureConfig(nelx=5, nely=5)
        rng = np.random.default_rng(2)
        a = assemble_darcy(DensityField(cfg.grid, rng.uniform(0, 1, 25)), cfg)
        assert abs(a - a.T).max() == 0.0


class TestLoads:
    def test_uniform_pressure_no_load(self):
        g = Grid(4, 3)
        f = pressure_to_loads(np.full(g.n_nodes, 0.7), g)
        assert np.abs(f).max() < 1e-14

    def test_vertical_gradient_pushes_up(self):
        # p decreasing with height: body force -grad p points up
        g = Grid(4, 4)
        xy = g.node_coords()
        p = 1.0 - xy[:, 1] / 4.0
        f = pressure_to_loads(p, g)
        assert f[1::2].sum() == pytest.approx(16.0 * 0.25, rel=1e-12)  # area * |dp/dy|
        assert np.abs(f[0::2].sum()) < 1e-13

    def test_transpose_consistency(self):
        g = Grid(3, 4)
        rng = np.random.default_rng(1)
        p = rng.standard_normal(g.n_nodes)
        v = rng.standard_normal(g.n_dofs)
        # <v, -T p> must equal <-T^T v, p>
        lhs = float(v @ pressure_to_loads(p, g))
        rhs = float(-pressure_to_loads_transpose(v, g) @ p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSensitivities:
    def test_adjoint_matches_central_differences(self):
        cfg = PressureConfig(nelx=6, nely=6, vf=0.4, support_halfwidth=1)
        rng = np.random.default_rng(0)
        rho = rng.uniform(0.25, 0.75, 36)
        fld = DensityField(cfg.grid, rho)
        darcy, p, _, u = arch_analysis(fld, cfg)
        _, ce = compliance(u, fld, cfg.penal, cfg.material)
        dc = arch_sensitivities(u, p, fld, cfg, ce, darcy)
        eps = 1e-6
        fd = np.zeros(36)
        for e in range(36):
            rp, rm = rho.copy(), rho.copy()
            rp[e] += eps
            rm[e] -= eps
            fd[e] = (
                evaluate_arch(DensityField(cfg.grid, rp), cfg)
                - evaluate_arch(DensityField(cfg.grid, rm), cfg)
            ) / (2 * eps)
        assert np.abs(dc - fd).max() / np.abs(fd).max() < 1e-3

    def test_frozen_load_variant_drops_adjoint_term(self):
        cfg = PressureConfig(nelx=5, nely=5, vf=0.4, support_halfwidth=1, lst=0)
        rng = np.random.default_rng(3)
        fld = DensityField(cfg.grid, rng.uniform(0.3, 0.7, 25))
        darcy, p, _, u = arch_analysis(fld, cfg)
        _, ce = compliance(u, fld, cfg.penal, cfg.material)
        expect = -cfg.penal * fld.values**2.0 * (1.0 - 1e-9) * ce
        dc = arch_sensitivities(u, p, fld, cfg, ce, darcy)
        assert dc == pytest.approx(expect, rel=1e-12)


class TestArchSolve:
    def test_supports_cover_corner_bands(self):
        cfg = PressureConfig(nelx=10, nely=4, support_halfwidth=2)
        dofs = arch_supports(cfg)
        nodes = np.unique(dofs // 2)
        cols = nodes // 5
        rows = nodes % 5
        assert np.all(rows == 4)  # bottom edge only
        assert sorted(cols) == [0, 1, 2, 8, 9, 10]

    def test_small_run_contracts(self):
        cfg = PressureConfig(nelx=12, nely=12, vf=0.3, maxit=12, support_halfwidth=2)
        res = solve_arch(cfg)
        assert len(res.history) == res.iterations == 12
        v = res.field.values
        assert v.min() >= 0.0 and v.max() <= 1.0
        # MMA majorizes the volume constraint: iterates stay feasible
        assert v.mean() <= cfg.vf + 1e-9
        assert evaluate_arch(res.field, cfg) == res.objective

    def test_deterministic(self):
        cfg = PressureConfig(nelx=10, nely=10, vf=0.35, maxit=8, support_halfwidth=2)
        a = solve_arch(cfg)
        b = solve_arch(cfg)
        assert np.array_equal(a.field.values, b.field.values)
        assert a.objective == b.objective

    def test_one_darcy_factor_per_iteration(self, monkeypatch):
        import toacnn.fem as fem
        import toacnn.pressure as pressure

        calls = {"factorize": 0, "assemble_darcy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # the elastic solve reaches factorize through fem.solve_many
        monkeypatch.setattr(fem, "factorize", counted("factorize", fem.factorize))
        monkeypatch.setattr(pressure, "factorize", fem.factorize)
        monkeypatch.setattr(
            pressure, "assemble_darcy", counted("assemble_darcy", pressure.assemble_darcy)
        )
        cfg = PressureConfig(nelx=8, nely=8, vf=0.35, maxit=3, support_halfwidth=2)
        solve_arch(cfg)
        # per iteration: Darcy (reused by the adjoint) and elasticity; then
        # the final re-analysis by evaluate_arch: the same two again
        assert calls == {"factorize": 2 * 3 + 2, "assemble_darcy": 3 + 1}

    def test_rejects_bad_lst(self):
        with pytest.raises(ValueError):
            PressureConfig(lst=2)
