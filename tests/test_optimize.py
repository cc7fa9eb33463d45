"""The problem interface and driver, filter weights, OC volume control, MMA
step, projection."""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toacnn.fem import Grid
from toacnn.optimize import (
    _ALBEFA,
    _ASYDECR,
    _ASYINCR,
    _ASYINIT,
    _ELASTIC,
    _RAA0,
    FilterKernel,
    MmaState,
    SimpConfig,
    build_filter,
    mma_update,
    oc_update,
    optimize,
    sensitivity_filter,
    smooth_heaviside,
)


@dataclass(frozen=True)
class MeanConfig(SimpConfig):
    """A toy problem: the objective is the mean density."""

    objective_name: ClassVar[str] = "mean"

    def evaluate(self, rho):
        return float(rho.values.mean())


class TestDriver:
    def test_history_stop_rule_and_final_reanalysis(self):
        seen = []

        def step(rho, it):
            seen.append(it)
            return float(rho.sum()), 0.5 * rho

        res = optimize(MeanConfig(nelx=2, nely=2), np.ones(4), step, 10, change_tol=0.2)
        assert seen == [1, 2, 3]  # changes 0.5, 0.25, 0.125
        assert res.iterations == 3
        assert res.history == [(4.0, 0.5), (2.0, 0.25), (1.0, 0.125)]
        assert res.field.grid == Grid(2, 2)
        assert res.objective == 0.125

    def test_zero_tolerance_runs_every_iteration(self):
        res = optimize(MeanConfig(nelx=2, nely=2), np.ones(4), lambda r, it: (0.0, r), 4)
        assert res.iterations == 4
        assert [c for _, c in res.history] == [0.0] * 4

    @pytest.mark.parametrize("vf", [0.0, 1.0])
    def test_base_config_checks_vf(self, vf):
        with pytest.raises(ValueError, match="vf must lie in"):
            MeanConfig(vf=vf)


def brute_force_weights(grid, rmin):
    """O(n^2) reference: w_ej = max(0, rmin - dist) for every element pair."""
    nely, nelx = grid.nely, grid.nelx
    n = grid.n_elements
    w = np.zeros((n, n))
    for e in range(n):
        er, ec = divmod(e, nelx)
        for j in range(n):
            jr, jc = divmod(j, nelx)
            w[e, j] = max(0.0, rmin - math.hypot(ec - jc, er - jr))
    return w


class TestFilter:
    def test_weights_match_brute_force(self):
        g = Grid(7, 5)
        k = build_filter(g, 2.4)
        assert np.abs(k.weights.toarray() - brute_force_weights(g, 2.4)).max() < 1e-14

    def test_interior_neighbor_count_rmin_2_4(self):
        # offsets with dx^2 + dy^2 < 5.76: self, 4 at 1, 4 at 2, 4 at 4, 8 at 5
        g = Grid(7, 7)
        k = build_filter(g, 2.4)
        center = 3 * 7 + 3
        assert k.weights[[center]].count_nonzero() == 21

    def test_axial_weight_value(self):
        g = Grid(5, 5)
        k = build_filter(g, 2.4)
        center = 2 * 5 + 2
        right = 2 * 5 + 3
        assert k.weights[center, right] == pytest.approx(1.4, abs=0)

    def test_row_sums(self):
        g = Grid(3, 3)
        k = build_filter(g, 1.5)
        # corner: self 1.5 + two axial 0.5 + one diagonal (sqrt2 < 1.5) ~0.086
        diag = 1.5 - math.sqrt(2.0)
        assert k.weight_sums[0] == pytest.approx(1.5 + 2 * 0.5 + diag)
        assert k.weight_sums[4] == pytest.approx(1.5 + 4 * 0.5 + 4 * diag)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            build_filter(Grid(3, 3), 0.0)


class TestSensitivityFilter:
    def test_hand_computed_strip(self):
        g = Grid(3, 1)
        k = build_filter(g, 1.5)
        rho = np.array([0.8, 0.5, 0.2])
        dc = np.array([-1.0, -2.0, -3.0])
        out = sensitivity_filter(rho, dc, k)
        # center: (0.5*0.8*-1 + 1.5*0.5*-2 + 0.5*0.2*-3) / (0.5 * 2.5) = -1.76
        assert out[1] == pytest.approx(-1.76)
        # left: (1.5*0.8*-1 + 0.5*0.5*-2) / (0.8 * 2.0) = -1.0625
        assert out[0] == pytest.approx(-1.0625)

    def test_zero_density_guard(self):
        g = Grid(2, 1)
        k = build_filter(g, 1.5)
        rho = np.array([0.0, 0.0])
        dc = np.array([-1.0, -1.0])
        out = sensitivity_filter(rho, dc, k)
        assert np.all(np.isfinite(out))
        assert np.all(out == 0.0)  # numerator vanishes with the densities

    def test_uniform_field_fixed_point(self):
        # constant rho and dc: weighted average returns dc unchanged
        g = Grid(6, 6)
        k = build_filter(g, 2.4)
        rho = np.full(36, 0.4)
        dc = np.full(36, -2.5)
        assert sensitivity_filter(rho, dc, k) == pytest.approx(dc)

    def test_preserves_sign(self):
        g = Grid(5, 5)
        k = build_filter(g, 2.4)
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.0, 1.0, 25)
        dc = -rng.uniform(0.0, 10.0, 25)
        assert np.all(sensitivity_filter(rho, dc, k) <= 0.0)


class TestOcUpdate:
    def test_two_element_closed_form(self):
        # x_e = rho_e sqrt(-dc_e / lambda); mean = vf gives sqrt(lambda) = 1.5
        rho = np.array([0.5, 0.5])
        dc = np.array([-4.0, -1.0])
        out = oc_update(rho, dc, np.ones(2), 0.5, move=0.5)
        assert out == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-6)

    def test_volume_tolerance(self):
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.2, 0.8, 400)
        dc = -rng.uniform(0.1, 5.0, 400)
        out = oc_update(rho, dc, np.ones(400), 0.45)
        assert abs(out.mean() - 0.45) <= 1e-4

    def test_move_and_box_limits(self):
        rng = np.random.default_rng(2)
        rho = rng.uniform(0.0, 1.0, 300)
        dc = -rng.uniform(0.0, 3.0, 300)
        out = oc_update(rho, dc, np.ones(300), 0.5, move=0.2)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.abs(out - rho).max() <= 0.2 + 1e-12

    def test_rejects_positive_sensitivities(self):
        with pytest.raises(ValueError):
            oc_update(np.array([0.5]), np.array([1.0]), np.ones(1), 0.5)

    def test_unreachable_target_saturates_move(self):
        rho = np.full(4, 0.1)
        out = oc_update(rho, -np.ones(4), np.ones(4), 0.9, move=0.2)
        assert out == pytest.approx(rho + 0.2, abs=0)

    @given(
        seed=st.integers(0, 2**31 - 1),
        vf=st.floats(0.05, 0.95),
        move=st.floats(0.05, 0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_contract_random(self, seed, vf, move):
        rng = np.random.default_rng(seed)
        n = 64
        rho = rng.uniform(0.0, 1.0, n)
        dc = -rng.uniform(0.0, 10.0, n)
        out = oc_update(rho, dc, np.ones(n), vf, move=move)
        assert np.all(out >= np.maximum(0.0, rho - move) - 1e-15)
        assert np.all(out <= np.minimum(1.0, rho + move) + 1e-15)
        lo_mean = np.maximum(0.0, rho - move).mean()
        hi_mean = np.minimum(1.0, rho + move).mean()
        if lo_mean <= vf <= hi_mean:
            assert abs(out.mean() - vf) <= 1e-4
        else:
            # target unreachable: pinned at the nearer bound
            assert out.mean() == pytest.approx(np.clip(vf, lo_mean, hi_mean), abs=1e-12)


def reference_oc_update(rho, dc, dv, vf_target, move=0.2):
    """The OC step as first written: volume(lmid) evaluated twice per step."""
    lo = np.maximum(0.0, rho - move)
    hi = np.minimum(1.0, rho + move)
    if hi.mean() <= vf_target:
        return hi
    if lo.mean() >= vf_target:
        return lo
    base = rho * np.sqrt(np.maximum(-dc, 0.0) / dv)

    def volume(lam):
        return float(np.clip(base / math.sqrt(lam), lo, hi).mean())

    l1, l2 = 1e-40, 1e40
    for _ in range(256):
        lmid = math.sqrt(l1 * l2)
        if volume(lmid) > vf_target:
            l1 = lmid
        else:
            l2 = lmid
        if abs(volume(lmid) - vf_target) <= 1e-9:
            break
    lam = math.sqrt(l1 * l2)
    return np.clip(base / math.sqrt(lam), lo, hi)


class TestOcMatchesReference:
    def test_bitwise_on_seeded_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            rho = rng.uniform(0.0, 1.0, n)
            dc = -rng.uniform(0.0, 10.0, n) * (rng.uniform(size=n) < 0.9)
            dv = rng.uniform(0.5, 2.0, n)
            vf = float(rng.uniform(0.02, 0.98))
            move = float(rng.uniform(0.01, 0.5))
            out = oc_update(rho, dc, dv, vf, move)
            assert out.tobytes() == reference_oc_update(rho, dc, dv, vf, move).tobytes()


def reference_mma_update(state, rho, dobj, constraint, dconstraint, iteration, move=0.2):
    """The MMA step as first written, with all 128 bisection steps; also
    returns the multiplier it chose."""
    xmin, xmax = 0.0, 1.0
    xrange = xmax - xmin
    n = rho.size
    if iteration <= 2 or state.xold1 is None or state.xold2 is None:
        low = rho - _ASYINIT * xrange
        upp = rho + _ASYINIT * xrange
    else:
        zzz = (rho - state.xold1) * (state.xold1 - state.xold2)
        factor = np.ones(n)
        factor[zzz > 0.0] = _ASYINCR
        factor[zzz < 0.0] = _ASYDECR
        low = rho - factor * (state.xold1 - state.low)
        upp = rho + factor * (state.upp - state.xold1)
        low = np.clip(low, rho - 10.0 * xrange, rho - 0.01 * xrange)
        upp = np.clip(upp, rho + 0.01 * xrange, rho + 10.0 * xrange)
    alfa = np.maximum(np.maximum(xmin, low + _ALBEFA * (rho - low)), rho - move * xrange)
    beta = np.minimum(np.minimum(xmax, upp - _ALBEFA * (upp - rho)), rho + move * xrange)
    ux1 = upp - rho
    xl1 = rho - low
    ux2 = ux1 * ux1
    xl2 = xl1 * xl1
    op = np.maximum(dobj, 0.0)
    om = np.maximum(-dobj, 0.0)
    cp = np.maximum(dconstraint, 0.0)
    cm = np.maximum(-dconstraint, 0.0)
    p0 = (1.001 * op + 0.001 * om + _RAA0 / xrange) * ux2
    q0 = (0.001 * op + 1.001 * om + _RAA0 / xrange) * xl2
    pc = (1.001 * cp + 0.001 * cm) * ux2
    qc = (0.001 * cp + 1.001 * cm) * xl2
    b = float(np.sum(pc / ux1 + qc / xl1) - constraint)

    def primal(lam):
        sp_ = np.sqrt(p0 + lam * pc)
        sq_ = np.sqrt(q0 + lam * qc)
        return np.clip((low * sp_ + upp * sq_) / (sp_ + sq_), alfa, beta)

    def theta(lam):
        x = primal(lam)
        return float(np.sum(pc / (upp - x) + qc / (x - low)) - b)

    if theta(0.0) <= 0.0:
        lam_star = 0.0
    elif theta(_ELASTIC) > 0.0:
        lam_star = _ELASTIC
    else:
        hi = 1.0
        while hi < _ELASTIC and theta(hi) > 0.0:
            hi *= 2.0
        hi = min(hi, _ELASTIC)
        lo_l = 0.0
        for _ in range(128):
            mid = 0.5 * (lo_l + hi)
            if theta(mid) > 0.0:
                lo_l = mid
            else:
                hi = mid
        lam_star = hi
    x_new = primal(lam_star)
    th = theta(lam_star)
    if lam_star == _ELASTIC:
        th -= max(0.0, th)
    kkt = abs(lam_star * th) + max(0.0, th)
    new_state = MmaState(
        low=low,
        upp=upp,
        xold1=rho.copy(),
        xold2=None if state.xold1 is None else state.xold1.copy(),
        kkt_residual=kkt,
    )
    return x_new, new_state, lam_star, theta


class TestMmaMatchesReference:
    def assert_same_step(self, state, rho, dobj, g, dg, it):
        x, new = mma_update(state, rho, dobj, g, dg, iteration=it)
        x_ref, ref, lam, _ = reference_mma_update(state, rho, dobj, g, dg, it)
        assert x.tobytes() == x_ref.tobytes()
        assert new.kkt_residual == ref.kkt_residual
        assert new.low.tobytes() == ref.low.tobytes() and new.upp.tobytes() == ref.upp.tobytes()
        return new, lam

    def test_bitwise_over_seeded_runs(self):
        rng = np.random.default_rng(32)
        lams = []
        for vf in [0.1, 0.35, 0.5, 0.65, 0.95] * 3:  # out of reach, binding, slack
            n = int(rng.integers(5, 200))
            rho = rng.uniform(0.0, 1.0, n)
            state = MmaState()
            for it in range(1, 9):
                dobj = rng.uniform(-4.0, 1.0, n)
                g, dg = volume_constraint(rho, vf)
                state, lam = self.assert_same_step(state, rho, dobj, g, dg, it)
                lams.append(lam)
                rho = np.clip(rho + rng.uniform(-0.1, 0.1, n), 0.0, 1.0)
        assert _ELASTIC in lams and 0.0 in lams
        assert any(0.0 < lam < _ELASTIC for lam in lams)

    def test_bitwise_with_multiplier_near_zero(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(5, 100))
            rho = rng.uniform(0.1, 0.9, n)
            dobj = rng.uniform(-2e-5, 2e-5, n)  # keeps x(0) off the move limits
            dg = rng.uniform(0.5, 1.5, n) / n
            # theta grows by the constraint value: start it a hair above 0
            _, _, _, theta = reference_mma_update(MmaState(), rho, dobj, 0.0, dg, 1)
            t0 = theta(0.0)
            g = -t0 + 1e-9 * abs(t0) + 1e-300
            _, lam = self.assert_same_step(MmaState(), rho, dobj, g, dg, 1)
            assert 0.0 < lam < 1e-3


def volume_constraint(rho, vf):
    n = rho.size
    return float(rho.mean() / vf - 1.0), np.full(n, 1.0 / (n * vf))


class TestMmaUpdate:
    def test_zero_gradient_is_stationary(self):
        rho = np.full(10, 0.4)
        g, dg = -0.5, np.zeros(10)  # slack constraint
        out, _ = mma_update(MmaState(), rho, np.zeros(10), g, dg, iteration=1)
        assert np.abs(out - rho).max() < 1e-12

    def test_descent_direction(self):
        # negative objective gradient pushes densities up until volume binds
        rho = np.full(20, 0.3)
        g, dg = volume_constraint(rho, 0.4)
        out, state = mma_update(MmaState(), rho, -np.ones(20), g, dg, iteration=1)
        assert np.all(out > rho)
        assert out.mean() <= 0.4 + 1e-12
        assert state.kkt_residual < 1e-9

    def test_iterates_stay_feasible(self):
        rng = np.random.default_rng(9)
        n, vf = 50, 0.5
        rho = np.full(n, vf)
        state = MmaState()
        for it in range(1, 16):
            dobj = -rng.uniform(0.1, 4.0, n)
            g, dg = volume_constraint(rho, vf)
            rho, state = mma_update(state, rho, dobj, g, dg, iteration=it)
            assert np.all(rho >= 0.0) and np.all(rho <= 1.0)
            # rational approximation majorizes the linear constraint, so
            # every accepted iterate is truly feasible
            assert rho.mean() <= vf + 1e-10
            assert state.kkt_residual < 1e-9

    def test_constraint_scaling_invariance(self):
        rng = np.random.default_rng(4)
        n = 30
        rho = rng.uniform(0.2, 0.8, n)
        dobj = -rng.uniform(0.5, 2.0, n)
        g, dg = volume_constraint(rho, 0.4)
        a, _ = mma_update(MmaState(), rho, dobj, g, dg, iteration=1)
        b, _ = mma_update(MmaState(), rho, dobj, 1000.0 * g, 1000.0 * dg, iteration=1)
        assert np.abs(a - b).max() < 1e-9

    def test_objective_scaling_invariance(self):
        rng = np.random.default_rng(12)
        n = 30
        rho = rng.uniform(0.2, 0.8, n)
        dobj = -rng.uniform(0.5, 2.0, n)
        g, dg = volume_constraint(rho, 0.4)
        a, _ = mma_update(MmaState(), rho, dobj, g, dg, iteration=1)
        b, _ = mma_update(MmaState(), rho, 50.0 * dobj, g, dg, iteration=1)
        # raa0 is additive on the objective side, so this is near- but not
        # bit-exact
        assert np.abs(a - b).max() < 1e-6

    def test_asymptotes_shrink_on_oscillation(self):
        n = 5
        state = MmaState(
            low=np.full(n, -0.5 + 0.45),
            upp=np.full(n, 0.5 + 0.45),
            xold1=np.full(n, 0.5),
            xold2=np.full(n, 0.4),
        )
        rho = np.full(n, 0.4)  # moved down after moving up: oscillation
        g, dg = volume_constraint(rho, 0.9)
        _, new = mma_update(state, rho, np.full(n, -0.1), g, dg, iteration=3)
        old_span = state.xold1[0] - state.low[0]
        assert new.low[0] == pytest.approx(rho[0] - 0.7 * old_span)

    def test_asymptotes_expand_on_monotone_progress(self):
        n = 5
        state = MmaState(
            low=np.full(n, 0.3 - 0.5),
            upp=np.full(n, 0.3 + 0.5),
            xold1=np.full(n, 0.4),
            xold2=np.full(n, 0.3),
        )
        rho = np.full(n, 0.5)
        g, dg = volume_constraint(rho, 0.9)
        _, new = mma_update(state, rho, np.full(n, -0.1), g, dg, iteration=3)
        old_span = state.xold1[0] - state.low[0]
        assert new.low[0] == pytest.approx(rho[0] - 1.2 * old_span)

    def test_converges_on_separable_quadratic(self):
        # minimize sum (x - 0.3)^2 subject to mean(x) <= 0.5
        # The 0.01-range asymptote floor leaves a small limit cycle around
        # the optimum, so check the cycle midpoint tightly and the iterate
        # loosely.
        n = 8
        rho = np.full(n, 0.8)
        state = MmaState()
        prev = rho
        for it in range(1, 150):
            dobj = 2.0 * (rho - 0.3)
            g, dg = volume_constraint(rho, 0.5)
            prev = rho
            rho, state = mma_update(state, rho, dobj, g, dg, iteration=it)
        assert rho == pytest.approx(np.full(n, 0.3), abs=5e-3)
        assert 0.5 * (rho + prev) == pytest.approx(np.full(n, 0.3), abs=1e-3)

    def test_infeasible_start_restores_feasibility(self):
        # mean 0.8 against target 0.4: one step cannot reach the feasible
        # set, so the elastic branch takes the largest allowed move down
        n = 20
        rho = np.full(n, 0.8)
        g, dg = volume_constraint(rho, 0.4)
        out, state = mma_update(MmaState(), rho, -np.ones(n), g, dg, iteration=1)
        assert out == pytest.approx(rho - 0.2, abs=1e-6)
        assert state.kkt_residual < 1e-9

    def test_rejects_non_finite_inputs(self):
        rho = np.full(3, 0.5)
        with pytest.raises(ValueError):
            mma_update(MmaState(), rho, np.array([np.nan, 0, 0]), -0.1, np.zeros(3), 1)
        with pytest.raises(ValueError):
            mma_update(MmaState(), rho, np.zeros(3), np.inf, np.zeros(3), 1)


class TestSmoothHeaviside:
    def test_endpoints_exact(self):
        h, _ = smooth_heaviside(np.array([0.0, 1.0]), 0.2, 8.0)
        assert h[0] == 0.0
        assert h[1] == 1.0

    def test_midpoint_value(self):
        # (tanh(1.6) + tanh(8*0.3)) / (tanh(1.6) + tanh(6.4))
        h, _ = smooth_heaviside(0.5, 0.2, 8.0)
        expect = (math.tanh(1.6) + math.tanh(2.4)) / (math.tanh(1.6) + math.tanh(6.4))
        assert float(h) == pytest.approx(expect, abs=1e-15)

    def test_monotone_and_derivative_positive(self):
        x = np.linspace(0.0, 1.0, 101)
        h, dh = smooth_heaviside(x, 0.2, 8.0)
        assert np.all(np.diff(h) > 0.0)
        assert np.all(dh > 0.0)

    def test_derivative_matches_finite_difference(self):
        x = np.linspace(0.05, 0.95, 19)
        eps = 1e-6
        h_p, _ = smooth_heaviside(x + eps, 0.2, 8.0)
        h_m, _ = smooth_heaviside(x - eps, 0.2, 8.0)
        _, dh = smooth_heaviside(x, 0.2, 8.0)
        assert dh == pytest.approx((h_p - h_m) / (2 * eps), rel=1e-6)

    def test_sharpens_with_beta(self):
        h_soft, _ = smooth_heaviside(0.15, 0.2, 2.0)
        h_sharp, _ = smooth_heaviside(0.15, 0.2, 64.0)
        assert h_sharp < h_soft  # below threshold pushed toward 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            smooth_heaviside(0.5, 0.2, 0.0)
        with pytest.raises(ValueError):
            smooth_heaviside(0.5, 1.5, 8.0)
