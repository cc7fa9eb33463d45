"""The output checks: the oracle is right, and every check can fail."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checks
import workloads
from toacnn import dataset
from toacnn.cantilever import CantileverConfig, evaluate_cantilever
from toacnn.fem import DensityField, Grid, Material, element_stiffness
from toacnn.microstructure import MicroConfig, evaluate_micro


def rigid_modes() -> np.ndarray:
    """x and y translation and an infinitesimal rotation of the unit square,
    nodes LL (0,0), LR (1,0), UR (1,1), UL (0,1)."""
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    modes = np.zeros((3, 8))
    modes[0, 0::2] = 1.0
    modes[1, 1::2] = 1.0
    modes[2, 0::2] = -xy[:, 1]
    modes[2, 1::2] = xy[:, 0]
    return modes


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.49))
def test_element_matrix_is_symmetric_psd_with_three_rigid_modes(nu):
    ke = checks.top88_element_matrix(nu)
    assert np.array_equal(ke, ke.T)
    eig = np.linalg.eigvalsh(ke)
    assert eig.min() > -1e-12
    assert int(np.sum(np.abs(eig) < 1e-10)) == 3
    assert np.sort(eig)[3] > 1e-3
    assert np.abs(ke @ rigid_modes().T).max() < 1e-12


def test_element_matrix_agrees_with_quadrature():
    assert np.abs(checks.top88_element_matrix(0.3) - element_stiffness(Material())).max() < 1e-12


def test_reanalysis_matches_program_on_a_random_design():
    rng = np.random.default_rng(4)
    image = rng.uniform(0.0, 1.0, (6, 9))
    cfg = CantileverConfig(nelx=9, nely=6)
    want = evaluate_cantilever(DensityField.from_image(image), cfg)
    got = checks.cantilever_compliance(image, 3.0, 0.3, 1e-9)
    assert abs(got - want) <= 1e-9 * want


def test_check_design_rejects_off_volume_and_out_of_range():
    good = np.full(100, 0.4)
    assert checks.check_design(good, 0.4) == []
    assert checks.check_design(good + 2e-4, 0.4)
    bad = good.copy()
    bad[0] = 1.5
    assert checks.check_design(bad, 0.4)


def test_check_solve_rejects_wrong_objective():
    assert checks.check_solve(10.0, 50.0, 10.0) == []
    assert checks.check_solve(10.0 * (1 + 1e-5), 50.0, 10.0)
    assert checks.check_solve(60.0, 50.0, 60.0)
    assert checks.check_solve(math.nan, 50.0, 10.0)


def test_input_pgm_check_counts_solid_pixels():
    img = dataset.make_input_image(0.37, 10, 10)
    assert checks.check_input_pgm(dataset.write_pgm(img), 0.37) == []
    assert checks.check_input_pgm(dataset.write_pgm(img), 0.38)
    img[0, 0] = 0.5
    assert checks.check_input_pgm(dataset.write_pgm(img), 0.37)


def test_target_volume_check_allows_quantization_only():
    img = np.full((10, 10), 0.3)
    data = dataset.write_pgm(img)
    assert checks.check_target_volume(data, 0.3) == []
    assert checks.check_target_volume(data, 0.31)
    assert checks.check_target_volume(data, 0.31, inequality=True) == []
    assert checks.check_target_volume(data, 0.29, inequality=True)


def test_voigt_bound_holds_is_tight_for_solid_and_catches_a_wrong_bulk():
    rng = np.random.default_rng(8)
    cfg = MicroConfig(nelx=8, nely=8)
    image = rng.uniform(0.0, 1.0, (8, 8))
    quantized = checks.pgm_density(dataset.write_pgm(image))
    bulk = evaluate_micro(DensityField.from_image(image), cfg)
    bound = checks.voigt_bulk_bound(quantized, 3.0, 0.3, 1e-9)
    assert checks.check_objective_value(bulk, "micro", bound) == []
    assert checks.check_objective_value(2.0 * bound, "micro", bound)
    solid = evaluate_micro(DensityField(Grid(8, 8), np.ones(64)), cfg)
    assert solid == pytest.approx(checks.voigt_bulk_bound(np.ones((8, 8)), 3.0, 0.3, 1e-9),
                                  rel=1e-2)
    assert checks.check_objective_value(-1.0, "cantilever")
    assert checks.check_objective_value(None, "cantilever")


def test_resume_check_catches_a_resume_that_resolves(tmp_path):
    cfg = CantileverConfig(nelx=6, nely=6, max_iters=2)
    out = str(tmp_path)
    dataset.generate_dataset("cantilever", cfg, out, 0.3, 0.5, 0.2)
    before = workloads._snapshot(out)
    dataset.generate_dataset("cantilever", cfg, out, 0.3, 0.5, 0.2)
    assert checks.check_untouched(before, workloads._snapshot(out)) == []
    os.unlink(os.path.join(out, "manifest.jsonl"))  # forces a re-solve
    dataset.generate_dataset("cantilever", cfg, out, 0.3, 0.5, 0.2)
    failures = checks.check_untouched(before, workloads._snapshot(out))
    assert any("rewrote target_030.pgm" in f for f in failures)


def test_v_err_check():
    assert checks.check_v_err(10.0, 0.33, 0.3) == []
    assert checks.check_v_err(10.0 + 1e-8, 0.33, 0.3)


def test_tail_needs_forty_samples_and_keeps_ten_beyond():
    assert workloads.tail(list(range(39))) is None
    pct, value = workloads.tail([float(v) for v in range(40)])
    assert value == 29.0 and pct == 75
    pct, value = workloads.tail([float(v) for v in range(100)])
    assert value == 89.0 and pct == 90
