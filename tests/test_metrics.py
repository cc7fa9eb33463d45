"""Error metrics and the (vf, n) sweep report."""

import os

import numpy as np
import pytest

from toacnn import dataset as ds
from toacnn import metrics as mx
from toacnn.cantilever import CantileverConfig
from toacnn.errors import FormatError
from toacnn.fem import DensityField, Grid
from toacnn.microstructure import MicroConfig
from toacnn.neural.checkpoint import Checkpoint
from toacnn.neural.model import init_params
from toacnn.neural.profile import NetworkProfile
from toacnn.pressure import PressureConfig


def field(grid, values):
    return DensityField(grid, np.asarray(values, dtype=float))


def profile_for(n):
    return NetworkProfile(
        input_size=8, encoder=((3, 2, 2), (3, 3, 2)), adaptive_units=n, decoder=((2, 2), (2, 1))
    )


def checkpoint_for(n, seed=0):
    p = profile_for(n)
    return Checkpoint(p, init_params(p, seed), seed, epochs=1, loss_tail=[1.0])


def gray_checkpoint(n, level=0.5, profile=None):
    """All-zero weights with the final bias at ``level``: predicts a uniform
    gray field, which every evaluator handles without conditioning trouble."""
    p = profile or profile_for(n)
    params = [np.zeros(shape, np.float32) for _, shape, _ in p.parameter_specs()]
    params[-1][:] = level
    return Checkpoint(p, params, seed=0, epochs=1, loss_tail=[1.0])


class TestVolumeError:
    def test_identity_zero(self):
        g = Grid(4, 4)
        x = field(g, np.full(16, 0.4))
        assert mx.volume_error(x, x) == 0.0

    def test_arithmetic_oracle(self):
        g = Grid(2, 2)
        pred = field(g, np.full(4, 0.2525))
        target = field(g, np.full(4, 0.25))
        assert mx.volume_error(pred, target) == pytest.approx(1.0, abs=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            mx.volume_error(field(Grid(2, 2), np.full(4, 0.5)), field(Grid(2, 3), np.full(6, 0.5)))

    def test_zero_target_undefined(self):
        g = Grid(2, 2)
        with pytest.raises(ValueError, match="undefined"):
            mx.volume_error(field(g, np.full(4, 0.5)), field(g, np.zeros(4)))


class TestObjectiveError:
    @pytest.mark.parametrize(
        "cfg",
        [
            CantileverConfig(nelx=8, nely=8),
            PressureConfig(nelx=8, nely=8),
            MicroConfig(nelx=8, nely=8),
        ],
        ids=["cantilever", "arch", "micro"],
    )
    def test_identity_zero(self, cfg):
        rng = np.random.default_rng(0)
        x = field(cfg.grid, rng.uniform(0.2, 0.9, 64))
        assert mx.objective_error(x, x, cfg) == 0.0

    def test_load_scaling_invariance(self):
        # compliance scales with the square of the load, so the relative
        # error is untouched
        rng = np.random.default_rng(1)
        g = Grid(8, 8)
        pred = field(g, rng.uniform(0.3, 0.9, 64))
        target = field(g, rng.uniform(0.3, 0.9, 64))
        e1 = mx.objective_error(pred, target, CantileverConfig(nelx=8, nely=8))
        e2 = mx.objective_error(pred, target, CantileverConfig(nelx=8, nely=8, load_magnitude=2.0))
        assert e1 == pytest.approx(e2, rel=1e-9)

    def test_unknown_config_type(self):
        g = Grid(2, 2)
        x = field(g, np.full(4, 0.5))
        with pytest.raises(ValueError, match="no evaluator"):
            mx.objective_error(x, x, object())


class TestEvalRecord:
    def test_round_trip(self):
        r = mx.EvalRecord("cantilever", 0.5, 64, 1.2, 3.4, 10.0, 9.9)
        assert mx.EvalRecord.from_json(r.to_json()) == r
        e = mx.EvalRecord("micro", 0.3, 0, None, None, None, None, error="checkpoint absent")
        assert mx.EvalRecord.from_json(e.to_json()) == e

    def test_malformed_line(self):
        with pytest.raises(FormatError):
            mx.EvalRecord.from_json("{}")


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data"))
    cfg = CantileverConfig(nelx=8, nely=8, max_iters=6)
    ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.5, vf_step=0.1)
    return cfg, os.path.join(out, "manifest.jsonl")


class TestEvalReport:
    def test_cross_product_and_order(self, tiny_dataset):
        cfg, manifest = tiny_dataset
        cks = {0: gray_checkpoint(0, 0.5), 5: gray_checkpoint(5, 0.55)}
        recs = mx.eval_report(cks, manifest, cfg, [0.3, 0.5])
        assert [(r.vf, r.n) for r in recs] == [(0.3, 0), (0.3, 5), (0.5, 0), (0.5, 5)]
        for r in recs:
            assert r.error is None
            assert r.v_err >= 0.0 and r.obj_err >= 0.0
            assert np.isfinite(r.objective_pred) and np.isfinite(r.objective_target)

    def test_empty_vfs(self, tiny_dataset):
        cfg, manifest = tiny_dataset
        assert mx.eval_report({0: checkpoint_for(0)}, manifest, cfg, []) == []

    def test_missing_vf_is_per_record_error(self, tiny_dataset):
        cfg, manifest = tiny_dataset
        recs = mx.eval_report({0: gray_checkpoint(0)}, manifest, cfg, [0.7])
        assert len(recs) == 1
        assert "no manifest sample" in recs[0].error

    def test_config_drift_rejected(self, tiny_dataset):
        _, manifest = tiny_dataset
        drifted = CantileverConfig(nelx=8, nely=8, max_iters=6, penal=3.5)
        with pytest.raises(FormatError, match="different solver config"):
            mx.eval_report({0: checkpoint_for(0)}, manifest, drifted, [0.3])

    def test_mislabeled_checkpoint_rejected(self, tiny_dataset):
        cfg, manifest = tiny_dataset
        with pytest.raises(ValueError, match="adaptive width"):
            mx.eval_report({3: checkpoint_for(5)}, manifest, cfg, [0.3])

    def test_grid_mismatch_is_per_record_error(self, tiny_dataset):
        cfg, manifest = tiny_dataset
        big = NetworkProfile(
            input_size=16, encoder=((3, 2, 2), (3, 3, 2)), adaptive_units=0,
            decoder=((2, 2), (2, 1)),
        )
        recs = mx.eval_report({0: gray_checkpoint(0, profile=big)}, manifest, cfg, [0.3])
        assert "does not match target" in recs[0].error

    def test_expected_gray_volume_error(self, tiny_dataset):
        # a constant 0.5 field against a vf=0.4 target: V_err ~ 100*0.1/0.4
        cfg, manifest = tiny_dataset
        recs = mx.eval_report({0: gray_checkpoint(0, 0.5)}, manifest, cfg, [0.4])
        assert recs[0].error is None
        assert recs[0].v_err == pytest.approx(25.0, abs=3.0)  # 8-bit target

    def test_hopeless_prediction_degrades_to_record_error(self, tiny_dataset):
        # an untrained net can emit fields whose evaluation misses the solver
        # accuracy contract; that must surface per record, never as a raised
        # exception or a silent NaN
        cfg, manifest = tiny_dataset
        recs = mx.eval_report({5: checkpoint_for(5)}, manifest, cfg, [0.3, 0.4, 0.5])
        assert len(recs) == 3
        for r in recs:
            if r.error is None:
                assert np.isfinite(r.v_err) and np.isfinite(r.obj_err)
            else:
                assert r.v_err is None

    def test_render_and_file_round_trip(self, tiny_dataset, tmp_path):
        cfg, manifest = tiny_dataset
        recs = mx.eval_report({0: gray_checkpoint(0)}, manifest, cfg, [0.3, 0.7])
        text = mx.render_report(recs)
        assert "V_err%" in text and "Obj_err%" in text
        assert "no manifest sample" in text
        assert len(text.strip().splitlines()) == 1 + len(recs)
        path = str(tmp_path / "report.jsonl")
        mx.write_report(recs, path)
        assert mx.read_report(path) == recs
