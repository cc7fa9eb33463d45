"""Error metrics and the (vf, n) sweep report."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toacnn import dataset as ds
from toacnn import metrics as mx
from toacnn.cantilever import CantileverConfig
from toacnn.errors import FormatError
from toacnn.fem import DensityField, Grid
from toacnn.neural.checkpoint import Checkpoint
from toacnn.neural.model import init_params
from toacnn.neural.profile import NetworkProfile


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


class TestEvalRecord:
    def test_round_trip(self):
        r = mx.EvalRecord("cantilever", 0.5, 64, 1.2, 3.4, 10.0, 9.9)
        assert mx.EvalRecord.from_json(r.to_json()) == r
        e = mx.EvalRecord("micro", 0.3, 0, None, None, None, None, error="checkpoint absent")
        assert mx.EvalRecord.from_json(e.to_json()) == e

    def test_malformed_line(self):
        with pytest.raises(FormatError):
            mx.EvalRecord.from_json("{}")

    def test_deep_nesting_and_overflow_are_malformed(self):
        for line in ("[" * 100000, '{"n":1e400,"problem":"micro","vf":0.3}'):
            with pytest.raises(FormatError):
                mx.EvalRecord.from_json(line)


_REPORT = "".join(r.to_json() + "\n" for r in [
    mx.EvalRecord("cantilever", 0.5, 64, 1.2, 3.4, 10.0, 9.9),
    mx.EvalRecord("micro", 0.3, 0, None, None, None, None, error="target generation failed"),
]).encode()


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("report")


class TestReadReport:
    def test_undecodable_byte_is_malformed(self, tmp_path):
        path = tmp_path / "report.jsonl"
        path.write_bytes(_REPORT.replace(b"micro", b"mi\xffro"))
        with pytest.raises(FormatError, match="utf-8"):
            mx.read_report(str(path))

    @given(
        edits=st.lists(
            st.tuples(st.integers(0, len(_REPORT) - 1), st.integers(0, 255)), min_size=1, max_size=4
        ),
        cut=st.none() | st.integers(0, len(_REPORT)),
    )
    @settings(max_examples=400, deadline=None)
    def test_byte_mutations_raise_only_format_error(self, report_dir, edits, cut):
        data = bytearray(_REPORT[:cut])
        for pos, value in edits:
            if pos < len(data):
                data[pos] = value
        path = report_dir / "report.jsonl"
        path.write_bytes(bytes(data))
        try:
            mx.read_report(str(path))
        except FormatError:
            pass


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
        targets = {r.vf: r.target for r in ds.read_manifest(manifest)}
        base = os.path.dirname(manifest)
        for r in recs:
            assert r.error is None
            assert r.v_err >= 0.0 and r.obj_err >= 0.0
            assert np.isfinite(r.objective_pred) and np.isfinite(r.objective_target)
            # Obj_err scores both designs with the config's own evaluator
            target = ds.field_from_pgm_file(os.path.join(base, targets[r.vf]))
            assert r.objective_target == cfg.evaluate(target)
            assert r.obj_err == 100.0 * abs(r.objective_pred - r.objective_target) / abs(
                r.objective_target
            )

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
