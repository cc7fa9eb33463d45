"""End-to-end command wiring: flags, files, exit codes, stdout contract."""

import dataclasses
import json
import os

import numpy as np
import pytest

from toacnn.cantilever import CantileverConfig
from toacnn.cli import build_parser, build_problem_config, main
from toacnn.dataset import read_manifest, read_pgm_file
from toacnn.metrics import read_report
from toacnn.microstructure import MicroConfig
from toacnn.neural.checkpoint import Checkpoint, load_checkpoint_file, save_checkpoint_file
from toacnn.neural.profile import NetworkProfile
from toacnn.pressure import PressureConfig


def tiny_profile():
    return NetworkProfile(
        input_size=8, encoder=((3, 2, 2), (3, 3, 2)), adaptive_units=4, decoder=((2, 2), (2, 1))
    )


def gray_checkpoint(n=4, level=0.5):
    # zero weights, final bias = level: predicts a uniform gray field that
    # every evaluator can analyze without conditioning trouble
    p = NetworkProfile(
        input_size=8, encoder=((3, 2, 2), (3, 3, 2)), adaptive_units=n, decoder=((2, 2), (2, 1))
    )
    params = [np.zeros(shape, np.float32) for _, shape, _ in p.parameter_specs()]
    params[-1][:] = level
    return Checkpoint(p, params, seed=0, epochs=1, loss_tail=[1.0])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


PHYS = ["--problem", "cantilever", "--nelx", "8", "--nely", "8", "--maxit", "6"]


@pytest.fixture(scope="module")
def ds_dir(tmp_path_factory):
    """Small cantilever sweep generated through the CLI itself."""
    out = tmp_path_factory.mktemp("ds")
    rc = main(PHYS[:0] + ["gen", *PHYS, "--out", str(out),
                          "--vf-start", "0.3", "--vf-stop", "0.5", "--vf-step", "0.1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def manifest(ds_dir):
    return str(ds_dir / "manifest.jsonl")


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("prof") / "tiny.json"
    path.write_text(json.dumps(tiny_profile().to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, manifest, profile_file):
    path = tmp_path_factory.mktemp("ck") / "m.ckpt"
    rc = main(["train", "--manifest", manifest, "--profile-file", profile_file,
               "--epochs", "25", "--lr", "1e-3", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def gray_ckpt_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gray") / "gray.ckpt"
    save_checkpoint_file(gray_checkpoint(), str(path))
    return str(path)


class TestSolve:
    def test_writes_pgm_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "d.pgm"
        rc = main(["solve", *PHYS, "--vf", "0.4", "--out", str(out)])
        assert rc == 0
        image = read_pgm_file(str(out))
        assert image.shape == (8, 8)
        meta = json.loads((tmp_path / "d.json").read_text())
        assert meta["objective_name"] == "compliance"
        assert meta["problem"] == "cantilever"
        assert meta["achieved_vf"] == pytest.approx(0.4, abs=1e-3)
        line = capsys.readouterr().out.strip()
        assert line.startswith("compliance ")
        assert float(line.split()[1]) == pytest.approx(meta["objective"], rel=1e-4)

    def test_stdout_carries_only_the_result(self, tmp_path, capsys):
        main(["solve", *PHYS, "--vf", "0.4", "--out", str(tmp_path / "d.pgm")])
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1

    def test_micro_metadata_names_bulk_modulus(self, tmp_path, capsys):
        out = tmp_path / "m.pgm"
        rc = main(["solve", "--problem", "micro", "--nelx", "6", "--nely", "6",
                   "--maxit", "3", "--vf", "0.5", "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "m.json").read_text())
        assert meta["objective_name"] == "bulk_modulus"
        assert capsys.readouterr().out.startswith("bulk_modulus ")

    def test_invalid_vf_is_usage_error(self, tmp_path):
        rc = main(["solve", *PHYS, "--vf", "1.5", "--out", str(tmp_path / "d.pgm")])
        assert rc == 2
        assert not (tmp_path / "d.pgm").exists()

    @pytest.mark.parametrize("problem", ["cantilever", "arch", "micro"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--move", "0", "move must lie in"),
            ("--move", "-0.1", "move must lie in"),
            ("--move", "1.5", "move must lie in"),
            ("--move", "nan", "move must lie in"),
            ("--penal", "-1", "penal must be at least 1"),
            ("--penal", "0.5", "penal must be at least 1"),
            ("--penal", "nan", "penal must be at least 1"),
            ("--rmin", "0", "rmin must be positive and finite"),
            ("--rmin", "nan", "rmin must be positive and finite"),
            ("--rmin", "inf", "rmin must be positive and finite"),
        ],
    )
    def test_bad_move_or_penal_is_usage_error(self, problem, flag, value, message, tmp_path,
                                              capsys):
        out = tmp_path / "d.pgm"
        rc = main(["solve", "--problem", problem, "--nelx", "12", "--nely", "6", "--maxit", "3",
                   "--vf", "0.4", flag, value, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["cantilever", "micro"])
    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_tol_is_usage_error(self, problem, value, tmp_path, capsys):
        out = tmp_path / "d.pgm"
        rc = main(["solve", "--problem", problem, "--nelx", "6", "--nely", "6", "--maxit", "3",
                   "--vf", "0.4", "--tol", value, "--out", str(out)])
        assert rc == 2
        assert "change_tol must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_full_move_limit_still_solves(self, tmp_path):
        rc = main(["solve", *PHYS, "--vf", "0.4", "--move", "1", "--out", str(tmp_path / "d.pgm")])
        assert rc == 0

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        main(["solve", *PHYS, "--vf", "0.4", "--out", str(a)])
        main(["solve", *PHYS, "--vf", "0.4", "--out", str(b)])
        assert read_bytes(a) == read_bytes(b)
        assert read_bytes(tmp_path / "a.json") == read_bytes(tmp_path / "b.json")


class TestGen:
    def test_sweep_files_and_manifest(self, ds_dir, manifest):
        records = read_manifest(manifest)
        assert [r.vf for r in records] == [0.3, 0.4, 0.5]
        for r in records:
            assert (ds_dir / r.input).exists()
            assert (ds_dir / r.target).exists()

    def test_rerun_is_noop(self, ds_dir, manifest):
        before = {p: read_bytes(ds_dir / p) for p in os.listdir(ds_dir)}
        rc = main(["gen", *PHYS, "--out", str(ds_dir),
                   "--vf-start", "0.3", "--vf-stop", "0.5", "--vf-step", "0.1"])
        assert rc == 0
        after = {p: read_bytes(ds_dir / p) for p in os.listdir(ds_dir)}
        assert after == before

    # a step of 1e-9 would list about 1e9 vfs, an infinite stop endless
    # ones; both are refused before the list is built
    @pytest.mark.parametrize("flag, value", [("--vf-step", "1e-9"), ("--vf-stop", "inf")])
    def test_sweep_longer_than_the_file_names_is_usage_error(self, flag, value, tmp_path,
                                                             capsys):
        out = tmp_path / "ds"
        rc = main(["gen", *PHYS, "--out", str(out), flag, value])
        assert rc == 2
        assert "collides at 0.01 file-name resolution" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_fewer_than_one_thread_is_usage_error(self, threads, source, tmp_path, capsys,
                                                   monkeypatch):
        out = tmp_path / "ds"
        argv = ["gen", *PHYS, "--out", str(out), "--vf-start", "0.3", "--vf-stop", "0.3"]
        if source == "flag":
            argv += ["--threads", threads]
        else:
            monkeypatch.setenv("TOACNN_THREADS", threads)
        assert main(argv) == 2
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_start_above_stop_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc = main(["gen", *PHYS, "--out", str(out), "--vf-start", "0.5", "--vf-stop", "0.3"])
        assert rc == 2
        assert "lies above vf stop" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_checkpoint_losses_and_stdout(self, tmp_path, manifest, profile_file, capsys):
        out = tmp_path / "t.ckpt"
        rc = main(["train", "--manifest", manifest, "--profile-file", profile_file,
                   "--epochs", "8", "--lr", "1e-3", "--out", str(out)])
        assert rc == 0
        ck = load_checkpoint_file(str(out))
        assert ck.profile.to_dict() == tiny_profile().to_dict()
        assert ck.epochs == 8
        losses = [float(v) for v in (tmp_path / "t.losses.txt").read_text().split()]
        assert len(losses) == 8
        line = capsys.readouterr().out.strip()
        assert line.startswith("final_loss ")
        assert float(line.split()[1]) == pytest.approx(losses[-1], rel=1e-5)

    def test_same_seed_same_bytes(self, tmp_path, manifest, profile_file):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        args = ["train", "--manifest", manifest, "--profile-file", profile_file,
                "--epochs", "5", "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert read_bytes(a) == read_bytes(b)

    def test_seed_env_matches_explicit_flag(self, tmp_path, manifest, profile_file, monkeypatch):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        base = ["train", "--manifest", manifest, "--profile-file", profile_file,
                "--epochs", "4"]
        main(base + ["--seed", "7", "--out", str(a)])
        monkeypatch.setenv("TOACNN_SEED", "7")
        main(base + ["--out", str(b)])
        assert read_bytes(a) == read_bytes(b)

    def test_zero_adaptive_units_drops_middle_dense(self, tmp_path, manifest):
        prof = tmp_path / "p.json"
        spec = tiny_profile().to_dict()
        spec["adaptive_units"] = 0
        prof.write_text(json.dumps(spec))
        out = tmp_path / "n0.ckpt"
        rc = main(["train", "--manifest", manifest, "--profile-file", str(prof),
                   "--epochs", "2", "--out", str(out)])
        assert rc == 0
        ck = load_checkpoint_file(str(out))
        assert ck.profile.adaptive_units == 0
        assert all("dense1" not in name for name, _, _ in ck.profile.parameter_specs())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_exits_4_and_writes_nothing(self, tmp_path, manifest, profile_file):
        out = tmp_path / "d.ckpt"
        rc = main(["train", "--manifest", manifest, "--profile-file", profile_file,
                   "--epochs", "3", "--lr", "1e12", "--out", str(out)])
        assert rc == 4
        assert not out.exists()

    def test_non_finite_lr_is_usage_error(self, tmp_path, manifest, profile_file, capsys):
        out = tmp_path / "d.ckpt"
        for lr in ("nan", "inf"):
            rc = main(["train", "--manifest", manifest, "--profile-file", profile_file,
                       "--epochs", "1", "--lr", lr, "--out", str(out)])
            assert rc == 2
            assert "lr must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_in_the_last_step_exits_4(self, tmp_path, manifest, profile_file, capsys):
        # lr 1e39 overflows float32 in the first and only update; no later
        # loss sees the result, so train checks the parameters at the end
        out = tmp_path / "d.ckpt"
        rc = main(["train", "--manifest", manifest, "--profile-file", profile_file,
                   "--epochs", "1", "--lr", "1e39", "--out", str(out)])
        assert rc == 4
        assert "non-finite value at epoch 0" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "d.losses.txt").exists()

    def test_undecodable_manifest_exits_3(self, tmp_path, manifest, profile_file):
        bad = tmp_path / "manifest.jsonl"
        bad.write_bytes(b"\xff" + read_bytes(manifest))
        rc = main(["train", "--manifest", str(bad), "--profile-file", profile_file,
                   "--epochs", "1", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3

    def test_garbage_profile_file_exits_3(self, tmp_path, manifest):
        prof = tmp_path / "bad.json"
        prof.write_text("not json {")
        rc = main(["train", "--manifest", manifest, "--profile-file", str(prof),
                   "--epochs", "2", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(b"[" * 100000, id="deep-nesting"),
            pytest.param(json.dumps(tiny_profile().to_dict())
                         .replace('"input_size": 8', '"input_size": 1e400').encode(),
                         id="huge-number"),
            pytest.param(b"\xff" + json.dumps(tiny_profile().to_dict()).encode(),
                         id="not-utf8"),
            pytest.param(json.dumps({**tiny_profile().to_dict(), "decoder": "x"}).encode(),
                         id="bad-decoder"),
            pytest.param(json.dumps({**tiny_profile().to_dict(), "input_size": 8.9}).encode(),
                         id="float-size"),
            pytest.param(json.dumps({**tiny_profile().to_dict(),
                                     "encoder": [[True, 2, 2], [3, 3, 2]]}).encode(),
                         id="kernel-true"),
        ],
    )
    def test_malformed_profile_file_exits_3(self, data, tmp_path, manifest):
        prof = tmp_path / "bad.json"
        prof.write_bytes(data)
        rc = main(["train", "--manifest", manifest, "--profile-file", str(prof),
                   "--epochs", "2", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 3


class TestInfer:
    def test_writes_prediction_in_range(self, tmp_path, trained_ckpt):
        out = tmp_path / "p.pgm"
        rc = main(["infer", "--checkpoint", trained_ckpt, "--vf", "0.4", "--out", str(out)])
        assert rc == 0
        image = read_pgm_file(str(out))
        assert image.shape == (8, 8)
        assert np.all(image >= 0.0) and np.all(image <= 1.0)

    def test_rerun_is_bit_identical(self, tmp_path, trained_ckpt):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        main(["infer", "--checkpoint", trained_ckpt, "--vf", "0.4", "--out", str(a)])
        main(["infer", "--checkpoint", trained_ckpt, "--vf", "0.4", "--out", str(b)])
        assert read_bytes(a) == read_bytes(b)

    def test_corrupt_checkpoint_exits_3(self, tmp_path, trained_ckpt):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(read_bytes(trained_ckpt)[:40])
        rc = main(["infer", "--checkpoint", str(bad), "--vf", "0.4",
                   "--out", str(tmp_path / "p.pgm")])
        assert rc == 3

    def test_missing_checkpoint_exits_3(self, tmp_path):
        rc = main(["infer", "--checkpoint", str(tmp_path / "nope.ckpt"), "--vf", "0.4",
                   "--out", str(tmp_path / "p.pgm")])
        assert rc == 3


class TestEval:
    def test_table_columns_and_exit_0(self, manifest, gray_ckpt_file, capsys):
        rc = main(["eval", *PHYS, "--manifest", manifest,
                   "--checkpoint", gray_ckpt_file, "--vf", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "V_err" in out and "Obj_err" in out
        rows = [l for l in out.splitlines() if l.startswith("cantilever")]
        assert len(rows) == 1

    def test_vf_flag_filters_rows(self, manifest, gray_ckpt_file, capsys):
        rc = main(["eval", *PHYS, "--manifest", manifest,
                   "--checkpoint", gray_ckpt_file, "--vf", "0.3,0.5"])
        assert rc == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("cantilever")]
        assert len(rows) == 2

    def test_default_covers_whole_manifest(self, manifest, gray_ckpt_file, capsys):
        rc = main(["eval", *PHYS, "--manifest", manifest, "--checkpoint", gray_ckpt_file])
        assert rc == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("cantilever")]
        assert len(rows) == 3

    def test_partial_failure_still_exit_0(self, manifest, gray_ckpt_file, tmp_path, capsys):
        report = tmp_path / "r.jsonl"
        rc = main(["eval", *PHYS, "--manifest", manifest,
                   "--checkpoint", gray_ckpt_file, "--vf", "0.4,0.9",
                   "--out", str(report)])
        assert rc == 0
        records = read_report(str(report))
        assert len(records) == 2
        assert records[0].error is None and records[0].v_err is not None
        assert records[1].error is not None
        capsys.readouterr()

    def test_all_rows_failing_exits_3(self, manifest, gray_ckpt_file, capsys):
        rc = main(["eval", *PHYS, "--manifest", manifest,
                   "--checkpoint", gray_ckpt_file, "--vf", "0.91,0.92"])
        assert rc == 3
        capsys.readouterr()

    def test_duplicate_width_checkpoints_rejected(self, manifest, gray_ckpt_file, capsys):
        rc = main(["eval", *PHYS, "--manifest", manifest,
                   "--checkpoint", gray_ckpt_file, "--checkpoint", gray_ckpt_file])
        assert rc == 2
        capsys.readouterr()

    def test_duplicate_width_prints_no_table_and_writes_no_report(self, manifest, tmp_path,
                                                                    capsys):
        paths = [str(tmp_path / f"gray{i}.ckpt") for i in range(2)]
        for path, level in zip(paths, (0.4, 0.6)):
            save_checkpoint_file(gray_checkpoint(level=level), path)
        report = tmp_path / "r.jsonl"
        rc = main(["eval", *PHYS, "--manifest", manifest, "--checkpoint", paths[0],
                   "--checkpoint", paths[1], "--vf", "0.4", "--out", str(report)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "adaptive width 4" in err
        assert not report.exists()

    def test_solver_config_drift_exits_3(self, manifest, gray_ckpt_file, capsys):
        rc = main(["eval", *PHYS, "--penal", "4.0", "--manifest", manifest,
                   "--checkpoint", gray_ckpt_file, "--vf", "0.4"])
        assert rc == 3
        capsys.readouterr()


class TestParser:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "--penal" in out and "3.0" in out
        assert "--rmin" in out and "2.4" in out

    def test_train_help_shows_epoch_default(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--help"])
        assert err.value.code == 0
        assert "2000" in capsys.readouterr().out

    def test_unknown_problem_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--problem", "bridge", "--vf", "0.4",
                  "--out", str(tmp_path / "x.pgm")])
        assert err.value.code == 2
        capsys.readouterr()

    def test_env_defaults_reach_parser(self, monkeypatch):
        monkeypatch.setenv("TOACNN_SEED", "11")
        monkeypatch.setenv("TOACNN_THREADS", "2")
        parser = build_parser()
        args = parser.parse_args(["train", "--manifest", "m"])
        assert args.seed == 11
        args = parser.parse_args(["gen", "--problem", "cantilever", "--out", "d"])
        assert args.threads == 2

    @pytest.mark.parametrize("var, argv", [
        ("TOACNN_SEED", ["train", "--manifest", "m"]),
        ("TOACNN_THREADS", ["gen", "--problem", "cantilever", "--out", "d"]),
    ])
    def test_bad_env_value_is_usage_error(self, var, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(var, "abc")
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        # a subcommand that does not read the variable is unaffected
        rc = main(["infer", "--checkpoint", str(tmp_path / "absent.ckpt"), "--vf", "0.3",
                   "--out", str(tmp_path / "p.pgm")])
        assert rc == 3
        capsys.readouterr()

    def test_bad_vf_list_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", *PHYS, "--manifest", "m", "--checkpoint", "c",
                  "--vf", "0.4,oops"])
        assert err.value.code == 2
        capsys.readouterr()


class TestProblemConfig:
    FLAGS = ["--maxit", "7", "--tol", "0.03", "--etaf", "0.3", "--betaf", "5.0", "--lst", "0",
             "--nelx", "9", "--penal", "3.5", "--rmin", "1.8", "--move", "0.1"]
    CASES = [
        ("cantilever", CantileverConfig, dict(max_iters=7, change_tol=0.03)),
        ("arch", PressureConfig, dict(maxit=7, etaf=0.3, betaf=5.0, lst=0)),
        ("micro", MicroConfig, dict(max_iters=7, change_tol=0.03)),
    ]

    @pytest.mark.parametrize("problem, cfg_type, own", CASES, ids=[c[0] for c in CASES])
    def test_flags_reach_their_fields(self, problem, cfg_type, own):
        args = build_parser().parse_args(["gen", "--problem", problem, "--out", "d", *self.FLAGS])
        cfg = build_problem_config(args)
        # flags the problem has no field for are ignored; vf keeps its default
        assert cfg == cfg_type(nelx=9, penal=3.5, rmin=1.8, move=0.1, **own)
        assert build_problem_config(args, vf=0.45) == dataclasses.replace(cfg, vf=0.45)

    @pytest.mark.parametrize("problem, cfg_type, own", CASES, ids=[c[0] for c in CASES])
    def test_unset_flags_keep_config_defaults(self, problem, cfg_type, own):
        # eval's --vf is a list and never reaches the config
        args = build_parser().parse_args(["eval", "--problem", problem, "--manifest", "m",
                                          "--checkpoint", "c", "--vf", "0.3,0.4"])
        assert build_problem_config(args) == cfg_type()
