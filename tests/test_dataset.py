"""Input images, PGM round-trips, manifests, and sweep generation."""

import dataclasses
import json
import os
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toacnn import dataset as ds
from toacnn import fem, microstructure, pressure
from toacnn.cantilever import CantileverConfig
from toacnn.errors import FormatError
from toacnn.microstructure import MicroConfig
from toacnn.pressure import PressureConfig


class TestInputImage:
    def test_pixel_budget_is_rounded_count(self):
        img = ds.make_input_image(0.5, 10, 4)
        assert img.sum() == 20
        img = ds.make_input_image(0.33, 10, 10)
        assert img.sum() == 33

    def test_fills_bottom_rows_first(self):
        img = ds.make_input_image(0.5, 6, 4)
        assert np.all(img[2:] == 1.0)
        assert np.all(img[:2] == 0.0)

    def test_partial_row_fills_left_to_right(self):
        img = ds.make_input_image(0.25, 8, 2)  # 4 pixels in a 8x2 image
        assert np.all(img[1, :4] == 1.0)
        assert np.all(img[1, 4:] == 0.0)
        assert np.all(img[0] == 0.0)

    def test_extremes(self):
        assert ds.make_input_image(0.0, 5, 5).sum() == 0
        assert ds.make_input_image(1.0, 5, 5).sum() == 25

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ds.make_input_image(1.2, 4, 4)

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 7), (7, 1), (10, 4), (13, 9)])
    def test_fill_is_the_first_pixels_bottom_up_left_to_right(self, width, height):
        for vf in np.linspace(0.0, 1.0, 101):
            k = int(round(vf * width * height))
            flat = ds.make_input_image(vf, width, height)[::-1].ravel()
            assert flat.dtype == float
            assert np.array_equal(flat, np.r_[np.ones(k), np.zeros(width * height - k)])


def byte_edits(blob):
    """Up to four (position, new byte) edits of ``blob``."""
    return st.lists(
        st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), min_size=1, max_size=4
    )


def mutated(blob, edits, cut, head=None):
    """``blob`` cut at ``cut`` with the edits applied, each within the first
    ``head`` bytes when ``head`` is given."""
    data = bytearray(blob[:cut])
    for pos, value in edits:
        pos = pos % head if head else pos
        if pos < len(data):
            data[pos] = value
    return bytes(data)


_PGM = ds.write_pgm(np.random.default_rng(2).uniform(0, 1, (3, 4)))
_MANIFEST = ds.manifest_bytes([
    ds.ManifestRecord("cantilever", 0.2, "input_020.pgm", "target_020.pgm", 12.5, 31, "f" * 8),
    ds.ManifestRecord("cantilever", 0.4, None, None, None, None, "f" * 8, error="exploded"),
])


class TestPgm:
    def test_solid_is_black(self):
        data = ds.write_pgm(np.ones((1, 1)))
        assert data.endswith(b"\x00")
        data = ds.write_pgm(np.zeros((1, 1)))
        assert data.endswith(b"\xff")

    def test_write_read_write_byte_identical(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (7, 5))
        blob = ds.write_pgm(img)
        assert ds.write_pgm(ds.read_pgm(blob)) == blob

    def test_read_recovers_quantized_values(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (6, 9))
        back = ds.read_pgm(ds.write_pgm(img))
        assert back.shape == (6, 9)
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_header_comments_tolerated(self):
        blob = ds.write_pgm(np.full((2, 3), 0.5))
        patched = blob.replace(b"P5\n", b"P5\n# a comment\n", 1)
        assert np.array_equal(ds.read_pgm(patched), ds.read_pgm(blob))

    @pytest.mark.parametrize("end", [b"\r", b"\n", b"\r\n"])
    def test_comment_ends_at_cr_or_lf(self, end):
        # as in Netpbm: a comment runs to the first CR or LF
        image = ds.read_pgm(b"P5 #c" + end + b"2 1\n255\n\x00\x00")
        assert image.shape == (1, 2)
        assert np.all(image == 1.0)

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="P5"):
            ds.read_pgm(b"P2\n1 1\n255\n0")

    def test_bad_maxval(self):
        with pytest.raises(FormatError, match="maxval"):
            ds.read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_payload(self):
        with pytest.raises(FormatError, match="payload"):
            ds.read_pgm(b"P5\n2 2\n255\n\x00\x00\x00")

    def test_out_of_range_image_rejected(self):
        with pytest.raises(ValueError):
            ds.write_pgm(np.full((2, 2), 1.5))

    def test_zero_extent_rejected(self):
        for blob in (b"P5\n0 5\n255\n", b"P5\n5 0\n255\n"):
            with pytest.raises(FormatError, match="no pixels"):
                ds.read_pgm(blob)

    def test_overlong_header_number_rejected(self):
        with pytest.raises(FormatError, match="header token"):
            ds.read_pgm(b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00")

    def test_number_right_after_magic_rejected(self):
        # netpbm needs whitespace between the magic and the width
        with pytest.raises(FormatError, match="header token"):
            ds.read_pgm(b"P51 1\n255\n\x00")

    def test_comment_may_end_any_header_token(self):
        blob = b"P5 # w\n2#h\n\t1\n#m\n255\n\x00\xff"
        assert np.array_equal(ds.read_pgm(blob), [[1.0, 0.0]])

    @given(edits=byte_edits(_PGM), cut=st.none() | st.integers(0, len(_PGM)),
           header_only=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_byte_mutations_raise_only_format_error(self, edits, cut, header_only):
        # most payload bytes only change a pixel; aim at the header half the time
        head = len(b"P5\n4 3\n255\n") if header_only else None
        try:
            ds.read_pgm(mutated(_PGM, edits, cut, head))
        except FormatError:
            pass

    def test_file_round_trip(self, tmp_path):
        img = ds.make_input_image(0.4, 8, 8)
        path = str(tmp_path / "x.pgm")
        ds.write_pgm_file(img, path)
        assert np.array_equal(ds.read_pgm_file(path), img)
        assert sorted(os.listdir(tmp_path)) == ["x.pgm"]


class TestSweepValues:
    def test_default_grid_is_95_samples(self):
        vals = ds.sweep_values(0.01, 0.95, 0.01)
        assert len(vals) == 95
        assert vals[0] == 0.01 and vals[-1] == 0.95
        assert vals[54] == 0.55  # no float drift at any step

    def test_coarse_grid_is_19_samples(self):
        vals = ds.sweep_values(0.05, 0.95, 0.05)
        assert len(vals) == 19
        assert vals == [round(0.05 * k, 9) for k in range(1, 20)]

    def test_bad_step(self):
        with pytest.raises(ValueError):
            ds.sweep_values(0.1, 0.9, 0.0)


class TestFingerprint:
    def test_independent_of_vf(self):
        a = ds.config_fingerprint("micro", MicroConfig(nelx=8, nely=8, vf=0.3))
        b = ds.config_fingerprint("micro", MicroConfig(nelx=8, nely=8, vf=0.7))
        assert a == b

    def test_sensitive_to_everything_else(self):
        base = MicroConfig(nelx=8, nely=8)
        assert ds.config_fingerprint("micro", base) != ds.config_fingerprint(
            "micro", dataclasses.replace(base, penal=3.5)
        )
        assert ds.config_fingerprint("micro", base) != ds.config_fingerprint("other", base)

    def test_sensitive_to_solver_revision(self, monkeypatch):
        cfg = MicroConfig(nelx=8, nely=8)
        current = ds.config_fingerprint("micro", cfg)
        monkeypatch.setattr(ds, "SOLVER_REVISION", "older-solver")
        assert ds.config_fingerprint("micro", cfg) != current

    @pytest.mark.parametrize("problem, cfg_type, expected", [
        ("cantilever", CantileverConfig,
         "4a08b19c865c5466c4e0c66134a1069d05d489ab56895e23bd01b9d0de702d16"),
        ("arch", PressureConfig,
         "d2c5aefed488470f148ac8e033909890518cb2e954a76da97e36d706c2bf317c"),
        ("micro", MicroConfig,
         "fe2dde2138b34bef0bed56da9ceed8a63244a3887b96393b183ae1f4d47557f3"),
    ])
    def test_default_fingerprints_are_pinned(self, problem, cfg_type, expected):
        # a renamed or retyped config field would orphan every stored dataset
        assert ds.PROBLEMS[problem][0] is cfg_type
        assert ds.config_fingerprint(problem, cfg_type()) == expected


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    """A directory holding the two files _MANIFEST refers to."""
    out = tmp_path_factory.mktemp("samples")
    for name in ("input_020.pgm", "target_020.pgm"):
        ds.write_pgm_file(np.zeros((2, 2)), str(out / name))
    return out


class TestManifest:
    def make_records(self, fp="f" * 8):
        return [
            ds.ManifestRecord("cantilever", 0.2, "input_020.pgm", "target_020.pgm", 12.5, 31, fp),
            ds.ManifestRecord("cantilever", 0.4, None, None, None, None, fp, error="exploded"),
        ]

    def test_record_json_round_trip(self):
        for r in self.make_records():
            assert ds.ManifestRecord.from_json(r.to_json()) == r

    def test_json_lines_sorted_and_compact(self):
        line = self.make_records()[0].to_json()
        d = json.loads(line)
        assert line == json.dumps(d, sort_keys=True, separators=(",", ":"))

    def test_malformed_line_rejected(self):
        with pytest.raises(FormatError):
            ds.ManifestRecord.from_json("{...")
        with pytest.raises(FormatError):
            ds.ManifestRecord.from_json('{"vf": 0.5}')

    def test_deep_nesting_is_malformed(self):
        with pytest.raises(FormatError):
            ds.ManifestRecord.from_json("[" * 100000)

    def test_non_string_path_is_malformed(self):
        line = '{"fingerprint":"f","input":5,"problem":"cantilever","target":"t","vf":0.2}'
        with pytest.raises(FormatError, match="strings"):
            ds.ManifestRecord.from_json(line)

    @pytest.mark.parametrize("field, value", [
        ("vf", "0.2"), ("iterations", 31.0), ("iterations", True), ("objective", "x"),
        ("objective", False), ("target", None), ("fingerprint", None), ("error", ["x"]),
    ])
    def test_mistyped_or_missing_field_is_malformed(self, field, value):
        d = json.loads(self.make_records()[0].to_json())
        if value is None:
            del d[field]
        else:
            d[field] = value
        with pytest.raises(FormatError, match=field):
            ds.ManifestRecord.from_lines((json.dumps(d) + "\n").encode())

    def test_undecodable_byte_is_malformed(self, tmp_path):
        data = _MANIFEST.replace(b"exploded", b"expl\xffded")
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="utf-8"):
            ds.read_manifest(str(path))
        with pytest.raises(FormatError, match="utf-8"):
            ds.ManifestRecord.from_lines(data)

    @given(edits=byte_edits(_MANIFEST), cut=st.none() | st.integers(0, len(_MANIFEST)),
           validate=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_byte_mutations_raise_only_format_error(self, sample_dir, edits, cut, validate):
        data = mutated(_MANIFEST, edits, cut)
        path = sample_dir / "manifest.jsonl"
        path.write_bytes(data)
        try:
            if validate:
                ds.read_manifest(str(path))
            else:
                ds.ManifestRecord.from_lines(data)
        except FormatError:
            pass

    def test_validation_passes_on_consistent_dir(self, tmp_path):
        recs = self.make_records()
        ds.write_pgm_file(np.zeros((2, 2)), str(tmp_path / "input_020.pgm"))
        ds.write_pgm_file(np.zeros((2, 2)), str(tmp_path / "target_020.pgm"))
        path = str(tmp_path / "manifest.jsonl")
        ds.write_manifest(recs, path)
        assert ds.read_manifest(path) == recs

    def test_validation_catches_deleted_target(self, tmp_path):
        recs = self.make_records()
        ds.write_pgm_file(np.zeros((2, 2)), str(tmp_path / "input_020.pgm"))
        ds.write_pgm_file(np.zeros((2, 2)), str(tmp_path / "target_020.pgm"))
        path = str(tmp_path / "manifest.jsonl")
        ds.write_manifest(recs, path)
        os.unlink(str(tmp_path / "target_020.pgm"))
        with pytest.raises(FormatError, match="missing file"):
            ds.read_manifest(path)

    def test_validation_catches_unsorted_vf(self, tmp_path):
        recs = list(reversed(self.make_records()))
        path = str(tmp_path / "manifest.jsonl")
        ds.write_manifest(recs, path)
        with pytest.raises(FormatError, match="increasing"):
            ds.read_manifest(path)

    def test_validation_catches_mixed_fingerprints(self, tmp_path):
        recs = self.make_records()
        recs[1] = dataclasses.replace(recs[1], fingerprint="g" * 8)
        path = str(tmp_path / "manifest.jsonl")
        ds.write_manifest(recs, path)
        with pytest.raises(FormatError, match="fingerprint"):
            ds.read_manifest(path)


class TinyCfg:
    """Cantilever sized so a sweep runs in well under a second per sample."""

    @staticmethod
    def make(**kw):
        kw.setdefault("nelx", 12)
        kw.setdefault("nely", 6)
        kw.setdefault("max_iters", 8)
        return CantileverConfig(**kw)


def split_every_block(monkeypatch):
    """Drop the split floor, with fresh assembly caches so that no band
    layout built under the floor is reused; undoing the patch restores both."""
    monkeypatch.setattr(fem, "_SPLIT_MIN_MACS", 0)
    for module, name in ((fem, "stiffness_assembly"), (pressure, "_darcy_assembly"),
                         (microstructure, "periodic_assembly")):
        monkeypatch.setattr(module, name, lru_cache(getattr(module, name).__wrapped__))


class TestGenerate:
    def test_unknown_problem(self, tmp_path):
        with pytest.raises(ValueError, match="unknown problem"):
            ds.generate_dataset("nope", TinyCfg.make(), str(tmp_path))

    def test_config_type_checked(self, tmp_path):
        with pytest.raises(ValueError, match="needs a"):
            ds.generate_dataset("micro", TinyCfg.make(), str(tmp_path))

    def test_out_of_range_sweep_fails_before_any_solve(self, tmp_path, monkeypatch):
        def never(c):
            raise AssertionError(f"solved vf {c.vf}")

        monkeypatch.setitem(ds.PROBLEMS, "cantilever", (CantileverConfig, never))
        out = tmp_path / "data"
        with pytest.raises(ValueError, match="got 1.0"):
            ds.generate_dataset("cantilever", TinyCfg.make(), str(out),
                                vf_start=0.8, vf_stop=1.0, vf_step=0.1)
        assert not out.exists() or not list(out.glob("*.pgm"))

    def test_sweep_writes_files_and_manifest(self, tmp_path):
        out = str(tmp_path / "data")
        recs = ds.generate_dataset(
            "cantilever", TinyCfg.make(), out, vf_start=0.3, vf_stop=0.5, vf_step=0.1
        )
        assert [r.vf for r in recs] == [0.3, 0.4, 0.5]
        assert recs[0].input == "input_030.pgm"
        assert recs[0].target == "target_030.pgm"
        loaded = ds.read_manifest(os.path.join(out, "manifest.jsonl"))
        assert loaded == recs
        img = ds.read_pgm_file(os.path.join(out, "input_040.pgm"))
        assert img.shape == (6, 12)
        assert img.sum() == pytest.approx(round(0.4 * 72))
        tgt = ds.read_pgm_file(os.path.join(out, "target_040.pgm"))
        assert tgt.mean() == pytest.approx(0.4, abs=0.01)  # 8-bit quantized
        assert recs[1].objective > 0.0
        assert recs[1].iterations >= 1

    def test_resume_skips_completed_samples(self, tmp_path, monkeypatch):
        out = str(tmp_path / "data")
        cfg = TinyCfg.make()
        ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.4, vf_step=0.1)

        calls = []
        real_solver = ds.PROBLEMS["cantilever"][1]

        def counting(c):
            calls.append(c.vf)
            return real_solver(c)

        monkeypatch.setitem(ds.PROBLEMS, "cantilever", (CantileverConfig, counting))
        recs = ds.generate_dataset(
            "cantilever", cfg, out, vf_start=0.3, vf_stop=0.5, vf_step=0.1
        )
        assert calls == [0.5]  # only the new sample is solved
        assert [r.vf for r in recs] == [0.3, 0.4, 0.5]

    def test_changed_config_invalidates_resume(self, tmp_path, monkeypatch):
        out = str(tmp_path / "data")
        ds.generate_dataset("cantilever", TinyCfg.make(), out, vf_start=0.3, vf_stop=0.3, vf_step=0.1)

        calls = []
        real_solver = ds.PROBLEMS["cantilever"][1]

        def counting(c):
            calls.append(c.vf)
            return real_solver(c)

        monkeypatch.setitem(ds.PROBLEMS, "cantilever", (CantileverConfig, counting))
        changed = TinyCfg.make(penal=3.5)
        ds.generate_dataset("cantilever", changed, out, vf_start=0.3, vf_stop=0.3, vf_step=0.1)
        assert calls == [0.3]  # fingerprint mismatch forces a re-solve

    def test_old_solver_revision_invalidates_resume(self, tmp_path, monkeypatch):
        out = str(tmp_path / "data")
        cfg = TinyCfg.make()
        with monkeypatch.context() as m:
            m.setattr(ds, "SOLVER_REVISION", "older-solver")
            ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.5, vf_step=0.1)

        calls = []
        real_solver = ds.PROBLEMS["cantilever"][1]

        def counting(c):
            calls.append(c.vf)
            return real_solver(c)

        monkeypatch.setitem(ds.PROBLEMS, "cantilever", (CantileverConfig, counting))
        recs = ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.5, vf_step=0.1)
        assert calls == [0.3, 0.4, 0.5]
        assert {r.fingerprint for r in recs} == {ds.config_fingerprint("cantilever", cfg)}

    def test_noop_resume_leaves_manifest_untouched(self, tmp_path):
        out = str(tmp_path / "data")
        cfg = TinyCfg.make()
        ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.4, vf_step=0.1)
        path = os.path.join(out, "manifest.jsonl")
        before = os.stat(path)
        ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.4, vf_step=0.1)
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_damaged_manifest_is_regenerated(self, tmp_path, monkeypatch):
        out = str(tmp_path / "data")
        cfg = TinyCfg.make()
        first = ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.4, vf_step=0.1)
        path = os.path.join(out, "manifest.jsonl")
        with open(path, "r+b") as fh:
            fh.seek(5)
            fh.write(b"\xff")

        calls = []
        real_solver = ds.PROBLEMS["cantilever"][1]

        def counting(c):
            calls.append(c.vf)
            return real_solver(c)

        monkeypatch.setitem(ds.PROBLEMS, "cantilever", (CantileverConfig, counting))
        again = ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.4, vf_step=0.1)
        assert calls == [0.3, 0.4]  # unreadable manifest: everything is solved again
        assert again == first
        assert ds.read_manifest(path) == first

    def test_deleted_file_invalidates_resume(self, tmp_path):
        out = str(tmp_path / "data")
        cfg = TinyCfg.make()
        first = ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.3, vf_step=0.1)
        os.unlink(os.path.join(out, "target_030.pgm"))
        again = ds.generate_dataset("cantilever", cfg, out, vf_start=0.3, vf_stop=0.3, vf_step=0.1)
        assert again == first  # deterministic solver reproduces the record
        assert os.path.exists(os.path.join(out, "target_030.pgm"))

    @pytest.mark.parametrize("split", ["default", "every block"])
    def test_threaded_matches_serial(self, tmp_path, split, monkeypatch):
        # each worker thread's solver runs have their own workspace; with no
        # floor every block splits, and the workers' halves meet on the one
        # helper thread
        if split == "every block":
            split_every_block(monkeypatch)
        configs = {
            "cantilever": TinyCfg.make(),
            "arch": PressureConfig(nelx=12, nely=6, maxit=8),
            "micro": MicroConfig(nelx=8, nely=8, max_iters=8),
        }
        for problem, cfg in configs.items():
            serial, pool = str(tmp_path / problem / "serial"), str(tmp_path / problem / "pool")
            a = ds.generate_dataset(problem, cfg, serial, vf_start=0.2, vf_stop=0.5, vf_step=0.1)
            b = ds.generate_dataset(
                problem, cfg, pool, vf_start=0.2, vf_stop=0.5, vf_step=0.1, threads=3,
            )
            assert a == b
            for r in a:
                assert r.error is None
                pa = ds.read_pgm_file(os.path.join(serial, r.target))
                pb = ds.read_pgm_file(os.path.join(pool, r.target))
                assert np.array_equal(pa, pb)
        if split == "every block":
            layouts = [layout for assembly in (fem.stiffness_assembly(fem.Grid(12, 6)),
                                               pressure._darcy_assembly(fem.Grid(12, 6)),
                                               microstructure.periodic_assembly(fem.Grid(8, 8)))
                       for layout in assembly._layouts.values()]
            assert len(layouts) >= 3 and all(layout.separator for layout in layouts)

    def test_load_samples_shapes(self, tmp_path):
        out = str(tmp_path / "data")
        ds.generate_dataset(
            "cantilever", TinyCfg.make(nelx=8, nely=8), out,
            vf_start=0.3, vf_stop=0.5, vf_step=0.1,
        )
        pairs = ds.load_samples(os.path.join(out, "manifest.jsonl"))
        assert len(pairs) == 3
        for x, y in pairs:
            assert x.shape == (8, 8, 1) and x.dtype == np.float32
            assert y.shape == (8, 8, 1) and y.dtype == np.float32

    def test_load_samples_inputs_come_from_vf_not_from_the_input_files(self, tmp_path):
        out = str(tmp_path / "data")
        records = ds.generate_dataset(
            "cantilever", TinyCfg.make(), out, vf_start=0.3, vf_stop=0.5, vf_step=0.1,
        )
        manifest = os.path.join(out, "manifest.jsonl")
        before = ds.load_samples(manifest)
        for (x, y), r in zip(before, records):
            expected = ds.make_input_image(r.vf, 12, 6).astype(np.float32)[:, :, None]
            assert x.dtype == expected.dtype and np.array_equal(x, expected)
            target = ds.read_pgm_file(os.path.join(out, r.target)).astype(np.float32)
            assert np.array_equal(y[:, :, 0], target)
            # the stored input is kept for inspection and never read back
            ds.write_pgm_file(np.full((6, 12), 0.5), os.path.join(out, r.input))
        after = ds.load_samples(manifest)
        for (x0, y0), (x1, y1) in zip(before, after):
            assert x0.tobytes() == x1.tobytes() and y0.tobytes() == y1.tobytes()
