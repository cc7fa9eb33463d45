"""Checkpoint serialization: byte round-trips and corruption detection."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from toacnn.errors import FormatError
from toacnn.neural.checkpoint import (
    MAGIC,
    Checkpoint,
    load_checkpoint,
    load_checkpoint_file,
    save_checkpoint,
    save_checkpoint_file,
)
from toacnn.neural.model import init_params
from toacnn.neural.profile import NetworkProfile

PROFILE = NetworkProfile(
    input_size=8, encoder=((3, 2, 2), (3, 3, 2)), adaptive_units=4, decoder=((2, 2), (2, 1))
)


def make_ck(seed=0):
    return Checkpoint(
        profile=PROFILE,
        params=init_params(PROFILE, seed),
        seed=seed,
        epochs=123,
        loss_tail=[0.5, 0.25, 0.125],
    )


class TestRoundTrip:
    def test_save_load_save_byte_identical(self):
        blob = save_checkpoint(make_ck())
        again = save_checkpoint(load_checkpoint(blob))
        assert again == blob

    def test_fields_survive(self):
        ck = load_checkpoint(save_checkpoint(make_ck(7)))
        assert ck.profile == PROFILE
        assert ck.seed == 7
        assert ck.epochs == 123
        assert ck.loss_tail == [0.5, 0.25, 0.125]
        for a, b in zip(ck.params, init_params(PROFILE, 7)):
            assert np.array_equal(a, b)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        ck = make_ck(3)
        save_checkpoint_file(ck, path)
        blob = save_checkpoint(load_checkpoint_file(path))
        with open(path, "rb") as fh:
            assert fh.read() == blob

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint_file(make_ck(), path)
        save_checkpoint_file(make_ck(1), path)  # overwrite in place
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]

    def test_header_is_canonical_json(self):
        blob = save_checkpoint(make_ck())
        (length,) = struct.unpack("<Q", blob[8:16])
        head = blob[16 : 16 + length].decode("utf-8")
        import json

        assert head == json.dumps(json.loads(head), sort_keys=True, separators=(",", ":"))


class TestCorruption:
    def test_bad_magic(self):
        blob = save_checkpoint(make_ck())
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(b"XXXXXXXX" + blob[8:])

    def test_too_short(self):
        with pytest.raises(FormatError):
            load_checkpoint(MAGIC)

    def test_truncated_header(self):
        blob = save_checkpoint(make_ck())
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(blob[:20])

    def test_truncated_payload(self):
        blob = save_checkpoint(make_ck())
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(blob[:-5])

    def test_trailing_garbage(self):
        blob = save_checkpoint(make_ck())
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(blob + b"\x00\x00")

    def test_header_not_json(self):
        head = b"{not json"
        blob = MAGIC + struct.pack("<Q", len(head)) + head
        with pytest.raises(FormatError):
            load_checkpoint(blob)

    def test_nonfinite_tensor_rejected(self):
        ck = make_ck()
        ck.params[0][0, 0, 0, 0] = np.float32(np.nan)
        with pytest.raises(FormatError, match="non-finite"):
            load_checkpoint(save_checkpoint(ck))

    def test_tensor_list_mismatch(self):
        # header claiming a different adaptive width must not parse against
        # payload laid out for the original profile
        blob = save_checkpoint(make_ck())
        other = NetworkProfile(
            input_size=8, encoder=((3, 2, 2), (3, 3, 2)), adaptive_units=6, decoder=((2, 2), (2, 1))
        )
        good = save_checkpoint(
            Checkpoint(other, init_params(other, 0), 0, 123, [0.5, 0.25, 0.125])
        )
        # splice original payload behind the other header
        (hl_good,) = struct.unpack("<Q", good[8:16])
        (hl_blob,) = struct.unpack("<Q", blob[8:16])
        spliced = good[: 16 + hl_good] + blob[16 + hl_blob :]
        with pytest.raises(FormatError):
            load_checkpoint(spliced)


def with_header(blob, edit):
    """``blob`` with its JSON header replaced by ``edit(header)``."""
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + length])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(head)) + head + blob[16 + length :]


class TestMalformedHeader:
    def test_tensors_not_a_list(self):
        blob = with_header(save_checkpoint(make_ck()), lambda h: h.update(tensors=5))
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(blob)

    def test_tensor_entry_without_name(self):
        blob = with_header(save_checkpoint(make_ck()), lambda h: h["tensors"][0].pop("name"))
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(blob)

    def test_encoder_pool_zero(self):
        def edit(h):
            h["profile"]["encoder"][0][2] = 0

        with pytest.raises(FormatError, match="header"):
            load_checkpoint(with_header(save_checkpoint(make_ck()), edit))

    @pytest.mark.parametrize("stages", [[], [[3, 2]], [[3, 0, 2]], [[-3, 2, 2]]])
    def test_bad_encoder_stages(self, stages):
        def edit(h):
            h["profile"]["encoder"] = stages

        with pytest.raises(FormatError, match="header"):
            load_checkpoint(with_header(save_checkpoint(make_ck()), edit))

    def test_epoch_count_overflow(self):
        blob = with_header(save_checkpoint(make_ck()), lambda h: h.update(epochs=1e400))
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(blob)

    def test_deeply_nested_header(self):
        head = b"[" * 100000
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(MAGIC + struct.pack("<Q", len(head)) + head)


_BLOB = save_checkpoint(make_ck())


class TestFuzz:
    @given(
        edits=st.lists(
            st.tuples(st.integers(0, len(_BLOB) - 1), st.integers(0, 255)), min_size=1, max_size=4
        ),
        cut=st.none() | st.integers(0, len(_BLOB)),
        header_only=st.booleans(),
    )
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_byte_mutations_raise_only_format_error(self, edits, cut, header_only):
        (length,) = struct.unpack("<Q", _BLOB[8:16])
        data = bytearray(_BLOB[:cut])
        for pos, value in edits:
            # most payload bytes only change a float; aim at the header half the time
            pos = pos % (16 + length) if header_only else pos
            if pos < len(data):
                data[pos] = value
        try:
            load_checkpoint(bytes(data))
        except FormatError:
            pass


class TestValidation:
    def test_wrong_tensor_count(self):
        params = init_params(PROFILE, 0)
        with pytest.raises(ValueError, match="tensors"):
            Checkpoint(PROFILE, params[:-1], 0, 1)

    def test_wrong_tensor_shape(self):
        params = init_params(PROFILE, 0)
        params[0] = params[0][:, :, :, :1]
        with pytest.raises(ValueError, match="shape"):
            Checkpoint(PROFILE, params, 0, 1)
