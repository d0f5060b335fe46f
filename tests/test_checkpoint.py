import numpy as np
import pytest

from gdnsq.checkpoint import (array_to_json, json_to_array, load_arrays,
                              save_arrays)
from gdnsq.errors import FormatError


def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "model/0/W": rng.normal(size=(4, 3)),
        "opt/t": np.asarray(17, dtype=np.int64),
        "config/json": json_to_array({"a": 1, "b": [2, 3]}),
        "scalar": np.asarray(3.14),
    }


def test_save_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    arrays = sample_arrays()
    save_arrays(p1, arrays)
    loaded = load_arrays(p1)
    save_arrays(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_values_and_dtypes(tmp_path):
    p = tmp_path / "c.ckpt"
    arrays = sample_arrays()
    save_arrays(p, arrays)
    loaded = load_arrays(p)
    assert set(loaded) == set(arrays)
    for k in arrays:
        np.testing.assert_array_equal(loaded[k], arrays[k])
        assert loaded[k].dtype == np.asarray(arrays[k]).dtype


def test_flipped_magic_rejected(tmp_path):
    p = tmp_path / "d.ckpt"
    save_arrays(p, sample_arrays())
    blob = bytearray(p.read_bytes())
    blob[0] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_arrays(p)


def test_truncated_section_rejected(tmp_path):
    p = tmp_path / "e.ckpt"
    save_arrays(p, sample_arrays())
    blob = p.read_bytes()
    p.write_bytes(blob[:-7])
    with pytest.raises(FormatError):
        load_arrays(p)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(FormatError):
        save_arrays(tmp_path / "f.ckpt", {"x": np.zeros(3, dtype=np.float32)})


def test_json_round_trip():
    obj = {"model": "mlp3", "targets": [4.0, 4.0], "flag": True}
    assert array_to_json(json_to_array(obj)) == obj


def test_rng_state_round_trip():
    # a generator's state is stored as JSON; its 128-bit integers come back
    # exact
    gen = np.random.default_rng(123)
    gen.normal(size=100)  # advance
    clone = np.random.default_rng(0)
    clone.bit_generator.state = array_to_json(
        json_to_array(gen.bit_generator.state))
    np.testing.assert_array_equal(gen.normal(size=50), clone.normal(size=50))
    np.testing.assert_array_equal(gen.integers(0, 2, size=32),
                                  clone.integers(0, 2, size=32))
