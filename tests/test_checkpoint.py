"""Container and checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest

from facerel.checkpoint import load_checkpoint, save_checkpoint
from facerel.net import NetworkSpec, conv_spec, fc_spec, init_trunk_params, pool_spec, relu_spec
from facerel.serialize import MAGIC, load_container, save_container


def small_spec():
    return NetworkSpec(
        (1, 6, 6), (conv_spec(3, 2), relu_spec(), pool_spec(2, 2), fc_spec(4)), bridge_dim=3
    )


def test_container_roundtrip_bits(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
    path = tmp_path / "c.bin"
    save_container(path, "test", {"answer": 42}, arrays)
    kind, meta, loaded = load_container(path)
    assert kind == "test" and meta == {"answer": 42}
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])


def test_container_bytes_are_reproducible(tmp_path):
    arrays = {"x": np.linspace(0, 1, 11)}
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    save_container(p1, "test", {"k": "v"}, arrays)
    save_container(p2, "test", {"k": "v"}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAFILE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_container(path)


def _header(**fields):
    return json.dumps({"format_version": 1, "kind": "test", "meta": {}, **fields}).encode()


@pytest.mark.parametrize(
    "header, match",
    [
        (b"[1, 2]", "header is a JSON list, not an object"),
        (json.dumps({"format_version": 1, "kind": "test", "meta": {}}).encode(),
         "header field 'arrays' is missing"),
        (_header(arrays=[{"name": "a", "shape": [-1], "dtype": "<f8"}]),
         r"shape \[-1\] of 'a' is not a list of sizes >= 0"),
        (_header(arrays=[{"shape": [2], "dtype": "<f8"}]), "array entry 0 has no string name"),
        (b"\xff{}", "header is not UTF-8 JSON"),
        (_header(arrays=[{"name": "a", "shape": [2**40], "dtype": "<f8"}]),
         "truncated array data for 'a'"),
    ],
)
def test_container_rejects_malformed_header(tmp_path, header, match):
    path = tmp_path / "bad.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + b"\x00" * 16)
    with pytest.raises(ValueError, match=match) as err:
        load_container(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "tail, match",
    [(b"\x01\x02", "truncated header length"),
     (struct.pack("<Q", 2**62) + b"{}", "truncated header")],
)
def test_container_rejects_truncated_header(tmp_path, tail, match):
    path = tmp_path / "short.bin"
    path.write_bytes(MAGIC + tail)
    with pytest.raises(ValueError, match=match):
        load_container(path)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    spec = small_spec()
    params = init_trunk_params(spec, np.random.default_rng(1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, spec, params, extra={"profile": "tiny"})
    spec2, params2, extra = load_checkpoint(path)
    assert spec2 == spec
    assert extra == {"profile": "tiny"}
    assert params2.names() == params.names()
    for name, t in params.items():
        np.testing.assert_array_equal(params2[name].data, t.data)


def test_checkpoint_save_twice_identical_bytes(tmp_path):
    spec = small_spec()
    params = init_trunk_params(spec, np.random.default_rng(2))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, spec, params)
    save_checkpoint(p2, spec, params)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_keeps_parameters_outside_the_network(tmp_path):
    spec = small_spec()
    params = init_trunk_params(spec, np.random.default_rng(3))
    params.merge(init_trunk_params(NetworkSpec((4, 1, 1), (fc_spec(2),)),
                                   np.random.default_rng(4), prefix="attr."))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, spec, params)
    _, loaded, _ = load_checkpoint(path)
    assert loaded.names() == params.names()
    np.testing.assert_array_equal(loaded["attr.fc1.w"].data, params["attr.fc1.w"].data)


def _wrong_fc1_shape(meta, arrays):
    arrays["trunk.fc1.w"] = np.zeros((3, 3))


def _missing_conv1_bias(meta, arrays):
    del arrays["trunk.conv1.b"]
    meta["param_order"].remove("trunk.conv1.b")


def _unknown_layer_field(meta, arrays):
    meta["network"]["layers"][0]["dilation"] = 2


def _infeasible_spec(meta, arrays):
    meta["network"]["input_shape"] = [1, 2, 2]


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_wrong_fc1_shape, r"'trunk.fc1.w' has shape \(3, 3\), the network needs \(11, 4\)"),
        (_missing_conv1_bias, "'trunk.conv1.b' of the network is missing"),
        (lambda meta, arrays: meta.pop("network"), "meta field 'network' is missing"),
        (_unknown_layer_field, r"'network'.*unknown layer field\(s\) \['dilation'\]"),
        (_infeasible_spec, "'network'.*kernel 3 does not fit 2x2"),
    ],
    ids=["fc1-shape", "missing-conv1-bias", "no-network", "unknown-layer-field", "infeasible"],
)
def test_load_checkpoint_rejects_malformed(tmp_path, corrupt, match):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, small_spec(), init_trunk_params(small_spec(), np.random.default_rng(5)))
    _, meta, arrays = load_container(path)
    corrupt(meta, arrays)
    save_container(path, "checkpoint", meta, arrays)
    with pytest.raises(ValueError, match=match) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
