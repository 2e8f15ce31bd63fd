"""Container and checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest

from facerel.checkpoint import load_checkpoint, save_checkpoint
from facerel.net import NetworkSpec, conv_spec, fc_spec, init_trunk_params, pool_spec, relu_spec
from facerel.serialize import FORMAT_VERSION, MAGIC, load_container, save_container


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


def test_container_rejects_damaged_array_data(tmp_path):
    path = tmp_path / "c.bin"
    save_container(path, "test", {}, {"x": np.linspace(0, 1, 11)})
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01  # one mantissa bit of the last value
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="does not match the header's sha256") as err:
        load_container(path)
    assert str(path) in str(err.value)


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAFILE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_container(path)


def _header(**fields):
    return json.dumps(
        {"format_version": FORMAT_VERSION, "kind": "test", "meta": {}, **fields}
    ).encode()


@pytest.mark.parametrize(
    "header, match",
    [
        (b"[1, 2]", "header is a JSON list, not an object"),
        (json.dumps({"format_version": FORMAT_VERSION, "kind": "test", "meta": {}}).encode(),
         "header field 'arrays' is missing"),
        (_header(arrays=[{"name": "a", "shape": [-1], "dtype": "<f8"}]),
         r"shape \[-1\] of 'a' is not a list of sizes >= 0"),
        (_header(arrays=[{"shape": [2], "dtype": "<f8"}]), "array entry 0 has no string name"),
        (b"\xff{}", "header is not UTF-8 JSON"),
        (_header(arrays=[{"name": "a", "shape": [2**40], "dtype": "<f8"}]),
         "truncated array data for 'a'"),
        (_header(arrays=[{"name": "a", "shape": [2], "dtype": "<f4"}]),
         "unsupported dtype <f4 for 'a'"),
        (_header(arrays=[{"name": "a", "shape": [2], "dtype": ["<f8"]}]),
         r"unsupported dtype \['<f8'\] for 'a'"),
        (_header(meta={"bridge_dim": float("inf")}, arrays=[]), "non-finite number Infinity"),
        (_header(meta={"t_top": -float("inf")}, arrays=[]), "non-finite number -Infinity"),
        (_header(meta={"sentinel": float("nan")}, arrays=[]), "non-finite number NaN"),
        (b'{"format_version": %d, "kind": "bridge-bank", "meta": {"hog": {"cell": 1e999}}}'
         % FORMAT_VERSION,
         "non-finite number 1e999"),
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


def test_container_rejects_an_array_listed_twice(tmp_path):
    entry = {"name": "a", "shape": [1], "dtype": "<f8"}
    header = _header(arrays=[entry, entry])
    path = tmp_path / "twice.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + b"\x00" * 16)
    with pytest.raises(ValueError, match="header lists array 'a' twice") as err:
        load_container(path)
    assert str(path) in str(err.value)


def test_container_rejects_bytes_after_the_last_array(tmp_path):
    path = tmp_path / "c.bin"
    save_container(path, "test", {}, {"x": np.linspace(0, 1, 11)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match=r"1 trailing byte\(s\) after the last array") as err:
        load_container(path)
    assert str(path) in str(err.value)


def test_save_container_refuses_what_it_cannot_store(tmp_path):
    path = tmp_path / "c.bin"
    with pytest.raises(ValueError, match="array 'x' has unsupported dtype float32"):
        save_container(path, "test", {}, {"x": np.zeros(2, dtype=np.float32)})
    with pytest.raises(ValueError, match="Out of range float"):
        save_container(path, "test", {"sentinel": float("nan")}, {})
    assert not path.exists()


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


def _fractional_kernel(meta, arrays):
    meta["network"]["layers"][0]["kernel"] = 2.5


def _infeasible_spec(meta, arrays):
    meta["network"]["input_shape"] = [1, 2, 2]


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_wrong_fc1_shape, r"'trunk.fc1.w' has shape \(3, 3\), the network needs \(11, 4\)"),
        (_missing_conv1_bias, "'trunk.conv1.b' of the network is missing"),
        (lambda meta, arrays: meta.pop("network"), "meta field 'network' is missing"),
        (_unknown_layer_field, r"'network'.*unknown layer field\(s\) \['dilation'\]"),
        (_fractional_kernel, "'network'.*layer field 'kernel' must be an int, got 2.5"),
        (_infeasible_spec, "'network'.*kernel 3 does not fit 2x2"),
        (lambda meta, arrays: meta["param_order"].append(["trunk.fc1.w"]),
         r"'param_order' holds \['trunk.fc1.w'\], not a name"),
        (lambda meta, arrays: meta["param_order"].insert(0, {"name": "trunk.fc1.w"}),
         "'param_order' holds {'name': 'trunk.fc1.w'}, not a name"),
        (lambda meta, arrays: meta["param_order"].append("trunk.conv1.w"),
         "'param_order' lists 'trunk.conv1.w' twice"),
        (lambda meta, arrays: meta.update(extra=["tiny"]), "meta field 'extra' is missing or not a dict"),
        (lambda meta, arrays: meta["network"].update(layers=[]),
         "'network'.*at least one layer"),
    ],
    ids=["fc1-shape", "missing-conv1-bias", "no-network", "unknown-layer-field",
         "fractional-kernel", "infeasible",
         "list-name", "dict-name", "duplicate-name", "extra-not-dict", "no-layers"],
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
