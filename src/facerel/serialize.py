"""A small self-describing binary container: JSON header plus raw arrays.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header,
then the raw bytes of each array in the header's listed order.  The header
carries a format version, a container kind, caller metadata, and the name /
shape / dtype of every array.  Writing the same content twice produces
byte-identical files: the header is dumped with sorted keys and arrays are
stored in sorted-name order, little-endian, C-contiguous.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"FACEREL1"
FORMAT_VERSION = 1

_ALLOWED_DTYPES = {"<f8", "<f4", "<i8"}


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype == np.float64:
            code = "<f8"
        elif arr.dtype == np.float32:
            code = "<f4"
        elif arr.dtype == np.int64:
            code = "<i8"
        else:
            raise ValueError(f"array {name!r} has unsupported dtype {arr.dtype}")
        arr = arr.astype(np.dtype(code), copy=False)
        entries.append({"name": name, "shape": list(arr.shape), "dtype": code})
        blobs.append(arr.tobytes(order="C"))

    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta,
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)


def load_container(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Read a container back; any malformed part raises ``ValueError`` naming it."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a facerel container (bad magic)")
        length = f.read(8)
        if len(length) != 8:
            raise ValueError(f"{path}: truncated header length")
        (header_len,) = struct.unpack("<Q", length)
        # sizes are checked against the bytes left before any read, so a
        # corrupt size cannot ask for a huge allocation
        size = os.fstat(f.fileno()).st_size
        if header_len > size - f.tell():
            raise ValueError(f"{path}: truncated header ({header_len} bytes declared)")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValueError(f"{path}: header is not UTF-8 JSON: {e}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is a JSON {type(header).__name__}, not an object")
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported container format version {header.get('format_version')}"
            )
        for field, want in (("kind", str), ("meta", dict), ("arrays", list)):
            if not isinstance(header.get(field), want):
                raise ValueError(f"{path}: header field {field!r} is missing or not a {want.__name__}")
        arrays = {}
        for i, entry in enumerate(header["arrays"]):
            name, shape, code = _entry(path, i, entry)
            dt = np.dtype(code)
            nbytes = math.prod(shape) * dt.itemsize
            if nbytes > size - f.tell():
                raise ValueError(f"{path}: truncated array data for {name!r}")
            arrays[name] = np.frombuffer(f.read(nbytes), dtype=dt).reshape(shape).copy()
    return header["kind"], header["meta"], arrays


def _entry(path, i: int, entry) -> tuple[str, list[int], str]:
    """The (name, shape, dtype) of array entry ``i`` of the header, checked."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: array entry {i} is not an object")
    name, shape, code = entry.get("name"), entry.get("shape"), entry.get("dtype")
    if not isinstance(name, str):
        raise ValueError(f"{path}: array entry {i} has no string name")
    if code not in _ALLOWED_DTYPES:
        raise ValueError(f"{path}: unsupported dtype {code} for {name!r}")
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
        raise ValueError(f"{path}: shape {shape} of {name!r} is not a list of sizes >= 0")
    return name, shape, code
