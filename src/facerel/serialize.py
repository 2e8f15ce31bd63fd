"""A small self-describing binary container: JSON header plus raw arrays.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header,
then the raw bytes of each array in the header's listed order, and nothing
after them.  The header carries a format version, a container kind, caller
metadata, the name / shape / dtype of every array (each name once), and the
SHA-256 of all the array bytes, which loading checks, so a damaged byte in
array data raises instead of loading.  Every array is float64, stored
``<f8``, and every number in the header is finite.  Writing the same content
twice produces byte-identical files: the header is dumped with sorted keys
and arrays are stored in the order given, little-endian, C-contiguous.
Loading returns them in that order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"FACEREL1"
#: 2 added the ``sha256`` digest of the array bytes to the header.
FORMAT_VERSION = 2

_DTYPE = "<f8"


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    digest = hashlib.sha256()
    for name, arr in arrays.items():
        arr = np.asarray(arr, order="C")  # np.ascontiguousarray makes 0-d 1-d
        if arr.dtype != np.float64:
            raise ValueError(f"array {name!r} has unsupported dtype {arr.dtype}")
        # a byte view of the C-ordered little-endian array, not a copy of it
        blob = arr.astype(_DTYPE, copy=False).reshape(-1).view(np.uint8)
        entries.append({"name": name, "shape": list(arr.shape), "dtype": _DTYPE})
        blobs.append(blob)
        digest.update(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta,
        "arrays": entries,
        "sha256": digest.hexdigest(),
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
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

        def finite(text: str) -> float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(f"{path}: header holds the non-finite number {text}")
            return value

        try:
            header = json.loads(
                f.read(header_len).decode("utf-8"), parse_constant=finite, parse_float=finite
            )
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
        digest = hashlib.sha256()
        for i, entry in enumerate(header["arrays"]):
            name, shape = _entry(path, i, entry)
            if name in arrays:
                raise ValueError(f"{path}: header lists array {name!r} twice")
            nbytes = math.prod(shape) * np.dtype(_DTYPE).itemsize
            if nbytes > size - f.tell():
                raise ValueError(f"{path}: truncated array data for {name!r}")
            arr = np.empty(shape, dtype=_DTYPE)
            blob = arr.reshape(-1).view(np.uint8)  # the file's bytes land in the array itself
            if f.readinto(blob) != nbytes:  # the file shrank after its size was read
                raise ValueError(f"{path}: truncated array data for {name!r}")
            digest.update(blob)
            arrays[name] = arr
        if f.tell() != size:
            raise ValueError(f"{path}: {size - f.tell()} trailing byte(s) after the last array")
    if header.get("sha256") != digest.hexdigest():
        raise ValueError(f"{path}: array data does not match the header's sha256 digest")
    return header["kind"], header["meta"], arrays


def _entry(path, i: int, entry) -> tuple[str, list[int]]:
    """The (name, shape) of array entry ``i`` of the header, checked."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: array entry {i} is not an object")
    name, shape, code = entry.get("name"), entry.get("shape"), entry.get("dtype")
    if not isinstance(name, str):
        raise ValueError(f"{path}: array entry {i} has no string name")
    if code != _DTYPE:
        raise ValueError(f"{path}: unsupported dtype {code} for {name!r}")
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
        raise ValueError(f"{path}: shape {shape} of {name!r} is not a list of sizes >= 0")
    return name, shape
