"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    magic    8 bytes  b"GDNSQCKP"
    version  u32
    count    u32                     number of named sections
    section: name_len u32, name utf-8,
             dtype u8 (0=float64, 1=int64, 2=uint8),
             ndim u8, dims ndim*u32, raw little-endian payload

Sections are written sorted by name, so save -> load -> save is
byte-identical. Writes create the parent directory when it is missing and
go through a temp file and an atomic rename. ``section`` reads one
section of loaded arrays, checked against the shape the caller holds (()
for a scalar); a FormatError names one that is missing or of another shape.
A non-array payload is one uint8 section of compact JSON
(``json_to_array``): ``config/json``, ``spec/json`` and a QAT run's
``rng/state``, the probe generator's state.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"GDNSQCKP"
VERSION = 1

_DTYPES = {0: "<f8", 1: "<i8", 2: "u1"}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1, np.dtype(np.uint8): 2}


def save_arrays(path, arrays: dict):
    blobs = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])  # tobytes() yields C order regardless
        if arr.dtype not in _CODES:
            raise FormatError(f"section {name!r}: unsupported dtype {arr.dtype}")
        code = _CODES[arr.dtype]
        arr = arr.astype(_DTYPES[code], copy=False)
        nb = name.encode("utf-8")
        head = struct.pack("<I", len(nb)) + nb + struct.pack(
            "<BB", code, arr.ndim
        ) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        blobs.append(head + arr.tobytes())
    payload = MAGIC + struct.pack("<II", VERSION, len(blobs)) + b"".join(blobs)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def load_arrays(path) -> dict:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:8] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    version, count = struct.unpack_from("<II", blob, 8)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    out = {}
    off = 16
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off : off + name_len].decode("utf-8")
            off += name_len
            code, ndim = struct.unpack_from("<BB", blob, off)
            off += 2
            dims = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            if code not in _DTYPES:
                raise FormatError(f"{path}: section {name!r} has dtype code {code}")
            dt = np.dtype(_DTYPES[code])
            nbytes = int(np.prod(dims)) * dt.itemsize if ndim else dt.itemsize
            raw = blob[off : off + nbytes]
            if len(raw) != nbytes:
                raise FormatError(f"{path}: section {name!r} truncated")
            off += nbytes
            out[name] = np.frombuffer(raw, dtype=dt).reshape(dims).copy()
        except struct.error as e:
            raise FormatError(f"{path}: corrupt section table ({e})") from e
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def section(arrays: dict, key: str, shape=None) -> np.ndarray:
    """arrays[key]; FormatError naming the section when it is missing or,
    given a shape tuple, of another shape."""
    if key not in arrays:
        raise FormatError(f"checkpoint has no section {key!r}")
    if shape is not None and arrays[key].shape != shape:
        raise FormatError(f"checkpoint section {key!r} has shape "
                          f"{arrays[key].shape}, expected {shape}")
    return arrays[key]


# -- helpers for non-array payloads ------------------------------------------


def json_to_array(obj) -> np.ndarray:
    raw = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return np.frombuffer(raw, dtype=np.uint8).copy()


def array_to_json(arr: np.ndarray):
    """The value json_to_array stored; FormatError for bytes that are not
    UTF-8 JSON."""
    try:
        return json.loads(bytes(np.asarray(arr, dtype=np.uint8)).decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"checkpoint JSON section is not UTF-8 JSON ({e})") \
            from None
