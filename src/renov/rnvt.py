"""RNVT tensor container and small image writers.

Layout (little-endian throughout):

    magic   4 bytes  b"RNVT"
    version u32      1
    dtype   u8       0=f32, 1=f64, 2=u8, 3=i64
    ndim    u8
    pad     2 bytes  zero
    dims    ndim x u64
    data    row-major

Total length = 12 + 8*ndim + itemsize*prod(dims).  All writers go through a
temp file of their own + rename so a killed process never leaves a truncated
file under the final name, and concurrent writers of one path never share a
temp file, and write_dir puts a set of files in a temp directory of its own
and renames that over the output directory (a reader that opens a set's files
one by one while it is replaced can read some of each).  Readers raise
InputError naming the path for a missing, unreadable or damaged file; writers
for a path the OS will not write (no space left, no permission), after
removing their temp file.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import shutil
import struct
import uuid
from pathlib import Path

import numpy as np

from .errors import InputError

MAGIC = b"RNVT"
VERSION = 1

_DTYPE_CODES = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("u1"): 2,
    np.dtype("<i8"): 3,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def _refused(path, e: OSError) -> InputError:
    return InputError(f"cannot write {path}: {e.strerror or e}")


def _atomic_write_bytes(path, blob: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as e:
        raise _refused(path, e) from e
    finally:  # gone once renamed; say, a name too long for the OS to make was never made
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e


def encode_tensor(arr: np.ndarray) -> bytes:
    """Serialize an array to RNVT bytes. Dtype must be one of the four codes."""
    arr = np.asarray(arr)
    dt = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
    if np.dtype(dt) not in _DTYPE_CODES:
        raise InputError(f"unsupported dtype for RNVT: {arr.dtype}")
    code = _DTYPE_CODES[np.dtype(dt)]
    header = struct.pack("<4sIBBxx", MAGIC, VERSION, code, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    data = np.ascontiguousarray(arr.astype(dt, copy=False)).tobytes()
    return header + dims + data


def decode_tensor(blob: bytes) -> np.ndarray:
    if len(blob) < 12:
        raise InputError("RNVT blob shorter than header")
    magic, version, code, ndim = struct.unpack_from("<4sIBBxx", blob, 0)
    if magic != MAGIC:
        raise InputError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise InputError(f"unsupported RNVT version {version}")
    if code not in _CODE_DTYPES:
        raise InputError(f"unknown dtype code {code}")
    if len(blob) < 12 + 8 * ndim:
        raise InputError(f"RNVT blob shorter than its {ndim} header dims")
    dims = struct.unpack_from(f"<{ndim}Q", blob, 12)
    dtype = _CODE_DTYPES[code]
    count = math.prod(dims)  # Python ints: a huge declared shape cannot wrap to a small count
    expected = 12 + 8 * ndim + dtype.itemsize * count
    if len(blob) != expected:
        # expected can have more digits than Python will print: name the header fields instead
        raise InputError(f"RNVT length {len(blob)} does not match the {ndim}-dim {dtype} shape "
                         "its header declares")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=12 + 8 * ndim)
    try:
        return data.reshape(dims).copy()
    except ValueError as e:  # more dims than numpy supports, or a dim past its limit
        raise InputError(f"RNVT shape {dims} is not representable: {e}") from e


def write_tensor(path, arr: np.ndarray) -> None:
    _atomic_write_bytes(path, encode_tensor(arr))


def read_tensor(path) -> np.ndarray:
    blob = _read_bytes(path)
    try:
        return decode_tensor(blob)
    except InputError as e:
        raise InputError(f"{path}: {e}") from e


def write_json(path, obj) -> None:
    """Deterministic JSON (sorted keys, fixed separators), written atomically."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    _atomic_write_bytes(path, blob + b"\n")


def write_text(path, text: str) -> None:
    """UTF-8 text, written atomically."""
    _atomic_write_bytes(path, text.encode("utf-8"))


def read_json(path):
    blob = _read_bytes(path)
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"{path} is not valid UTF-8 JSON: {e}") from e


def _write_netpbm(path, magic: bytes, img: np.ndarray) -> None:
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape[:2]
    _atomic_write_bytes(path, b"%s\n%d %d\n255\n" % (magic, w, h) + img.tobytes())


def write_ppm(path, image: np.ndarray) -> None:
    """Binary P6 PPM, maxval 255. Accepts HxWx3 floats in [0,1] or uint8."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise InputError(f"PPM wants HxWx3, got {img.shape}")
    _write_netpbm(path, b"P6", img)


def write_pgm(path, image: np.ndarray) -> None:
    """Binary P5 PGM, maxval 255. Accepts HxW floats in [0,1] or uint8."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise InputError(f"PGM wants HxW, got {img.shape}")
    _write_netpbm(path, b"P5", img)


def write_dir(out, files) -> None:
    """Replace directory `out` whole by the `(name, value)` pairs of `files`; a name's suffix
    picks its writer.  They go into a sibling `<out>.<uuid>.tmp/`, renamed over `out` at the
    end, and an old `out` is renamed aside first and removed after; any failure before that
    removes the temp directory and leaves the old `out` as it was."""
    out = Path(out)
    tmp = out.with_name(f"{out.name}.{uuid.uuid4().hex}.tmp")
    writers = {".rnvt": write_tensor, ".json": write_json, ".csv": write_text,
               ".ppm": write_ppm, ".pgm": write_pgm}  # looked up per call, as tracers patch them
    try:
        tmp.mkdir(parents=True)
        for name, value in files:
            path = tmp / name
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                writers[path.suffix](path, value)
            except InputError as e:  # name a file the OS refused where a reader will look for it
                raise _refused(out / name, e.__cause__) if isinstance(e.__cause__, OSError) else e
        old = tmp.with_suffix(".old")  # where an old out is set aside until the new one is in
        while True:
            try:
                os.rename(tmp, out)
                break
            except OSError as e:
                if e.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                    raise
            shutil.rmtree(old, ignore_errors=True)  # one an earlier try set aside
            with contextlib.suppress(FileNotFoundError):  # a concurrent writer moved it first
                os.rename(out, old)
        shutil.rmtree(old, ignore_errors=True)
    except OSError as e:
        raise _refused(out, e) from e
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
