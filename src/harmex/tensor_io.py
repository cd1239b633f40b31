"""The one binary codec, for feature tensors and LTV coefficient files.

Layout (little-endian): 4-byte magic, u32 version (1), u32 n_rows,
u32 n_cols, one f64 per header scalar, then n_rows x n_cols f32 row-major.
``HMX1`` feature tensors have frames x dims and one scalar, hop_seconds;
``LTVF`` coefficient files have frames x taps and two, hop_seconds then
sample_rate.  Readers raise ``FormatError`` on a bad magic or version, a
short file, or a header scalar that is not finite and > 0.
"""

from __future__ import annotations

import os
import struct
from functools import partial

import numpy as np

from .errors import FormatError, check_positive

HMX_MAGIC = b"HMX1"
VERSION = 1


def write_tensor(path, magic: bytes, data: np.ndarray, *scalars: float) -> None:
    data = np.atleast_2d(np.asarray(data))
    if data.ndim != 2:
        raise FormatError("tensor data must be 2-D (n_rows x n_cols)", path=path)
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sIII{len(scalars)}d", magic, VERSION, *data.shape, *scalars))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_tensor(path, magic: bytes, names: tuple[str, ...]) -> tuple[np.ndarray, tuple]:
    """Returns (n_rows x n_cols float32 array, header scalars named by ``names``)."""
    header = struct.Struct(f"<4sIII{len(names)}d")
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        if len(raw) != header.size:
            raise FormatError("truncated header", path=path)
        found, version, n_rows, n_cols, *scalars = header.unpack(raw)
        if found != magic:
            raise FormatError(f"bad magic {found!r}, expected {magic!r}", path=path)
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", path=path)
        for name, value in zip(names, scalars):
            check_positive(name, value, error=partial(FormatError, path=path))
        n_bytes = 4 * n_rows * n_cols
        if os.fstat(fh.fileno()).st_size - header.size < n_bytes:
            raise FormatError("truncated payload", path=path)
        payload = fh.read(n_bytes)
    return np.frombuffer(payload, dtype="<f4").reshape(n_rows, n_cols), tuple(scalars)


def write_feature_file(path, data: np.ndarray, hop_seconds: float) -> None:
    write_tensor(path, HMX_MAGIC, data, hop_seconds)


def read_feature_file(path) -> tuple[np.ndarray, float]:
    """Returns (n_frames x n_dims float32 array, hop_seconds)."""
    data, (hop_seconds,) = read_tensor(path, HMX_MAGIC, ("hop_seconds",))
    return data, hop_seconds
