"""The one binary codec, for feature tensors and LTV coefficient files.

Layout (little-endian): 4-byte magic, u32 version, u32 n_rows, u32 n_cols, one
f64 per header scalar of that version, then n_rows x n_cols f32 row-major.
``LTVF`` coefficient files (version 1) have frames x taps and two scalars,
hop_seconds then sample_rate.  ``HMX1`` feature tensors have frames x dims;
version 1 has one scalar, hop_seconds, and version 2, written for mel
spectrograms, follows it with the analysis geometry: sample_rate, fft_size,
win_size, hop_size, f_min, f_max.  Readers raise ``FormatError`` on a bad
magic or version, a short file, a header scalar that is not finite and > 0
(f_min may be 0), and any value the file's record refuses.
"""

from __future__ import annotations

import math
import os
import struct
from functools import partial

import numpy as np

from .errors import FormatError, check_positive, check_type, from_file
from .spectral import MelSpectrogram, StftConfig

HMX_MAGIC = b"HMX1"
HMX_LAYOUTS = {
    1: ("hop_seconds",),
    2: ("hop_seconds", "sample_rate", "fft_size", "win_size", "hop_size", "f_min", "f_max"),
}
_PREFIX = struct.Struct("<4sIII")


def _float32(data: np.ndarray, path) -> np.ndarray:
    """``data`` as contiguous ``<f4``; FormatError, before any file is opened, if that overflows."""
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(data, dtype="<f4")
    if np.any(np.isinf(out) & ~np.isinf(data)):
        raise FormatError("values beyond the float32 range (3.4e38) do not fit the file", path=path)
    return out


def write_tensor(path, magic: bytes, data: np.ndarray, *scalars: float, version: int = 1) -> None:
    data = np.atleast_2d(np.asarray(data))
    if data.ndim != 2:
        raise FormatError("tensor data must be 2-D (n_rows x n_cols)", path=path)
    payload = _float32(data, path)
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, version, *data.shape))
        fh.write(struct.pack(f"<{len(scalars)}d", *scalars))
        fh.write(payload.tobytes())


def read_tensor(path, magic: bytes, layouts: dict[int, tuple[str, ...]]) -> tuple[np.ndarray, dict]:
    """Returns (n_rows x n_cols float32 array, header scalars by name).

    ``layouts`` maps each readable version to the names of its scalars.
    """
    bad = partial(FormatError, path=path)
    with open(path, "rb") as fh:
        raw = fh.read(_PREFIX.size)
        if len(raw) != _PREFIX.size:
            raise bad("truncated header")
        found, version, n_rows, n_cols = _PREFIX.unpack(raw)
        if found != magic:
            raise bad(f"bad magic {found!r}, expected {magic!r}")
        if version not in layouts:
            raise bad(f"unsupported version {version}")
        names = layouts[version]
        raw = fh.read(8 * len(names))
        if len(raw) != 8 * len(names):
            raise bad("truncated header")
        header = dict(zip(names, struct.unpack(f"<{len(names)}d", raw)))
        for name, value in header.items():
            check_positive(name, value, allow_zero=name == "f_min", error=bad)
        n_bytes = 4 * n_rows * n_cols
        if os.fstat(fh.fileno()).st_size - fh.tell() < n_bytes:
            raise bad("truncated payload")
        payload = fh.read(n_bytes)
    return np.frombuffer(payload, dtype="<f4").reshape(n_rows, n_cols), header


def write_feature_file(path, data: np.ndarray, hop_seconds: float) -> None:
    """A version-1 ``HMX1`` file: frames and their hop."""
    check_positive("hop_seconds", hop_seconds)
    write_tensor(path, HMX_MAGIC, data, hop_seconds)


def write_mel_file(path, mel) -> None:
    """A version-2 ``HMX1`` file: a ``MelSpectrogram``'s frames, hop and geometry."""
    check_type("mel", mel, MelSpectrogram)
    cfg = mel.config
    geometry = (mel.sample_rate, cfg.fft_size, cfg.win_size, cfg.hop_size, *mel.mel_range)
    write_tensor(path, HMX_MAGIC, mel.frames, mel.hop_seconds, *geometry, version=2)


def read_mel_file(path) -> MelSpectrogram:
    """The ``MelSpectrogram`` of a version-2 ``HMX1`` file, its geometry from the header.

    ``FormatError`` for a version-1 file (it has no geometry), any value its
    records refuse, and a hop_seconds other than hop_size / sample_rate.
    """
    bad = partial(FormatError, path=path)
    frames, h = read_tensor(path, HMX_MAGIC, HMX_LAYOUTS)
    if len(h) == 1:
        raise bad("file version 1 has no mel geometry; `harmex mel` writes version 2")
    stft = from_file(path, StftConfig, h["fft_size"], h["win_size"], h["hop_size"])
    if not math.isclose(h["hop_seconds"], stft.hop_size / h["sample_rate"]):
        rate = f"hop_size/sample_rate = {stft.hop_size}/{h['sample_rate']}"
        raise bad(f"hop_seconds {h['hop_seconds']} differs from {rate}")
    return from_file(path, MelSpectrogram, frames, stft, h["sample_rate"], (h["f_min"], h["f_max"]))


def read_feature_file(path) -> tuple[np.ndarray, float]:
    """Returns (n_frames x n_dims float32 array, hop_seconds) for either version."""
    data, header = read_tensor(path, HMX_MAGIC, HMX_LAYOUTS)
    return data, header["hop_seconds"]
