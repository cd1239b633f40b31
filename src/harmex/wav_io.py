"""Mono WAV reading and writing (PCM16 and Float32)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.io import wavfile

from .errors import DomainError, FormatError, check_positive
from .signal_core import AudioSignal


class WavEncoding(Enum):
    PCM16 = "pcm16"
    FLOAT32 = "float32"


@dataclass(frozen=True)
class WavSpec:
    sample_rate: float = 16000
    encoding: WavEncoding = WavEncoding.FLOAT32

    def __post_init__(self):
        check_positive("sample_rate", self.sample_rate, error=FormatError)


@dataclass(frozen=True)
class WavWriteInfo:
    """Metadata from a write; clipped counts samples saturated under PCM16."""

    path: str
    clipped: int = 0


def read_wav(path) -> AudioSignal:
    """Read a mono PCM16 or Float32 RIFF/WAVE file."""
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FormatError(f"unreadable WAV: {exc}", path=path)
    if data.ndim != 1:
        raise FormatError(f"expected mono audio, got {data.ndim} channels", path=path)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32767.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FormatError(f"unsupported sample encoding {data.dtype}", path=path)
    return AudioSignal(samples, rate)


def write_wav(path, x: AudioSignal, spec: WavSpec | None = None) -> WavWriteInfo:
    """Write a mono WAV.

    PCM16 scales symmetrically by 32767 with saturation (clip count returned
    in the metadata); Float32 round-trips bit-exactly through read_wav.
    """
    if not np.all(np.isfinite(x.samples)):
        raise DomainError("cannot write non-finite samples")
    spec = spec or WavSpec(sample_rate=x.sample_rate)
    rate = int(round(spec.sample_rate))
    clipped = 0
    if spec.encoding is WavEncoding.PCM16:
        scaled = np.rint(x.samples * 32767.0)
        clipped = int(np.count_nonzero(np.abs(scaled) > 32767))
        data = np.clip(scaled, -32767, 32767).astype(np.int16)
    else:
        data = x.samples.astype(np.float32)
    wavfile.write(path, rate, data)
    return WavWriteInfo(str(path), clipped)
