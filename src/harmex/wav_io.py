"""Mono WAV reading and writing (PCM16 and Float32).

``write_wav(path, x, encoding)`` writes the bytes SciPy's ``wavfile.write``
writes, at ``x``'s rate rounded to an integer (little-endian ``RIFF``, sizes
in bytes):

- PCM16: ``RIFF`` header (12), ``fmt `` chunk (8 + 16: tag 1, 1 channel,
  rate, 2 * rate bytes/s, block align 2, 16 bits), ``data`` chunk (8 + 2n).
- Float32: ``RIFF`` header (12), ``fmt `` chunk (8 + 18: tag 3, 1 channel,
  rate, 4 * rate bytes/s, block align 4, 32 bits, cbSize 0), ``fact`` chunk
  (8 + 4: the sample count n), ``data`` chunk (8 + 4n).

The reader accepts ``RIFF`` (little-endian) and ``RIFX`` (big-endian)
``WAVE`` files.  It walks the chunks in order, skips any it does not know
(an odd-sized chunk is followed by one pad byte), and stops at the first
``data`` chunk, which must come after a ``fmt `` chunk.  The ``fmt `` chunk
may carry tag 1 (PCM), tag 3 (IEEE float) or tag 0xFFFE
(``WAVE_FORMAT_EXTENSIBLE``) with a PCM or float subformat.  The RIFF size
field is not used.  Mono 16-bit PCM, 32-bit float and 64-bit float data are
read as SciPy's ``wavfile.read`` reads them; everything else raises
``FormatError``: other channel counts or sample widths, a truncated header
or chunk, bytes that are not RIFF/WAVE, and a rate (0) or samples (NaN, inf)
that ``AudioSignal`` refuses.  A ``data`` chunk shorter than its declared
size is an error here, where SciPy only warns.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import SAMPLE_LIMIT, ConfigError, FormatError, check_array, check_type, from_file
from .signal_core import AudioSignal
from .tensor_io import _float32

WAVE_PCM, WAVE_IEEE_FLOAT, WAVE_EXTENSIBLE = 1, 3, 0xFFFE
ENCODINGS = ("float32", "pcm16")  # the sample encodings write_wav writes
U32_MAX = 0xFFFFFFFF
# KSDATAFORMAT_SUBTYPE_* GUIDs end in these 12 bytes after the 4-byte tag;
# the first three GUID fields follow the file's byte order (RFC 2361)
GUID_TAIL = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


def _sample_dtype(fmt: bytes, order: str, path) -> tuple[np.dtype, int]:
    """The numpy dtype and sample rate a ``fmt `` chunk body declares."""
    if len(fmt) < 16:
        raise FormatError(f"fmt chunk of {len(fmt)} bytes, need at least 16", path=path)
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(order + "HHIIHH", fmt)
    if tag == WAVE_EXTENSIBLE:
        if len(fmt) < 40 or struct.unpack_from(order + "H", fmt, 16)[0] < 22:
            raise FormatError("WAVE_FORMAT_EXTENSIBLE fmt chunk is too short", path=path)
        if fmt[28:40] == GUID_TAIL[order]:
            tag = struct.unpack_from(order + "I", fmt, 24)[0]
    if channels != 1:
        raise FormatError(f"expected mono audio, got {channels} channels", path=path)
    if tag == WAVE_PCM and byte_rate != rate * block_align:
        header = f"bytes/s {byte_rate} != rate {rate} x block align {block_align}"
        raise FormatError(f"inconsistent PCM header: {header}", path=path)
    if tag == WAVE_PCM and 8 < bits <= 16 and block_align == 2:
        return np.dtype(order + "i2"), rate
    if tag == WAVE_IEEE_FLOAT and bits == 8 * block_align in (32, 64):
        return np.dtype(f"{order}f{block_align}"), rate
    encoding = f"tag {tag:#x}, {bits} bits in {block_align} bytes"
    raise FormatError(f"unsupported sample encoding: {encoding}", path=path)


def read_wav(path) -> AudioSignal:
    """Read a mono PCM16, Float32 or Float64 RIFF/WAVE file (layout above).

    PCM16 scales by 1/32767.  A missing file raises ``FileNotFoundError``;
    malformed or unsupported bytes raise ``FormatError``, including a data
    chunk shorter than its declared size (SciPy only warns on that).
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if len(raw) < 12 or raw[:4] not in (b"RIFF", b"RIFX") or raw[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file", path=path)
    order = "<" if raw[:4] == b"RIFF" else ">"
    fmt = None
    pos = 12
    while pos < len(raw):
        if pos + 8 > len(raw):
            raise FormatError(f"truncated chunk header at byte {pos}", path=path)
        chunk_id, size = struct.unpack_from(order + "4sI", raw, pos)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"{chunk_id!r} chunk has {len(body)} of its {size} bytes", path=path)
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            if fmt is None:
                raise FormatError("data chunk before fmt chunk", path=path)
            dtype, rate = _sample_dtype(fmt, order, path)
            data = np.frombuffer(body, dtype, count=size // dtype.itemsize)
            return from_file(path, AudioSignal, data / 32767.0 if dtype.kind == "i" else data, rate)
        pos += 8 + size + size % 2
    raise FormatError("no data chunk", path=path)


def write_wav(path, x: AudioSignal, encoding: str = "float32") -> int:
    """Write a mono WAV (byte layout above); returns the PCM16 clip count.

    ``encoding`` is one of ``ENCODINGS``, ``"float32"`` or ``"pcm16"``;
    anything else raises ``ConfigError`` before the file is opened.
    The rounded rate must be in [1, U32_MAX // width], so that bytes/s fits
    32 bits, or ``FormatError`` is raised before the file is opened.  PCM16
    scales symmetrically by 32767 with saturation, and the count is the
    samples saturated; Float32 (count 0) round-trips bit-exactly through
    read_wav.  A sample beyond the float32 range (3.4e38) is a ``FormatError``
    for Float32, raised before the file is opened.
    """
    check_type("signal", x, AudioSignal)
    if not isinstance(encoding, str) or encoding not in ENCODINGS:
        raise ConfigError(f"unknown WAV encoding {encoding!r}")
    check_array("samples to write", x.samples, 1, limit=SAMPLE_LIMIT)  # x.samples can be replaced
    width = 2 if encoding == "pcm16" else 4
    rate = int(round(x.sample_rate))
    if not 1 <= rate <= U32_MAX // width:
        message = f"sample_rate {x.sample_rate!r} rounds outside [1, {U32_MAX // width}]"
        raise FormatError(f"{message}, the rates a {encoding} WAV header holds", path=path)
    clipped = 0
    if encoding == "pcm16":
        scaled = np.rint(x.samples * 32767.0)
        clipped = int(np.count_nonzero(np.abs(scaled) > 32767))
        data = np.clip(scaled, -32767, 32767).astype("<i2")
        fmt = struct.pack("<HHIIHH", WAVE_PCM, 1, rate, 2 * rate, 2, 16)
        fact = b""
    else:
        data = _float32(x.samples, path)
        fmt = struct.pack("<HHIIHHH", WAVE_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0)
        fact = struct.pack("<4sII", b"fact", 4, len(data))
    chunks = struct.pack("<4sI", b"fmt ", len(fmt)) + fmt + fact
    riff_size = 4 + len(chunks) + 8 + data.nbytes
    if riff_size > U32_MAX:
        raise FormatError(f"{len(data)} samples do not fit a RIFF file (4 GiB)", path=path)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE"))
        fh.write(chunks + struct.pack("<4sI", b"data", data.nbytes))
        fh.write(data.tobytes())
    return clipped
