import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from harmex import (
    AudioSignal,
    ConfigError,
    DomainError,
    FormatError,
    LtvFirCoeffs,
    gaussian_noise,
    MelSpectrogram,
    StftConfig,
    read_coeffs,
    read_f0_track,
    read_feature_file,
    read_wav,
    write_coeffs,
    write_feature_file,
    write_wav,
)
from harmex.errors import SAMPLE_LIMIT
from harmex.tensor_io import HMX_LAYOUTS, read_mel_file, write_mel_file
from harmex import wav_io
from harmex.wav_io import GUID_TAIL

FS = 16000
ENCODINGS = {"pcm16": np.int16, "float32": np.float32}


def wav_bytes(fmt: bytes, data: bytes, *extra: tuple[bytes, bytes], order: str = "<") -> bytes:
    """A RIFF (``order`` "<") or RIFX (">") WAVE file: fmt, extra chunks, data."""
    chunks = b""
    for chunk_id, body in ((b"fmt ", fmt), *extra, (b"data", data)):
        chunks += struct.pack(order + "4sI", chunk_id, len(body)) + body + b"\0" * (len(body) % 2)
    magic = b"RIFF" if order == "<" else b"RIFX"
    return magic + struct.pack(order + "I", 4 + len(chunks)) + b"WAVE" + chunks


def scipy_reference(path) -> AudioSignal:
    """``wavfile.read``'s samples, PCM16 scaled by 1/32767 as read_wav scales it."""
    rate, data = wavfile.read(path)
    samples = data.astype(np.float64)
    return AudioSignal(samples / 32767.0 if data.dtype.kind == "i" else samples, rate)


def assert_same_signal(got: AudioSignal, want: AudioSignal):
    assert got.sample_rate == want.sample_rate
    np.testing.assert_array_equal(got.samples, want.samples)


class TestWavIo:
    def test_float32_round_trip_bit_exact(self, tmp_path):
        x = gaussian_noise(1000, FS, 9)
        x32 = AudioSignal(x.samples.astype(np.float32).astype(np.float64), FS)
        path = tmp_path / "f.wav"
        write_wav(path, x32, "float32")
        back = read_wav(path)
        assert back.sample_rate == FS
        np.testing.assert_array_equal(back.samples, x32.samples)

    def test_pcm16_full_scale(self, tmp_path):
        path = tmp_path / "p.wav"
        write_wav(path, AudioSignal(np.array([1.0, -1.0, 0.0]), FS), "pcm16")
        _, raw = wavfile.read(path)
        assert list(raw) == [32767, -32767, 0]

    def test_pcm16_round_trip_error_bound(self, tmp_path):
        x = AudioSignal(np.clip(gaussian_noise(2000, FS, 2).samples * 0.3, -1, 1), FS)
        path = tmp_path / "p.wav"
        write_wav(path, x, "pcm16")
        back = read_wav(path)
        assert np.max(np.abs(back.samples - x.samples)) <= 1.0 / 32767

    def test_pcm16_saturation_and_clip_count(self, tmp_path):
        path = tmp_path / "c.wav"
        x = AudioSignal(np.array([1.5, 0.0]), FS)
        assert write_wav(path, x, "pcm16") == 1
        _, raw = wavfile.read(path)
        assert raw[0] == 32767

    @pytest.mark.parametrize("encoding, tag", [("pcm16", 1), ("float32", 3)])
    def test_encoding_name_sets_the_format_tag(self, tmp_path, encoding, tag):
        path = tmp_path / "e.wav"
        assert write_wav(path, AudioSignal(np.array([0.5, 1.5]), FS), encoding) == (tag == 1)
        assert struct.unpack_from("<H", path.read_bytes(), 20)[0] == tag
        with pytest.raises(FormatError, match=f"a {encoding} WAV header"):
            write_wav(tmp_path / "r.wav", AudioSignal(np.zeros(4), 0.4), encoding)

    @pytest.mark.parametrize(
        "encoding",
        ["f64", "PCM16", None, True, np.array(["pcm16", "float32"]), {"pcm16": 1}],
        ids=["f64", "upper-case", "none", "bool", "array", "mapping"],
    )
    def test_unknown_encoding_rejected(self, tmp_path, encoding):
        """Only the two names: an array is refused before it reaches the membership test."""
        path = tmp_path / "u.wav"
        with pytest.raises(ConfigError, match="unknown WAV encoding"):
            write_wav(path, AudioSignal(np.zeros(4), FS), encoding)
        assert not path.exists()

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "s.wav"
        wavfile.write(path, FS, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(FormatError):
            read_wav(path)

    def test_nonfinite_rejected(self, tmp_path):
        x = AudioSignal(np.zeros(4), FS)
        for bad in (np.nan, SAMPLE_LIMIT):  # replaced samples are checked again, limit and all
            object.__setattr__(x, "samples", np.array([bad, 0, 0, 0]))
            with pytest.raises(DomainError):
                write_wav(tmp_path / "n.wav", x)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "missing.wav")


class TestWritersRefuseWhatReadersRefuse:
    """A value the file's reader would refuse fails in the writer, before the file is opened."""

    def test_float32_wav_beyond_float32_range(self, tmp_path):
        path = tmp_path / "big.wav"
        with pytest.raises(FormatError, match="float32 range"):
            write_wav(path, AudioSignal(np.array([0.5, -1e39]), FS))
        assert not path.exists()

    def test_float32_wav_at_the_float32_range_writes(self, tmp_path):
        path = tmp_path / "edge.wav"
        write_wav(path, AudioSignal(np.array([3.4e38, -3.4e38]), FS))
        assert np.all(np.isfinite(read_wav(path).samples))

    def test_wav_beyond_the_riff_size_field(self, tmp_path, monkeypatch):
        """With the 32-bit size fields held to 100,000, 30,000 Float32 samples (120,000 bytes)
        do not fit, as 2**30 samples do not fit 4 GiB."""
        monkeypatch.setattr(wav_io, "U32_MAX", 100_000)
        path = tmp_path / "long.wav"
        with pytest.raises(FormatError, match="30000 samples do not fit a RIFF file"):
            write_wav(path, AudioSignal(np.zeros(30_000), FS))
        assert not path.exists()

    def test_pcm16_saturates_samples_up_to_the_sample_limit(self, tmp_path):
        path = tmp_path / "sat.wav"
        big = 0.99 * SAMPLE_LIMIT
        assert write_wav(path, AudioSignal(np.array([big, -big, 0.5]), FS), "pcm16") == 2
        _, raw = wavfile.read(path)
        assert list(raw) == [32767, -32767, 16384]

    def test_coeffs_beyond_float32_range(self, tmp_path):
        path = tmp_path / "big.ltvf"
        with pytest.raises(FormatError, match="float32 range"):
            write_coeffs(path, LtvFirCoeffs(np.full((2, 3), 1e39), 0.01, FS))
        assert not path.exists()

    def test_feature_file_beyond_float32_range(self, tmp_path):
        path = tmp_path / "big.hmx"
        with pytest.raises(FormatError, match="float32 range"):
            write_feature_file(path, np.array([[1.0, 1e39]]), 0.01)
        assert not path.exists()

    @pytest.mark.parametrize("hop", [-0.01, 0.0, math.nan, math.inf])
    def test_feature_file_hop_must_be_finite_and_positive(self, tmp_path, hop):
        path = tmp_path / "hop.hmx"
        with pytest.raises(ConfigError, match="hop_seconds"):
            write_feature_file(path, np.zeros((2, 3)), hop)
        assert not path.exists()


class TestWavCodecMatchesScipy:
    """``wavfile`` is the oracle the struct codec replaced."""

    @pytest.mark.parametrize("encoding", list(ENCODINGS))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1001, 16000])
    def test_writer_bytes(self, tmp_path, encoding, n):
        x = AudioSignal(np.clip(gaussian_noise(n, FS, n).samples * 0.3, -1, 1), FS)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        write_wav(ours, x, encoding)
        if encoding == "pcm16":
            data = np.clip(np.rint(x.samples * 32767.0), -32767, 32767).astype(np.int16)
        else:
            data = x.samples.astype(np.float32)
        wavfile.write(theirs, FS, data)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
    def test_reader_on_scipy_files(self, tmp_path, dtype):
        path = tmp_path / "s.wav"
        data = gaussian_noise(777, 22050, 4).samples * 0.3
        wavfile.write(path, 22050, (data * 32767).astype(dtype) if dtype is np.int16 else data.astype(dtype))
        assert_same_signal(read_wav(path), scipy_reference(path))

    def test_reader_skips_odd_sized_list_chunk(self, tmp_path):
        path = tmp_path / "list.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, FS, 2 * FS, 2, 16)
        data = np.arange(-5, 6, dtype="<i2").tobytes()
        path.write_bytes(wav_bytes(fmt, data, (b"LIST", b"INFOx")))
        assert_same_signal(read_wav(path), scipy_reference(path))
        np.testing.assert_array_equal(read_wav(path).samples * 32767, np.arange(-5, 6))

    def test_reader_big_endian_rifx(self, tmp_path):
        path = tmp_path / "rifx.wav"
        fmt = struct.pack(">HHIIHH", 1, 1, FS, 2 * FS, 2, 16)
        path.write_bytes(wav_bytes(fmt, np.arange(-3, 4, dtype=">i2").tobytes(), order=">"))
        assert_same_signal(read_wav(path), scipy_reference(path))

    @pytest.mark.parametrize("tag, dtype", [(1, "<i2"), (3, "<f4")])
    def test_reader_extensible(self, tmp_path, tag, dtype):
        path = tmp_path / "ext.wav"
        width = np.dtype(dtype).itemsize
        guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, FS, width * FS, width, 8 * width, 22, 8 * width, 4) + guid
        path.write_bytes(wav_bytes(fmt, np.linspace(-0.5, 0.5, 9).astype(dtype).tobytes()))
        assert_same_signal(read_wav(path), scipy_reference(path))

    @pytest.mark.parametrize("encoding", list(ENCODINGS))
    def test_largest_rate_that_fits(self, tmp_path, encoding):
        rate = 0xFFFFFFFF // np.dtype(ENCODINGS[encoding]).itemsize
        path = tmp_path / "r.wav"
        write_wav(path, AudioSignal(np.zeros(4), rate), encoding)
        assert read_wav(path).sample_rate == rate
        assert_same_signal(read_wav(path), scipy_reference(path))


def _riff_with(fmt_fields=(1, 1, FS, 2 * FS, 2, 16), data=b"\0\0" * 4):
    return wav_bytes(struct.pack("<HHIIHH", *fmt_fields), data)


class TestWavRejects:
    @pytest.mark.parametrize(
        "raw",
        [
            _riff_with((1, 2, FS, 4 * FS, 4, 16)),  # stereo
            _riff_with((1, 1, FS, FS, 1, 8), b"\x80" * 4),  # uint8
            _riff_with((1, 1, FS, 4 * FS, 4, 32)),  # int32
            _riff_with((1, 1, FS, 3 * FS, 2, 16)),  # byte rate != rate x block align
            _riff_with((1, 1, 0, 0, 2, 16)),  # rate 0
            _riff_with((6, 1, FS, FS, 1, 8)),  # A-law
            _riff_with((3, 1, FS, 4 * FS, 4, 32), np.array([0, np.nan], "<f4").tobytes()),
            _riff_with((3, 1, FS, 8 * FS, 8, 64), np.array([0, SAMPLE_LIMIT], "<f8").tobytes()),
            _riff_with()[:30],  # truncated header
            _riff_with()[:-3],  # data chunk shorter than declared
            wav_bytes(b"\0" * 14, b""),  # fmt chunk too short
            _riff_with((0xFFFE, 1, FS, 2 * FS, 2, 16)),  # extensible tag, 16-byte fmt
            wav_bytes(struct.pack("<HHIIHHHHII", 0xFFFE, 1, FS, 2 * FS, 2, 16, 22, 16, 4, 1)
                      + GUID_TAIL["<"][:11], b"\0\0" * 4),  # extensible, 39-byte fmt
            _riff_with()[:12],  # no chunks
            b"RIFF\0\0\0\0WAVEdata\0\0\0\0",  # data before fmt
            b"OggS" + bytes(40),
            b"",
        ],
        ids=[
            "stereo", "uint8", "int32", "byte-rate", "rate-0", "alaw", "float-nan", "double-at-limit",
            "truncated-header", "short-data", "short-fmt", "short-extensible-16",
            "short-extensible-39", "no-chunks", "data-before-fmt",
            "not-riff", "empty",
        ],
    )
    def test_malformed_raises_format_error(self, tmp_path, raw):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            read_wav(path)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(
        encoding=st.sampled_from(list(ENCODINGS)),
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=6),
        keep=st.integers(0, 10**6),
    )
    # the last sample of the 86-byte Float32 file made the signaling NaN 0x7f800001
    @example(encoding="float32", edits=[(82, 0x01), (85, 0x7F)], keep=86)
    def test_mutated_bytes_read_or_format_error(self, tmp_path_factory, encoding, edits, keep):
        path = tmp_path_factory.mktemp("mutated") / "m.wav"
        write_wav(path, AudioSignal(np.linspace(-1, 1, 7), FS), encoding)
        raw = bytearray(path.read_bytes())
        for pos, value in edits:
            raw[pos % len(raw)] = value
        path.write_bytes(bytes(raw[: keep % (len(raw) + 1)]))
        try:
            assert isinstance(read_wav(path), AudioSignal)
        except FormatError:
            pass

    @pytest.mark.parametrize(
        "rate, encoding",
        [(0.4, "float32"), (5e9, "pcm16"), (2**31, "float32")],
        ids=["rounds-to-0", "above-u32", "byte-rate-above-u32"],
    )
    def test_rate_that_does_not_fit_the_header(self, tmp_path, rate, encoding):
        path, x = tmp_path / "r.wav", AudioSignal(np.zeros(4), rate)
        with pytest.raises(FormatError):
            write_wav(path, x, encoding)
        with pytest.raises(FormatError):  # the default encoding, Float32
            write_wav(path, x)
        assert not path.exists()


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        data = rng.normal(size=(37, 5)).astype(np.float32)
        path = tmp_path / "feat.hmx"
        write_feature_file(path, data, 0.010)
        back, hop = read_feature_file(path)
        assert hop == 0.010
        np.testing.assert_array_equal(back, data)

    def test_header_fields(self, tmp_path):
        path = tmp_path / "feat.hmx"
        write_feature_file(path, np.zeros((160, 2)), 1 / FS)
        raw = path.read_bytes()
        assert raw[:4] == b"HMX1"
        _, version, n_frames, n_dims, hop = struct.unpack("<4sIIId", raw[: struct.calcsize("<4sIIId")])
        assert (version, n_frames, n_dims) == (1, 160, 2)
        assert hop == pytest.approx(1 / FS)

    @pytest.mark.parametrize(
        "data", [np.float64(1.0), np.arange(5.0), np.zeros((2, 3, 4))], ids=["0d", "1d", "3d"]
    )
    def test_data_not_2d_rejected(self, tmp_path, data):
        """No shape is guessed: a 1-D track as one row would read back as one 5-dim frame."""
        path = tmp_path / "feat.hmx"
        with pytest.raises(FormatError, match="2-D"):
            write_feature_file(path, data, 0.01)
        assert not path.exists()

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "feat.hmx"
        write_feature_file(path, np.zeros((10, 3)), 0.01)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "feat.hmx"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(FormatError):
            read_feature_file(path)


def mel_file(tmp_path, rng, f_min=0.0, f_max=7000.0):
    mel = MelSpectrogram(rng.normal(size=(12, 40)), StftConfig(512, 320, 80), FS, (f_min, f_max))
    path = tmp_path / "mel.hmx"
    write_mel_file(path, mel)
    return path, mel


class TestMelFile:
    """Version-2 ``HMX1``: frames, hop and the mel geometry that made them."""

    def test_round_trip(self, tmp_path, rng):
        path, mel = mel_file(tmp_path, rng)
        back = read_mel_file(path)
        np.testing.assert_array_equal(back.frames, mel.frames.astype(np.float32))
        assert back.config == StftConfig(512, 320, 80)
        assert (back.sample_rate, back.mel_range, back.hop_seconds) == (FS, (0.0, 7000.0), 80 / FS)
        assert all(type(getattr(back.config, k)) is int for k in ("fft_size", "win_size", "hop_size"))

    def test_header_fields(self, tmp_path, rng):
        path, _ = mel_file(tmp_path, rng, f_min=50.0)
        layout = "<4sIII7d"
        fields = struct.unpack(layout, path.read_bytes()[: struct.calcsize(layout)])
        assert fields == (b"HMX1", 2, 12, 40, 80 / FS, FS, 512, 320, 80, 50.0, 7000.0)

    def test_feature_reader_reads_both_versions(self, tmp_path, rng):
        path, mel = mel_file(tmp_path, rng)
        frames, hop = read_feature_file(path)
        assert hop == 80 / FS and frames.shape == (12, 40)
        write_feature_file(path, frames, hop)
        back, hop_v1 = read_feature_file(path)
        assert hop_v1 == hop
        np.testing.assert_array_equal(back, frames)

    def test_mel_reader_rejects_version_1(self, tmp_path, rng):
        """A version-1 file has no geometry to build a MelSpectrogram from."""
        path, mel = mel_file(tmp_path, rng)
        write_feature_file(path, mel.frames, mel.hop_seconds)
        with pytest.raises(FormatError, match="version 1") as info:
            read_mel_file(path)
        assert info.value.path == path

    @pytest.mark.parametrize(
        "name, value",
        [("f_min", -1.0), ("fft_size", 512.5), ("hop_size", 2.0**31), ("sample_rate", math.nan),
         ("f_max", math.inf)],
    )
    def test_bad_geometry_rejected(self, tmp_path, rng, name, value):
        path, _ = mel_file(tmp_path, rng)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 16 + 8 * HMX_LAYOUTS[2].index(name), value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=name):
            read_mel_file(path)

    @pytest.mark.parametrize(
        "name, value, message",
        [("win_size", 1024.0, "hop <= win <= fft"), ("hop_size", 400.0, "hop <= win <= fft"),
         ("hop_seconds", 0.01, "hop_seconds 0.01 differs"), ("sample_rate", 8000.0, "differs"),
         ("f_max", 9000.0, "invalid mel range"), ("f_min", 7000.0, "invalid mel range")],
    )
    def test_inconsistent_geometry_rejected(self, tmp_path, rng, name, value, message):
        """Sizes StftConfig rejects, a mel range MelSpectrogram rejects, and a hop other than
        hop_size / sample_rate."""
        path, _ = mel_file(tmp_path, rng)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 16 + 8 * HMX_LAYOUTS[2].index(name), value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=message) as info:
            read_mel_file(path)
        assert info.value.path == path

    def test_unknown_version_and_short_header_rejected(self, tmp_path, rng):
        path, _ = mel_file(tmp_path, rng)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 3) + raw[8:])
        with pytest.raises(FormatError, match="version 3"):
            read_mel_file(path)
        path.write_bytes(raw[:40])
        with pytest.raises(FormatError, match="truncated header"):
            read_mel_file(path)


SMALL = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
TENSOR_FILES = {  # kind: writer of a small valid file
    "hmx-v1": lambda path: write_feature_file(path, SMALL, 80 / FS),
    "hmx-v2": lambda path: write_mel_file(
        path, MelSpectrogram(SMALL, StftConfig(512, 320, 80), FS, (0.0, 7000.0))
    ),
    "ltvf": lambda path: write_coeffs(path, LtvFirCoeffs(SMALL, 80 / FS, FS)),
}


class TestTensorReadersReject:
    """Mutated or truncated ``HMX1`` and ``LTVF`` bytes either read or raise a FormatError."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(
        kind_reader=st.sampled_from([
            ("hmx-v1", read_mel_file), ("hmx-v2", read_mel_file),
            ("hmx-v1", read_feature_file), ("hmx-v2", read_feature_file), ("ltvf", read_coeffs),
        ]),
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=6),
        keep=st.integers(0, 10**6),
    )
    # the last tap of the 80-byte file made the signaling NaN 0x7f800001
    @example(kind_reader=("ltvf", read_coeffs), edits=[(76, 0x01), (79, 0x7F)], keep=80)
    def test_mutated_bytes_read_or_format_error(self, tmp_path_factory, kind_reader, edits, keep):
        kind, reader = kind_reader
        path = tmp_path_factory.mktemp("mutated") / "m.bin"
        TENSOR_FILES[kind](path)
        raw = bytearray(path.read_bytes())
        for pos, value in edits:
            raw[pos % len(raw)] = value
        path.write_bytes(bytes(raw[: keep % (len(raw) + 1)]))
        try:
            reader(path)
        except FormatError:
            pass


def _rewrite(kind, path, fmt, offset, value, keep=None):
    """A small valid ``kind`` file with ``value`` packed at ``offset``, cut to ``keep`` bytes."""
    TENSOR_FILES[kind](path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw[:keep]))


class TestRecordRefusalIsFormatError:
    """A value in a file that the file's record refuses is a FormatError naming the file."""

    @pytest.mark.parametrize(
        "write, reader",
        [
            (lambda path: _rewrite("ltvf", path, "<f", -4, math.nan), read_coeffs),
            (lambda path: _rewrite("ltvf", path, "<d", 16, 1e-5), read_coeffs),  # 0.16 samples
            (lambda path: _rewrite("ltvf", path, "<I", 8, 0, keep=32), read_coeffs),
            (lambda path: _rewrite("hmx-v2", path, "<f", -4, math.nan), read_mel_file),
            (lambda path: path.write_text("100.0\n-5.0\n"), read_f0_track),
            (lambda path: path.write_text("100.0\nnan\n"), read_f0_track),
            (lambda path: path.write_bytes(_riff_with((1, 1, 0, 0, 2, 16))), read_wav),
        ],
        ids=["ltvf-nan-tap", "ltvf-hop-below-one-sample", "ltvf-no-rows", "mel-nan-frame",
             "f0-negative", "f0-nan", "wav-rate-0"],
    )
    def test_names_the_file(self, tmp_path, write, reader):
        path = tmp_path / "refused"
        write(path)
        with pytest.raises(FormatError) as info:
            reader(path)
        assert info.value.path == path and str(path) in str(info.value)

    def test_callers_hop_stays_config(self, tmp_path):
        path = tmp_path / "f0.txt"
        path.write_text("100.0\n")
        with pytest.raises(ConfigError):
            read_f0_track(path, hop_seconds=-1)
