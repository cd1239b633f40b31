"""STFT magnitudes, 80-band log-mel analysis, and log-RMS loudness.

All three extractors take their frames from ``_frames``: ``ceil(n_samples / hop)``
frames, frame m centred on sample ``m * hop``, so features at one hop pair
row by row.

Every STFT user, ``metrics.mr_stft_loss`` included, streams its frames in
``signal_core._blocks`` and reduces each block before it makes the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, check_array, check_count, check_integer, check_positive
from .errors import check_type
from .signal_core import AudioSignal, _blocks

MEL_FLOOR = 1e-5
MEL_RANGE = (0.0, 8000.0)  # default f_min, f_max in Hz


@dataclass(frozen=True)
class StftConfig:
    """Analysis frame geometry.  Defaults give a 10 ms hop at 16 kHz."""

    fft_size: int = 1024
    win_size: int = 640
    hop_size: int = 160

    def __post_init__(self):
        for name in ("fft_size", "win_size", "hop_size"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1, 2**31 - 1))
        if not (self.hop_size <= self.win_size <= self.fft_size):
            raise ConfigError(
                f"need hop <= win <= fft, got {self.hop_size}/{self.win_size}/{self.fft_size}"
            )

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class MelSpectrogram:
    """n_frames x n_mels natural-log mel energies plus their provenance."""

    frames: np.ndarray
    config: StftConfig
    sample_rate: float
    mel_range: tuple[float, float] = MEL_RANGE

    def __post_init__(self):
        object.__setattr__(self, "frames", check_array("mel frames", self.frames, 2))
        check_mel_range(*self.mel_range, self.sample_rate)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_mels(self) -> int:
        return self.frames.shape[1]

    @property
    def hop_seconds(self) -> float:
        return self.config.hop_size / self.sample_rate


@dataclass(frozen=True)
class LoudnessTrack:
    """Per-frame log-RMS."""

    values: np.ndarray
    hop_seconds: float

    def __post_init__(self):
        object.__setattr__(self, "values", check_array("loudness values", self.values, 1))
        check_positive("hop_seconds", self.hop_seconds)

    def __len__(self):
        return len(self.values)


def n_frames_for(n_samples: int, hop: int) -> int:
    return math.ceil(n_samples / hop)


def hop_samples(hop_seconds: float, sample_rate: float) -> int:
    """The hop in whole samples; a non-finite hop or one rounding below 1 is an error."""
    check_positive("sample_rate", sample_rate)
    hop = float(check_array("hop_seconds", hop_seconds, 0, error=ConfigError)) * sample_rate
    if not math.isfinite(hop):
        raise ConfigError(f"hop of {hop_seconds} s at fs={sample_rate} is not finite in samples")
    if round(hop) < 1:
        raise ConfigError(f"hop of {hop_seconds} s is not at least one sample at fs={sample_rate}")
    return int(round(hop))


def frame_centers(n_frames: int, hop_seconds: float, sample_rate: float) -> np.ndarray:
    """Sample nearest each center ``m * hop_seconds * sample_rate``, ties up; see refine_pitch."""
    hop_samples(hop_seconds, sample_rate)
    return np.floor(np.arange(n_frames) * (hop_seconds * sample_rate) + 0.5).astype(np.intp)


def hann(m: int, periodic: bool) -> np.ndarray:
    """Hann window of length ``m``: periodic for FFT frames, else symmetric.

    Uses the cosine-sum form ``0.5 + 0.5 cos(t)``, ``t`` from -pi to pi over
    ``m`` points (``m + 1`` with the last dropped when periodic); see Harris,
    "On the use of windows for harmonic analysis with the DFT", Proc. IEEE
    1978.  Lengths 0 and 1 give all ones.
    """
    if m <= 1:
        return np.ones(m)
    t = np.linspace(-np.pi, np.pi, m + 1 if periodic else m)
    return (0.5 + 0.5 * np.cos(t))[:m]


def _frames(x: AudioSignal, win: int, hop: int) -> np.ndarray:
    """``ceil(n / hop)`` frames of ``win`` samples, frame m centred on sample ``m * hop``: a
    strided view of ``x`` reflect-padded by ``win // 2`` (zero-padded if too short to reflect)."""
    check_type("signal", x, AudioSignal)
    n = len(x)
    if n == 0:
        raise DomainError("cannot frame an empty signal")
    frames = n_frames_for(n, hop)
    padded = check_count("padded samples", (frames - 1) * hop + win)
    pad_left = win // 2
    pad_right = max(0, padded - pad_left - n)
    mode = "reflect" if n > max(pad_left, pad_right) else "constant"
    xp = np.pad(x.samples, (pad_left, pad_right), mode=mode)
    return np.lib.stride_tricks.sliding_window_view(xp, win)[::hop]


def _stft_blocks(x: AudioSignal, cfg: StftConfig):
    """Frame ``x`` now; return ``(rows, |rfft|)`` per ``_blocks`` of frames, windowed when reached."""
    segs = _frames(x, cfg.win_size, cfg.hop_size)
    check_count("STFT bins", len(segs) * cfg.n_bins)
    window = hann(cfg.win_size, periodic=True)
    # a row's transients: its windowed frame, its complex spectrum and its magnitudes
    return (
        (rows, np.abs(np.fft.rfft(segs[rows] * window, n=cfg.fft_size, axis=1)))
        for rows in _blocks(0, len(segs), cfg.win_size + 3 * cfg.n_bins)
    )


def stft_magnitude(x: AudioSignal, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Magnitude STFT with centered, reflect-padded, Hann-windowed frames."""
    blocks = _stft_blocks(x, cfg)
    out = np.empty((n_frames_for(len(x), cfg.hop_size), cfg.n_bins))
    for rows, mag in blocks:
        out[rows] = mag
    return out


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def check_mel_range(f_min: float, f_max: float, sample_rate: float) -> None:
    """ConfigError unless ``0 <= f_min < f_max <= sample_rate / 2``, all finite."""
    check_positive("sample_rate", sample_rate)
    check_positive("f_min", f_min, allow_zero=True)
    check_positive("f_max", f_max)
    if not f_min < f_max <= sample_rate / 2:
        raise ConfigError(f"invalid mel range [{f_min}, {f_max}] at fs={sample_rate}")


def mel_edges(n_mels: int, f_min: float, f_max: float) -> np.ndarray:
    """The ``n_mels + 2`` band edges in Hz, evenly spaced in mel; band i peaks at edge i + 1."""
    return mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))


def mel_filterbank(
    n_mels: int,
    fft_size: int,
    sample_rate: float,
    f_min: float = MEL_RANGE[0],
    f_max: float = MEL_RANGE[1],
) -> np.ndarray:
    """Triangular mel filterbank, peak-normalized, shape n_mels x n_bins."""
    n_mels = check_integer("n_mels", n_mels, minimum=1)
    fft_size = check_integer("fft_size", fft_size, minimum=1)
    check_count("mel filterbank entries", n_mels * (fft_size // 2 + 1))
    check_mel_range(f_min, f_max, sample_rate)
    edges = mel_edges(n_mels, f_min, f_max)
    bin_freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)

    lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (bin_freqs - lower) / np.maximum(center - lower, 1e-12)
    down = (upper - bin_freqs) / np.maximum(upper - center, 1e-12)
    fbank = np.maximum(0.0, np.minimum(up, down))
    if np.any(fbank.sum(axis=1) == 0):
        raise ConfigError("degenerate mel filterbank: a band covers no FFT bin")
    return fbank


def mel_spectrogram(
    x: AudioSignal,
    cfg: StftConfig = StftConfig(),
    n_mels: int = 80,
    f_min: float = MEL_RANGE[0],
    f_max: float = MEL_RANGE[1],
) -> MelSpectrogram:
    """Log mel-power spectrogram: triangle filterbank over |STFT|^2, floored at MEL_FLOOR."""
    blocks = _stft_blocks(x, cfg)
    fbank_t = mel_filterbank(n_mels, cfg.fft_size, x.sample_rate, f_min, f_max).T
    frames = np.empty((n_frames_for(len(x), cfg.hop_size), fbank_t.shape[1]))
    for rows, mag in blocks:
        frames[rows] = np.log(np.maximum((mag**2) @ fbank_t, MEL_FLOOR))
    return MelSpectrogram(frames, cfg, x.sample_rate, (f_min, f_max))


def loudness(x: AudioSignal, hop: int = StftConfig.hop_size) -> LoudnessTrack:
    """Log-RMS of the hop-long frames of ``_frames``, centred on ``m * hop``, floored at MEL_FLOOR."""
    hop = check_integer("hop", hop, minimum=1)
    rms = np.sqrt(np.mean(_frames(x, hop, hop) ** 2, axis=1))
    return LoudnessTrack(np.log(np.maximum(rms, MEL_FLOOR)), hop / x.sample_rate)
