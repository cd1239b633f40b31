"""STFT magnitudes, 80-band log-mel analysis and its approximate inverse, and log-RMS loudness.

All three extractors take their frames from ``_frames``: ``ceil(n_samples / hop)``
frames, frame m centred on sample ``m * hop``, so features at one hop pair
row by row.

Every STFT user, ``metrics.mr_stft_loss`` included, states only what it writes into the rows
of one block of magnitudes; ``_stft_walk`` frames the signals, checks the size, and runs those
blocks on ``signal_core._each``'s threads, the same bits at any thread count and block size.
Mel band i rises from edge i to 1 at edge i + 1 and falls to edge i + 2, so the bin at f,
``edges[j] <= f < edges[j + 1]``, is in bands j and j - 1 only, and the even bands tile the
bins, as do the odd ones: ``_mel_bins`` is that map, for mel analysis and its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, check_array, check_count, check_integer, check_positive
from .errors import check_type
from .signal_core import AudioSignal, _blocks, _each

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


def n_frames_for(n_samples: int, hop: int) -> int:
    return math.ceil(n_samples / hop)


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


def _stft_walk(signals, cfg: StftConfig, reduce, width: int) -> np.ndarray:
    """Frame each of ``signals`` (of one length), then call ``reduce(out[rows], *mags)`` on each
    ``_blocks`` slice of rows on ``_each``'s threads, ``mags`` the signals' |rfft| of those
    windowed frames.  Returns ``out``, a new frames x ``width`` array made after the size check,
    which ``reduce`` fills row by row.  The frames are freed on return."""
    segs = [_frames(x, cfg.win_size, cfg.hop_size) for x in signals]
    n = len(segs[0])
    check_count("STFT bins", n * cfg.n_bins)
    out, window = np.empty((n, width)), hann(cfg.win_size, periodic=True)

    def block(rows: slice):
        mags = [np.abs(np.fft.rfft(s[rows] * window, n=cfg.fft_size, axis=1)) for s in segs]
        reduce(out[rows], *mags)

    # a row's transients: its windowed frame, its complex spectrum and its magnitudes
    _each(block, _blocks(0, n, cfg.win_size + 3 * cfg.n_bins))
    return out


def stft_magnitude(x: AudioSignal, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Magnitude STFT with centered, reflect-padded, Hann-windowed frames."""
    check_type("cfg", cfg, StftConfig)
    return _stft_walk((x,), cfg, np.copyto, cfg.n_bins)


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


def _mel_bins(n_mels: int, fft_size: int, sample_rate: float, f_min: float, f_max: float):
    """The mel bands as a per-bin map: the bin at f, ``edges[band] <= f < edges[band + 1]``,
    weighs ``rise`` in band ``band`` and ``fall`` in band ``band - 1`` (0 if no such band) and
    0 in the rest, with the even bands tiling the bins, as do the odd ones.  Band i ``starts``
    at the first bin above edge i; ConfigError unless that bin is below edge i + 2."""
    n_mels = check_integer("n_mels", n_mels, minimum=1)
    fft_size = check_integer("fft_size", fft_size, minimum=1)
    check_count("mel filterbank entries", n_mels * (fft_size // 2 + 1))
    check_mel_range(f_min, f_max, sample_rate)
    edges = mel_edges(n_mels, f_min, f_max)
    freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    starts = np.searchsorted(freqs, edges[:-2], side="right")
    if np.any(starts >= np.searchsorted(freqs, edges[2:])):
        raise ConfigError("degenerate mel filterbank: a band covers no FFT bin")
    band = np.searchsorted(edges, freqs, side="right") - 1
    rise, fall = np.zeros((2, len(freqs)))
    for weight, lowest in ((rise, 0), (fall, 1)):  # the one run of bins whose band has this slope
        on = slice(*np.searchsorted(band, (lowest, n_mels + lowest)))
        i, f = band[on] - lowest, freqs[on]
        up = (f - edges[i]) / np.maximum(edges[i + 1] - edges[i], 1e-12)
        down = (edges[i + 2] - f) / np.maximum(edges[i + 2] - edges[i + 1], 1e-12)
        weight[on] = np.maximum(0.0, np.minimum(up, down))
    return band, rise, fall, starts


def _band_sums(power: np.ndarray, out: np.ndarray, band, rise, fall, starts) -> np.ndarray:
    """Band sums of the rows of ``power`` into ``out``: per parity, one ``np.add.reduceat`` from
    each band's first bin to the next's (the bins between weigh 0), so no BLAS runs."""
    for k in (0, 1):
        out[:, k::2] = np.add.reduceat(power * np.where(band % 2 == k, rise, fall), starts[k::2], 1)
    return out


def _mel_log_power(mel: MelSpectrogram):
    """The natural-log power envelope of log-mel energies, as a function of a slice of frames.

    Each bin takes its log-mel energy by linear interpolation, by its ``rise``, between the
    centres of its ``_mel_bins`` band and the one below, held flat beyond the first and the
    last centre; bins no band reaches take the value of the nearest bin one does.

    Each band's energy is the envelope integrated over a triangle whose area
    grows with frequency, which would tilt the reconstruction upward by the
    full log band area.  Half of that log area (re-centered on its mean so the
    overall gain is unchanged) is subtracted before interpolation: this keeps
    the response of a constant log-mel vector flat within a few dB while also
    keeping the round trip from a smooth spectral envelope within a few dB.
    """
    cfg, n_mels = mel.config, mel.n_mels
    check_count("envelope bins", mel.n_frames * cfg.n_bins)
    band, rise, fall, starts = _mel_bins(n_mels, cfg.fft_size, mel.sample_rate, *mel.mel_range)
    area = _band_sums(np.ones((1, cfg.n_bins)), np.empty((1, n_mels)), band, rise, fall, starts)
    offset = 0.5 * (np.log(area) + np.log(area).mean())
    at = np.clip(np.arange(cfg.n_bins), *np.flatnonzero(rise + fall)[[0, -1]])  # the reached run
    lower = np.maximum(band[at] - 1, 0)  # the band peaking at or below the bin
    upper, w = np.minimum(lower + 1, n_mels - 1), np.where(band[at] > 0, rise[at], 0.0)

    def log_power(rows) -> np.ndarray:
        bands = mel.frames[rows] - offset
        out = np.take(bands, lower, axis=1)
        out += w * (np.take(bands, upper, axis=1) - out)
        return out

    return log_power


def mel_spectrogram(
    x: AudioSignal,
    cfg: StftConfig = StftConfig(),
    n_mels: int = 80,
    f_min: float = MEL_RANGE[0],
    f_max: float = MEL_RANGE[1],
) -> MelSpectrogram:
    """Log mel power, ``_mel_bins``' bands over |STFT|^2 by blocks, floored at MEL_FLOOR."""
    check_type("signal", x, AudioSignal)
    check_type("cfg", cfg, StftConfig)
    band, rise, fall, starts = _mel_bins(n_mels, cfg.fft_size, x.sample_rate, f_min, f_max)

    def log_bands(out: np.ndarray, mag: np.ndarray) -> None:
        _band_sums(np.square(mag, out=mag), out, band, rise, fall, starts)
        np.log(np.maximum(out, MEL_FLOOR), out=out)

    frames = _stft_walk((x,), cfg, log_bands, len(starts))
    return MelSpectrogram(frames, cfg, x.sample_rate, (f_min, f_max))


def loudness(x: AudioSignal, hop: int = StftConfig.hop_size) -> tuple[np.ndarray, float]:
    """``(values, hop_seconds)``: the log-RMS of the hop-long frames of ``_frames``, centred on
    ``m * hop`` and floored at MEL_FLOOR, and their hop, the pair ``read_feature_file`` returns."""
    hop = check_integer("hop", hop, minimum=1)
    rms = np.sqrt(np.mean(_frames(x, hop, hop) ** 2, axis=1))
    values = np.log(np.maximum(rms, MEL_FLOOR))
    hop_seconds = hop / x.sample_rate
    check_positive("hop_seconds", hop_seconds)
    return values, hop_seconds
