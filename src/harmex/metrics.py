"""Loss arithmetic and harmonic-quality analysis metrics.

The multi-resolution STFT loss and mel MAE are the trainable-model losses;
the combined loss folds in an externally supplied adversarial scalar.
pitch_jitter and uv_error_rate are desk-scale diagnostics for the two
classic GAN-vocoder failure modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateReferenceError,
    DomainError,
    LengthMismatchError,
    UndefinedMetricError,
    check_positive,
)
from .signal_core import AudioSignal, F0Track
from .spectral import MelSpectrogram, StftConfig, stft_magnitude

MAG_FLOOR = 1e-7

DEFAULT_RESOLUTIONS = (
    StftConfig(fft_size=512, win_size=240, hop_size=50),
    StftConfig(fft_size=1024, win_size=600, hop_size=120),
    StftConfig(fft_size=2048, win_size=1200, hop_size=240),
)


@dataclass(frozen=True)
class MrStftConfig:
    resolutions: tuple[StftConfig, ...] = DEFAULT_RESOLUTIONS

    def __post_init__(self):
        if len(self.resolutions) == 0:
            raise ConfigError("need at least one STFT resolution")


@dataclass(frozen=True)
class LossWeights:
    """Weights of the combined loss; defaults follow the training recipe."""

    alpha: float = 200.0
    beta: float = 4.0

    def __post_init__(self):
        check_positive("alpha", self.alpha, allow_zero=True, error=DomainError)
        check_positive("beta", self.beta, allow_zero=True, error=DomainError)


@dataclass(frozen=True)
class MrStftLoss:
    sc: float
    mag: float

    @property
    def total(self) -> float:
        return self.sc + self.mag


def mr_stft_loss(x: AudioSignal, y: AudioSignal, cfg: MrStftConfig = MrStftConfig()) -> MrStftLoss:
    """Spectral convergence + log-magnitude L1, averaged over resolutions.

    y is the reference: sc_r = ||	|Y|-|X| ||_F / || |Y| ||_F per resolution,
    mag_r the mean absolute log-magnitude difference with magnitudes floored
    at 1e-7.
    """
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    if x.sample_rate != y.sample_rate:
        raise ConfigError("sample-rate mismatch")
    if not np.any(y.samples):
        raise DegenerateReferenceError("reference signal is identically zero")

    sc_terms, mag_terms = [], []
    for res in cfg.resolutions:
        mx = stft_magnitude(x, res)
        my = stft_magnitude(y, res)
        sc_terms.append(np.linalg.norm(my - mx) / np.linalg.norm(my))
        mag_terms.append(
            np.mean(
                np.abs(
                    np.log(np.maximum(my, MAG_FLOOR)) - np.log(np.maximum(mx, MAG_FLOOR))
                )
            )
        )
    return MrStftLoss(float(np.mean(sc_terms)), float(np.mean(mag_terms)))


def mel_mae(x_mel: MelSpectrogram, y_mel: MelSpectrogram) -> float:
    """Mean absolute difference over all frames and mel bands."""
    if x_mel.frames.shape != y_mel.frames.shape:
        raise ConfigError(
            f"shape mismatch: {x_mel.frames.shape} vs {y_mel.frames.shape}"
        )
    if x_mel.config != y_mel.config or x_mel.mel_range != y_mel.mel_range:
        raise ConfigError("mel spectrogram configs differ")
    return float(np.mean(np.abs(x_mel.frames - y_mel.frames)))


def combined_loss(l_dec: float, l_adv: float, l_stft: float, w: LossWeights = LossWeights()) -> float:
    """alpha * l_dec + beta * l_adv + l_stft."""
    if not all(math.isfinite(v) for v in (l_dec, l_adv, l_stft)):
        raise DomainError("loss terms must be finite")
    return w.alpha * l_dec + w.beta * l_adv + l_stft


def _centered_segment(x: np.ndarray, center: int, length: int) -> np.ndarray | None:
    start = center - length // 2
    if start < 0 or start + length > len(x):
        return None
    return x[start : start + length]


def refine_pitch(
    x: AudioSignal, ref_f0: F0Track, search_cents: float = 200.0
) -> np.ndarray:
    """Per-frame pitch refined by autocorrelation around the reference.

    Returns one value per frame: the refined Hz for voiced frames where the
    search succeeds, NaN elsewhere (unvoiced, window out of range, or the
    correlation peak pinned to the search boundary).
    """
    fs = x.sample_rate
    hop = int(round(ref_f0.hop_seconds * fs))
    s = x.samples
    out = np.full(len(ref_f0), np.nan)
    ratio = 2.0 ** (search_cents / 1200.0)

    for m, f_ref in enumerate(ref_f0.values):
        if f_ref <= 0:
            continue
        lag_lo = max(2, int(math.floor(fs / (f_ref * ratio))))
        lag_hi = int(math.ceil(fs / (f_ref / ratio)))
        window = lag_hi  # correlation window, one max-period long
        seg = _centered_segment(s, m * hop, window + lag_hi)
        if seg is None or not seg.any():
            continue

        base = seg[:window]
        base_energy = float(base @ base)
        lags = np.arange(lag_lo, lag_hi + 1)
        corr = np.empty(len(lags))
        for i, lag in enumerate(lags):
            shifted = seg[lag : lag + window]
            denom = math.sqrt(base_energy * float(shifted @ shifted))
            corr[i] = (base @ shifted) / denom if denom > 0 else 0.0

        best = int(np.argmax(corr))
        if best == 0 or best == len(lags) - 1:
            continue  # peak pinned to the search boundary
        # parabolic sub-sample refinement
        c_prev, c_0, c_next = corr[best - 1], corr[best], corr[best + 1]
        denom = c_prev - 2.0 * c_0 + c_next
        delta = 0.5 * (c_prev - c_next) / denom if denom != 0 else 0.0
        out[m] = fs / (lags[best] + delta)
    return out


def pitch_jitter(x: AudioSignal, ref_f0: F0Track, search_cents: float = 200.0) -> float:
    """Mean |cents step| between consecutive refined pitch estimates."""
    if not np.any(ref_f0.voiced_mask):
        raise UndefinedMetricError("no voiced frames in the reference track")
    refined = refine_pitch(x, ref_f0, search_cents)
    ok = np.isfinite(refined)
    pair = ok[:-1] & ok[1:]
    if not pair.any():
        raise UndefinedMetricError("no consecutive refined pitch estimates")
    steps = 1200.0 * np.abs(np.log2(refined[1:][pair] / refined[:-1][pair]))
    return float(np.mean(steps))


def uv_error_rate(
    x: AudioSignal, ref_f0: F0Track, energy_threshold_db: float = -40.0
) -> float:
    """Fraction of frames whose energy-based voicing disagrees with the track.

    A frame is decided voiced when its RMS (window centered on the frame) is
    above ``energy_threshold_db`` relative to the signal peak.
    """
    if len(ref_f0) == 0:
        raise DomainError("empty reference track")
    fs = x.sample_rate
    hop = int(round(ref_f0.hop_seconds * fs))
    peak = float(np.max(np.abs(x.samples), initial=0.0))

    decided = np.zeros(len(ref_f0), dtype=bool)
    if peak > 0:
        threshold = peak * 10.0 ** (energy_threshold_db / 20.0)
        half = hop // 2
        for m in range(len(ref_f0)):
            lo = max(0, m * hop - half)
            hi = min(len(x), m * hop + half)
            if hi <= lo:
                continue
            rms = math.sqrt(float(np.mean(x.samples[lo:hi] ** 2)))
            decided[m] = rms > threshold
    return float(np.mean(decided != ref_f0.voiced_mask))
