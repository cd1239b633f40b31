"""Loss arithmetic and harmonic-quality analysis metrics.

The multi-resolution STFT loss and mel MAE are the trainable-model losses;
the combined loss folds in an externally supplied adversarial scalar.
pitch_jitter and uv_error_rate are desk-scale diagnostics for the two
classic GAN-vocoder failure modes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DegenerateReferenceError,
    DomainError,
    UndefinedMetricError,
    check_array,
    check_positive,
    check_type,
)
from .signal_core import AudioSignal, F0Track, _blocks, _check_signals, frame_bounds, frame_centers
from .spectral import MelSpectrogram, StftConfig, _stft_walk, n_frames_for

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
        res = self.resolutions
        if not (isinstance(res, Sequence) and res and all(isinstance(r, StftConfig) for r in res)):
            raise ConfigError(f"need a non-empty sequence of StftConfig, got {res!r}")
        object.__setattr__(self, "resolutions", tuple(res))


@dataclass(frozen=True)
class MrStftLoss:
    sc: float
    mag: float

    @property
    def total(self) -> float:
        return self.sc + self.mag


def mr_stft_loss(x: AudioSignal, y: AudioSignal, cfg: MrStftConfig = MrStftConfig()) -> MrStftLoss:
    """Spectral convergence + log-magnitude L1, averaged over resolutions.

    y is the reference: sc_r = || |Y|-|X| ||_F / || |Y| ||_F per resolution,
    mag_r the mean absolute log-magnitude difference with magnitudes floored
    at 1e-7.  A reference that no window of a resolution sees has no sc_r and
    raises DegenerateReferenceError.
    """
    n, _ = _check_signals(x=x, y=y)
    check_type("cfg", cfg, MrStftConfig)
    if not np.any(y.samples):
        raise DegenerateReferenceError("reference signal is identically zero")

    sc_terms, mag_terms = [], []
    for res in cfg.resolutions:
        # each block's sums, added in block order as one running sum
        diff_sq, ref_sq, log_l1 = np.cumsum(_stft_walk((x, y), res, _block_sums)[1], axis=0)[-1]
        if ref_sq == 0:
            raise DegenerateReferenceError(f"reference has no energy under the windows of {res}")
        sc_terms.append(np.sqrt(diff_sq) / np.sqrt(ref_sq))
        mag_terms.append(log_l1 / (n_frames_for(n, res.hop_size) * res.n_bins))
    return MrStftLoss(float(np.mean(sc_terms)), float(np.mean(mag_terms)))


def _block_sums(_, mx: np.ndarray, my: np.ndarray) -> tuple[float, float, float]:
    """Σ(|Y|-|X|)², Σ|Y|² and the log-magnitude L1 of one block of frames."""
    diff = my - mx
    sums = _sum_sq(diff), _sum_sq(my)
    for m in (mx, my):  # in place: elementwise, so the same bits as new arrays
        np.log(np.maximum(m, MAG_FLOOR, out=m), out=m)
    return (*sums, np.sum(np.abs(np.subtract(my, mx, out=diff), out=diff)))


def _sum_sq(a: np.ndarray) -> float:
    """The sum of squares as an einsum, which adds in one order at any BLAS thread count."""
    return np.einsum("ij,ij->", a, a)


def mel_mae(x_mel: MelSpectrogram, y_mel: MelSpectrogram) -> float:
    """Mean absolute difference over all frames and mel bands."""
    check_type("x_mel", x_mel, MelSpectrogram)
    check_type("y_mel", y_mel, MelSpectrogram)
    if x_mel.frames.shape != y_mel.frames.shape:
        raise ConfigError(
            f"shape mismatch: {x_mel.frames.shape} vs {y_mel.frames.shape}"
        )
    if (x_mel.config, x_mel.sample_rate, x_mel.mel_range) != (
        y_mel.config, y_mel.sample_rate, y_mel.mel_range
    ):
        raise ConfigError("mel spectrogram configs differ")
    return float(np.mean(np.abs(x_mel.frames - y_mel.frames)))


def combined_loss(
    l_dec: float, l_adv: float, l_stft: float, alpha: float = 200.0, beta: float = 4.0
) -> float:
    """alpha * l_dec + beta * l_adv + l_stft; the default weights follow the training recipe."""
    check_positive("alpha", alpha, allow_zero=True, error=DomainError)
    check_positive("beta", beta, allow_zero=True, error=DomainError)
    l_dec, l_adv, l_stft = check_array("loss terms", (l_dec, l_adv, l_stft), 1).tolist()
    return alpha * l_dec + beta * l_adv + l_stft


def _search_ratio(search_cents: float) -> float:
    check_positive("search_cents", search_cents)
    if search_cents > 1200.0:
        raise ConfigError(f"search_cents must be in (0, 1200], got {search_cents!r}")
    return 2.0 ** (search_cents / 1200.0)


def _peak_lags(segs: np.ndarray, lag_lo: int, lag_hi: int) -> np.ndarray:
    """Sub-sample lag of each row's normalized autocorrelation peak.

    Each row of ``segs`` is 2 * lag_hi samples: its first lag_hi (one
    max-period window) are correlated with the windows shifted by lag_lo ..
    lag_hi.  A peak pinned to either end of that range gives NaN, and so
    does a silent row, whose correlations are all 0.
    """
    base = segs[:, :lag_hi]
    shifted = sliding_window_view(segs, lag_hi, axis=1)[:, lag_lo : lag_hi + 1]
    # per-window energies: differencing a cumulative sum would cancel when a
    # loud stretch precedes a quiet one
    energy = np.einsum("fij,fij->fi", shifted, shifted)
    denom = np.sqrt(np.einsum("fj,fj->f", base, base)[:, None] * energy)
    num = np.einsum("fij,fj->fi", shifted, base)
    corr = np.divide(num, denom, out=np.zeros_like(denom), where=denom > 0)

    best = np.argmax(corr, axis=1)
    rows = np.arange(len(corr))
    mid = np.clip(best, 1, corr.shape[1] - 2)
    c_prev, c_0, c_next = corr[rows, mid - 1], corr[rows, mid], corr[rows, mid + 1]
    # parabolic sub-sample refinement
    curvature = c_prev - 2.0 * c_0 + c_next
    delta = np.divide(
        0.5 * (c_prev - c_next), curvature, out=np.zeros_like(curvature), where=curvature != 0
    )
    return np.where(best == mid, lag_lo + best + delta, np.nan)


def refine_pitch(
    x: AudioSignal, ref_f0: F0Track, search_cents: float = 200.0
) -> np.ndarray:
    """Per-frame pitch refined by autocorrelation around the reference.

    Each voiced frame correlates a one-max-period window with its copies
    shifted by every lag within ``search_cents`` (0 < search_cents <= 1200)
    of the reference period, normalized by both window energies (de
    Cheveigné & Kawahara, "YIN", JASA 2002), and refines the best lag by a
    parabola.  Returns one value per frame: the refined Hz for voiced frames
    where the search succeeds, NaN elsewhere (unvoiced, window out of range,
    silent, or the correlation peak pinned to the search boundary).  Frame m
    centers on the sample nearest ``m * hop_seconds * fs``; frames sharing a
    lag range are computed together.
    """
    check_type("signal", x, AudioSignal)
    check_type("ref_f0", ref_f0, F0Track)
    fs = x.sample_rate
    centers = frame_centers(len(ref_f0), ref_f0.hop_seconds, fs)
    ratio = _search_ratio(search_cents)
    out = np.full(len(ref_f0), np.nan)

    frames = np.flatnonzero(ref_f0.values > 0)
    f_ref = ref_f0.values[frames]
    lag_lo = np.maximum(2.0, np.floor(fs / (f_ref * ratio)))
    lag_hi = np.ceil(fs / (f_ref / ratio))  # also the window: one max-period
    start = centers[frames] - lag_hi  # each segment is 2 * lag_hi centered on its frame
    ok = (lag_hi - lag_lo >= 2) & (start >= 0) & (start + 2 * lag_hi <= len(x))
    frames, start = frames[ok], start[ok].astype(np.intp)
    lag_ranges = np.stack([lag_lo[ok], lag_hi[ok]], axis=1).astype(np.intp)
    ranges, group = np.unique(lag_ranges, axis=0, return_inverse=True)

    for g, (lo, hi) in enumerate(ranges.tolist()):
        members = np.flatnonzero(group.reshape(-1) == g)
        for b in _blocks(0, len(members), 2 * hi):  # 2 * hi gathered samples per frame
            chunk = members[b]
            segs = sliding_window_view(x.samples, 2 * hi)[start[chunk]]
            out[frames[chunk]] = fs / _peak_lags(segs, lo, hi)
    return out


def pitch_jitter(x: AudioSignal, ref_f0: F0Track, search_cents: float = 200.0) -> float:
    """Mean |cents step| between consecutive refined pitch estimates."""
    refined = refine_pitch(x, ref_f0, search_cents)  # rejects a bad search or hop first
    if not np.any(ref_f0.voiced_mask):
        raise UndefinedMetricError("no voiced frames in the reference track")
    ok = np.isfinite(refined)
    pair = ok[:-1] & ok[1:]
    if not pair.any():
        raise UndefinedMetricError("no consecutive refined pitch estimates")
    steps = 1200.0 * np.abs(np.log2(refined[1:][pair] / refined[:-1][pair]))
    return float(np.mean(steps))


def _voicing_decisions(x: AudioSignal, ref_f0: F0Track, energy_threshold_db: float) -> np.ndarray:
    """One bool per frame of ``ref_f0``: the voicing ``uv_error_rate`` decides."""
    bounds = frame_bounds(ref_f0, x.sample_rate, len(x))
    count = np.diff(bounds)
    inside = count > 0
    # the windows tile [0, bounds[-1]), so each sum stops where the next starts
    energy = np.add.reduceat(x.samples[: bounds[-1]] ** 2, bounds[:-1][inside])
    peak = float(np.max(np.abs(x.samples), initial=0.0))
    decided = np.zeros(len(ref_f0), dtype=bool)  # all unvoiced in silence: 0 > 0 is false
    decided[inside] = np.sqrt(energy / count[inside]) > peak * 10.0 ** (energy_threshold_db / 20.0)
    return decided


def uv_error_rate(
    x: AudioSignal, ref_f0: F0Track, energy_threshold_db: float = -40.0
) -> float:
    """Fraction of frames whose energy-based voicing disagrees with the track.

    A frame is decided voiced when its RMS is above ``energy_threshold_db``
    relative to the signal peak.  Frame m's window is the samples it owns in
    ``interpolate_f0`` (``signal_core.frame_bounds``), so windows tile the
    signal at any hop; a frame that owns none is decided unvoiced.  The hop
    must round to at least one sample, and the threshold must be finite.
    """
    check_type("signal", x, AudioSignal)
    check_type("ref_f0", ref_f0, F0Track)
    threshold = float(check_array("energy_threshold_db", energy_threshold_db, 0, error=ConfigError))
    if len(ref_f0) == 0:
        raise DomainError("empty reference track")
    # RMS <= peak, so a 6000 dB (1e300) cap moves no decision and keeps 10 ** (t / 20) finite
    decided = _voicing_decisions(x, ref_f0, min(threshold, 6000.0))
    return float(np.mean(decided != ref_f0.voiced_mask))
