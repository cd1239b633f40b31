"""Linear time-varying FIR filtering and two coefficient sources.

Coefficients change per analysis frame.  ``apply_ltv`` interpolates the tap
vectors sample-by-sample between frame centers by default, which makes the
constant-coefficient case exactly LTI; piecewise-constant application is
available for workflows that need per-frame filtering to be exactly
invertible by the per-frame least-squares fit.

Coefficient sources:

* ``estimate_coeffs_from_mel`` turns a log-mel envelope into minimum-phase
  FIR taps via the real cepstrum (a deterministic stand-in for a learned
  coefficient predictor).
* ``fit_coeffs_least_squares`` solves per-frame ridge least squares against
  a target waveform, the ground-truth answer any predictor approximates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_io
from .errors import ConfigError, DomainError, LengthMismatchError, check_positive
from .signal_core import AudioSignal
from .spectral import MelSpectrogram, mel_filterbank, n_frames_for

LTVF_MAGIC = b"LTVF"

LOG10_FACTOR = 10.0 / math.log(10.0)  # natural-log power -> dB


@dataclass(frozen=True)
class LtvFirCoeffs:
    """Per-frame FIR tap matrix defining a time-varying filter."""

    taps: np.ndarray  # n_frames x n_taps
    hop_seconds: float
    sample_rate: float

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.taps, dtype=np.float64))
        object.__setattr__(self, "taps", t)
        if t.shape[1] < 1:
            raise ConfigError("need at least one tap")
        if not np.all(np.isfinite(t)):
            raise DomainError("filter coefficients must be finite")
        check_positive("hop_seconds", self.hop_seconds)
        check_positive("sample_rate", self.sample_rate)

    @property
    def n_frames(self) -> int:
        return self.taps.shape[0]

    @property
    def n_taps(self) -> int:
        return self.taps.shape[1]

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_seconds * self.sample_rate))


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of the per-frame least-squares fit."""

    n_taps: int = 64
    ridge_lambda: float = 1e-6
    frame_hop_seconds: float = 0.010

    def __post_init__(self):
        if self.n_taps < 1:
            raise ConfigError("n_taps must be >= 1")
        check_positive("ridge_lambda", self.ridge_lambda, allow_zero=True)
        check_positive("frame_hop_seconds", self.frame_hop_seconds)


def _check_geometry(x: AudioSignal, h: LtvFirCoeffs) -> int:
    if h.sample_rate != x.sample_rate:
        raise ConfigError(
            f"sample-rate mismatch: signal {x.sample_rate}, coeffs {h.sample_rate}"
        )
    if len(x) == 0:
        raise DomainError("cannot filter an empty signal")
    hop = h.hop_samples
    expected = n_frames_for(len(x), hop)
    if abs(h.n_frames - expected) > 1:
        raise LengthMismatchError(
            f"{h.n_frames} coefficient frames for {len(x)} samples (expected ~{expected})"
        )
    return hop


def _lagged(x: np.ndarray, n_taps: int) -> np.ndarray:
    """Matrix L with L[n, t] = x[n - t], zeros before the signal start."""
    xp = np.concatenate([np.zeros(n_taps - 1), x])
    return np.lib.stride_tricks.sliding_window_view(xp, n_taps)[:, ::-1]


def apply_ltv(x: AudioSignal, h: LtvFirCoeffs, interpolate_taps: bool = True) -> AudioSignal:
    """Causal time-varying convolution with zero initial state.

    y[n] = sum_t h_n[t] * x[n - t], where h_n is the tap vector at sample n:
    linearly interpolated between frame centers (default) or held constant
    across each frame (interpolate_taps=False).

    Each frame is one contraction of its lagged rows, ``a = lag @ h_f`` when
    held and ``a + w * (b - a)`` with ``b = lag @ h_{f+1}`` when interpolated
    (``w``: offset from the frame center in hops).  Equal taps make ``b - a``
    exactly zero, so constant taps stay exactly LTI (``(1 - w) * a + w * b``
    would round).  Frames go in blocks of about 1 MiB of lagged signal.
    """
    hop = _check_geometry(x, h)
    n, n_taps, last = len(x), h.n_taps, h.n_frames - 1
    head = min(last * hop, n)  # samples before the last frame center
    head_frames = -(-head // hop)  # x is zero-padded to fill the last head frame
    lag = _lagged(np.concatenate([x.samples, np.zeros(head_frames * hop - head)]), n_taps)
    y = np.empty(len(lag))
    y[head:n] = lag[head:n] @ h.taps[last]  # held in both modes past the last center
    pairs = np.stack([h.taps[:-1], h.taps[1:]], -1) if interpolate_taps else h.taps[:, :, None]
    w = np.arange(hop) / hop
    step = max(1, (1 << 17) // (hop * n_taps))  # frames per block
    for f0 in range(0, head_frames, step):
        f1 = min(f0 + step, head_frames)
        ab = lag[f0 * hop : f1 * hop].reshape(f1 - f0, hop, n_taps) @ pairs[f0:f1]
        a = ab[..., 0]
        y[f0 * hop : f1 * hop] = (a + w * (ab[..., 1] - a) if interpolate_taps else a).ravel()
    return AudioSignal(y[:n], x.sample_rate)


def fit_coeffs_least_squares(
    excitation: AudioSignal, target: AudioSignal, cfg: FitConfig = FitConfig()
) -> LtvFirCoeffs:
    """Per-frame ridge least squares of target on lagged excitation.

    Each frame's tap vector minimizes the squared error over that frame's
    samples plus ``ridge_lambda * ||h||^2``; frames whose regressors are all
    zero get all-zero taps.  With ridge_lambda == 0 the minimum-norm
    least-squares solution is used, so rank-deficient frames (e.g. excitation
    with few harmonics) stay well-defined.
    """
    if len(excitation) != len(target):
        raise ConfigError(
            f"length mismatch: excitation {len(excitation)}, target {len(target)}"
        )
    if excitation.sample_rate != target.sample_rate:
        raise ConfigError("sample-rate mismatch between excitation and target")

    fs = excitation.sample_rate
    hop = int(round(cfg.frame_hop_seconds * fs))
    n = len(excitation)
    frames = n_frames_for(n, hop)
    lag = _lagged(excitation.samples, cfg.n_taps)
    y = target.samples

    taps = np.zeros((frames, cfg.n_taps))
    lam = cfg.ridge_lambda
    for f in range(frames):
        sl = slice(f * hop, min((f + 1) * hop, n))
        block = lag[sl]
        if not block.any():
            continue
        if lam > 0:
            gram = block.T @ block
            gram[np.diag_indices_from(gram)] += lam
            taps[f] = np.linalg.solve(gram, block.T @ y[sl])
        else:
            taps[f] = np.linalg.lstsq(block, y[sl], rcond=None)[0]
    return LtvFirCoeffs(taps, hop / fs, fs)


def minimum_phase_fir(magnitude: np.ndarray, n_taps: int, fft_size: int) -> np.ndarray:
    """Minimum-phase FIR taps whose response approximates ``magnitude``.

    ``magnitude`` is a linear magnitude over fft_size//2 + 1 bins.  The taps
    come from the real-cepstrum construction, truncated to n_taps; if the
    truncation pushes any zero outside the unit circle, the tap sequence is
    exponentially contracted just enough to pull every zero back inside.
    """
    mag = np.maximum(np.asarray(magnitude, dtype=np.float64), 1e-12)
    cep = np.fft.irfft(np.log(mag), fft_size)
    fold = np.zeros(fft_size)
    fold[0] = 1.0
    fold[1 : fft_size // 2] = 2.0
    fold[fft_size // 2] = 1.0
    h = np.fft.irfft(np.exp(np.fft.rfft(cep * fold)), fft_size)[:n_taps]
    return _contract_roots_inside(h)


def _contract_roots_inside(h: np.ndarray) -> np.ndarray:
    if len(h) < 2:
        return h
    max_radius = float(np.abs(np.roots(h)).max(initial=0.0))
    if max_radius <= 1.0:
        return h
    # h[n] * rho^n has its zeros at rho * (original zeros), exactly
    rho = (1.0 - 1e-9) / max_radius
    return h * rho ** np.arange(len(h))


def _fill_uncovered(log_power: np.ndarray, covered: np.ndarray) -> None:
    """Fill uncovered bins of every frame at once, as per-frame ``np.interp``."""
    cov, gaps = np.flatnonzero(covered), np.flatnonzero(~covered)
    j = np.searchsorted(cov, gaps)
    lo, hi = cov[np.maximum(j - 1, 0)], cov[np.minimum(j, len(cov) - 1)]  # equal outside
    slope = (log_power[:, hi] - log_power[:, lo]) / np.maximum(hi - lo, 1)
    log_power[:, gaps] = slope * (gaps - lo) + log_power[:, lo]


def estimate_coeffs_from_mel(
    mel: MelSpectrogram, n_taps: int = 64, floor_db: float = -50.0
) -> LtvFirCoeffs:
    """Minimum-phase FIR per frame from a log-mel envelope.

    Log-mel energies are spread back onto the linear-frequency grid with the
    transpose of the (peak-normalized) filterbank, normalized by per-bin
    coverage; the resulting log-magnitude is floored at floor_db and turned
    into taps by the real-cepstrum method.

    Each band's energy is the envelope integrated over a triangle whose area
    grows with frequency, which would tilt the reconstruction upward by the
    full log band area.  Half of that log area (re-centered on its mean so the
    overall gain is unchanged) is subtracted before projection: this keeps the
    response of a constant log-mel vector flat within a few dB while also
    keeping the round trip from a smooth spectral envelope within a few dB.
    """
    cfg = mel.config
    if n_taps > 2 * cfg.fft_size:
        raise ConfigError(f"n_taps={n_taps} too large for fft_size={cfg.fft_size}")
    fbank = mel_filterbank(
        mel.n_mels, cfg.fft_size, mel.sample_rate, mel.mel_range[0], mel.mel_range[1]
    )

    coverage = fbank.sum(axis=0)
    covered = coverage > 0
    log_area = np.log(fbank.sum(axis=1))
    band_comp = 0.5 * (log_area + log_area.mean())
    log_power = np.empty((mel.n_frames, cfg.n_bins))
    log_power[:, covered] = ((mel.frames - band_comp) @ fbank[:, covered]) / coverage[
        covered
    ]
    _fill_uncovered(log_power, covered)  # bins outside the mel range

    mag_db = np.maximum(LOG10_FACTOR * log_power, floor_db)
    magnitude = 10.0 ** (mag_db / 20.0)

    taps = np.zeros((mel.n_frames, n_taps))
    for f in range(mel.n_frames):
        taps[f] = minimum_phase_fir(magnitude[f], n_taps, cfg.fft_size)
    return LtvFirCoeffs(taps, mel.hop_seconds, mel.sample_rate)


def frequency_response(h: LtvFirCoeffs, frame: int, n_fft: int) -> np.ndarray:
    """Magnitude response of one frame's taps in dB, floored at -120 dB."""
    if not (0 <= frame < h.n_frames):
        raise IndexError(f"frame {frame} out of range [0, {h.n_frames})")
    if n_fft < h.n_taps:
        raise ConfigError(f"n_fft={n_fft} smaller than n_taps={h.n_taps}")
    mag = np.abs(np.fft.rfft(h.taps[frame], n_fft))
    return np.maximum(20.0 * np.log10(np.maximum(mag, 1e-300)), -120.0)


def write_coeffs(path, h: LtvFirCoeffs) -> None:
    """Binary ``LTVF`` coefficient file; the layout is in ``tensor_io``."""
    tensor_io.write_tensor(path, LTVF_MAGIC, h.taps, h.hop_seconds, h.sample_rate)


def read_coeffs(path) -> LtvFirCoeffs:
    taps, scalars = tensor_io.read_tensor(path, LTVF_MAGIC, ("hop_seconds", "sample_rate"))
    return LtvFirCoeffs(taps.astype(np.float64), *scalars)
