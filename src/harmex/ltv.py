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
from .errors import (
    ConfigError, DomainError, LengthMismatchError, check_count, check_integer, check_positive,
)
from .signal_core import AudioSignal, _blocks, _voiced_runs
from .spectral import MelSpectrogram, hop_samples, mel_filterbank, n_frames_for

LTVF_MAGIC = b"LTVF"

LOG10_FACTOR = 10.0 / math.log(10.0)  # natural-log power -> dB

# Minimum-phase estimator (see ``minimum_phase_fir``)
GATE_MARGIN = 1e-6  # the gate tests radius 1 - GATE_MARGIN
BISECT_STEPS = 12
ANGLE_FFT = 4096
NEWTON_STEPS = 8
CERTIFY_TOL = 1e-12
CONTRACT_MARGIN = 1e-9  # contracted zeros end at radius 1 - CONTRACT_MARGIN

# Min-norm fit (see ``fit_coeffs_least_squares``): a frame's batched QR
# answer is kept when its forward-error bound is at most FIT_GATE.
FIT_EPS = float(np.finfo(np.float64).eps)
FIT_GATE = 1e-12


@dataclass(frozen=True)
class LtvFirCoeffs:
    """Per-frame FIR tap matrix defining a time-varying filter."""

    taps: np.ndarray  # n_frames x n_taps
    hop_seconds: float
    sample_rate: float

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=np.float64)
        object.__setattr__(self, "taps", t)
        if t.ndim != 2 or 0 in t.shape:
            raise ConfigError(f"taps of shape {t.shape}: need frames x taps, both >= 1")
        if not np.all(np.isfinite(t)):
            raise DomainError("filter coefficients must be finite")
        check_positive("sample_rate", self.sample_rate)
        hop_samples(self.hop_seconds, self.sample_rate)

    @property
    def n_frames(self) -> int:
        return self.taps.shape[0]

    @property
    def n_taps(self) -> int:
        return self.taps.shape[1]

    @property
    def hop_samples(self) -> int:
        return hop_samples(self.hop_seconds, self.sample_rate)


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of the per-frame least-squares fit."""

    n_taps: int = 64
    ridge_lambda: float = 1e-6
    frame_hop_seconds: float = 0.010

    def __post_init__(self):
        object.__setattr__(self, "n_taps", check_integer("n_taps", self.n_taps, minimum=1))
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
    would round).  Frames go in ``signal_core._blocks`` of lagged signal.
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
    lag_frames = lag[: head_frames * hop].reshape(head_frames, hop, n_taps)  # views, not copies
    y_frames = y[: head_frames * hop].reshape(head_frames, hop)
    for b in _blocks(0, head_frames, hop * n_taps):
        ab = lag_frames[b] @ pairs[b]
        a = ab[..., 0]
        y_frames[b] = a + w * (ab[..., 1] - a) if interpolate_taps else a
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

    Both modes share one live-frame mask and one walk.  A cumulative count
    of non-zero excitation samples tells, for every frame including the
    partial last one, whether its lagged block holds any; dead frames are
    never solved.  Runs of live full frames go in ``signal_core._blocks``,
    each a slice of the strided lagged view, to the mode's block solver,
    ``_ridge`` or ``_min_norm``.  The partial last frame and every frame
    ``_min_norm`` cannot certify (with hop < n_taps, every live frame) are
    then solved one at a time, by ``_ridge`` on a batch of one or by
    ``np.linalg.lstsq``.
    """
    if len(excitation) != len(target):
        raise ConfigError(
            f"length mismatch: excitation {len(excitation)}, target {len(target)}"
        )
    if excitation.sample_rate != target.sample_rate:
        raise ConfigError("sample-rate mismatch between excitation and target")
    if len(excitation) == 0:
        raise DomainError("cannot fit an empty signal")

    fs = excitation.sample_rate
    hop = hop_samples(cfg.frame_hop_seconds, fs)
    n, n_taps, lam = len(excitation), cfg.n_taps, cfg.ridge_lambda
    frames = n_frames_for(n, hop)
    check_count("lagged samples", n + n_taps - 1)
    check_count("fitted taps", frames * n_taps)
    lag = _lagged(excitation.samples, n_taps)
    y = target.samples

    # lag row m holds x[m - n_taps + 1 .. m], so count non-zero samples
    seen = np.concatenate([[0], np.cumsum(lag[:, 0] != 0)])
    starts = hop * np.arange(frames)
    live = seen[np.minimum(starts + hop, n)] > seen[np.maximum(starts - n_taps + 1, 0)]

    taps = np.zeros((frames, n_taps))
    left = live.copy()  # live frames not solved yet
    full = n // hop if lam > 0 or hop >= n_taps else 0  # _min_norm needs hop >= n_taps
    lag_frames = lag[: full * hop].reshape(full, hop, n_taps)  # views, not copies
    y_frames = y[: full * hop].reshape(full, hop, 1)
    for start, stop in _voiced_runs(live[:full]):
        for b in _blocks(start, stop, max(hop, n_taps) * (n_taps + 1)):
            if lam > 0:
                taps[b], left[b] = _ridge(lag_frames[b], y_frames[b], lam), False
            else:
                taps[b], left[b] = _min_norm(lag_frames[b], y_frames[b])
    for f in np.flatnonzero(left):
        rows = slice(f * hop, (f + 1) * hop)
        if lam > 0:
            taps[f] = _ridge(lag[None, rows], y[None, rows, None], lam)[0]
        else:
            taps[f] = np.linalg.lstsq(lag[rows], y[rows], rcond=None)[0]
    return LtvFirCoeffs(taps, hop / fs, fs)


def _ridge(a: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge taps, ``(A^T A + lambda I) h = A^T y``, of a batch of frames.

    ``a`` is frames x rows x taps and ``y`` frames x rows x 1.  They are
    slices of the strided lagged view, never copies: ``@`` on the strided
    view sums in the same order as one frame's 2-D product, so the taps equal
    the per-frame solve bit for bit, while a contiguous copy goes through
    BLAS, moves A^T y by 1 ulp, and with lambda = 1e-6 (kappa up to about
    1e8) moves the taps by about 1e-9.
    """
    at = a.transpose(0, 2, 1)
    g = at @ a
    d = np.arange(a.shape[2])
    g[:, d, d] += lam
    return np.linalg.solve(g, at @ y)[..., 0]


def _min_norm(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-norm taps of a batch of frames with rows >= taps, and which it cannot certify.

    Each frame's lagged block A (``a``: frames x rows x taps) is augmented
    with its target y (frames x rows x 1) and factored,
    ``[A | y] = Q [[R, c], [0, rho]]``, so ``R x = c`` gives the taps and rho
    is the residual norm (Bjorck, Numerical Methods for Least Squares
    Problems, 1996).  A frame's x is certified only when the first-order
    least-squares forward-error bound
    ``eps * kappa * (||x|| + kappa * rho / ||R||_F)``, with
    ``kappa = ||R||_F ||R^-1||_F``, is at most FIT_GATE, so x matches
    ``np.linalg.lstsq`` (gelsd) to about that.  gelsd drops rank only for
    kappa beyond ``1 / (eps * max(hop, n_taps))`` (2.8e13 for 160 x 64
    frames), which the gate admits only with ||x|| below 1e-16.

    One ``np.linalg.solve`` gives both x and R^-1: R is upper triangular, so
    its LU factorization is R itself and every column is a back
    substitution.  R with a zero on its diagonal is swapped for the identity
    before the solve, which would otherwise raise, and is not certified.
    """
    n_taps = a.shape[2]
    r = np.linalg.qr(np.concatenate([a, y], axis=2), mode="r")
    R, c = r[:, :n_taps, :n_taps], r[:, :n_taps, n_taps:]
    rho = np.linalg.norm(r[:, n_taps:, n_taps], axis=1)  # 0 when rows == n_taps
    singular = (np.diagonal(R, axis1=1, axis2=2) == 0).any(axis=1)
    R[singular] = np.eye(n_taps)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the gate
        sol = np.linalg.solve(R, np.concatenate([c, np.broadcast_to(np.eye(n_taps), R.shape)], 2))
        x = sol[..., 0]
        norm_r = np.linalg.norm(R, axis=(1, 2))
        kappa = norm_r * np.linalg.norm(sol[..., 1:], axis=(1, 2))
        bound = FIT_EPS * kappa * (np.linalg.norm(x, axis=1) + kappa * rho / norm_r)
        return x, ~(bound <= FIT_GATE) | singular


def minimum_phase_fir(magnitude: np.ndarray, n_taps: int, fft_size: int) -> np.ndarray:
    """Minimum-phase FIR taps whose response approximates ``magnitude``.

    ``magnitude`` is frames x (fft_size//2 + 1) linear magnitudes, one row
    per frame, and the taps are frames x n_taps (n_taps at most fft_size),
    from the real-cepstrum construction in ``signal_core._blocks`` of rows,
    truncated.  If the truncation pushes any zero of a row outside the
    unit circle, that row is exponentially
    contracted just enough to pull every zero back inside: see
    ``_contract_roots_inside`` for the Schur-Cohn gate at radius
    1 - GATE_MARGIN, the bracket-angle-Newton radius with its two-sided
    certificate, and the ``np.roots`` fallback.
    """
    n_taps = check_integer("n_taps", n_taps, minimum=1)
    if n_taps > fft_size:
        raise ConfigError(f"n_taps={n_taps} above fft_size={fft_size}")
    rows = np.asarray(magnitude, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != fft_size // 2 + 1:
        raise ConfigError(f"magnitude shape {rows.shape}: need frames x {fft_size // 2 + 1} bins")
    fold = np.zeros(fft_size)
    fold[0] = 1.0
    fold[1 : fft_size // 2] = 2.0
    fold[fft_size // 2] = 1.0
    h = np.empty((len(rows), n_taps))
    for b in _blocks(0, len(rows), 8 * fft_size):  # about 8 row-sized transients per row
        cep = np.fft.irfft(np.log(np.maximum(rows[b], 1e-12)), fft_size)
        h[b] = np.fft.irfft(np.exp(np.fft.rfft(cep * fold)), fft_size)[:, :n_taps]
    return _contract_roots_inside(h)


def _contract_roots_inside(h: np.ndarray) -> np.ndarray:
    """Pull every row's zeros inside the unit circle, as ``np.roots`` would.

    Each row is a polynomial in z^-1 whose largest zero radius r is the
    largest ``|np.roots(row)|``.  A row with r > 1 becomes h[n] * rho^n with
    rho = (1 - CONTRACT_MARGIN) / r, which scales every zero by rho exactly.

    Gate: one batched Schur-Cohn step-down decides, for every row, whether
    all zeros lie within radius 1 - GATE_MARGIN; those rows are kept as they
    are.  The margin sends every row whose r rounds close to 1 through the
    radius search, so the gate never disagrees with ``np.roots`` rounding at
    the unit circle.  The remaining rows get r from ``_zero_radius``.
    """
    todo = np.flatnonzero(~_zeros_within(h, np.full(len(h), 1.0 - GATE_MARGIN)))
    r = _zero_radius(h[todo])
    grow = r > 1.0
    out = h.copy()
    rho = (1.0 - CONTRACT_MARGIN) / r[grow]
    out[todo[grow]] = h[todo[grow]] * rho[:, None] ** np.arange(h.shape[1])
    return out


def _zeros_within(h: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Per row: do all zeros of sum_n h[n] z^-n lie strictly inside ``radius``?

    Schur-Cohn (Jury) step-down on the monic polynomial h[n] radius^-n: with
    k its constant coefficient, every zero is inside the unit circle iff
    |k| < 1 and every zero of (a - k * reversed(a)) / z is.  Rows that
    overflow or meet a zero leading tap come out False.
    """
    n = np.arange(h.shape[1])[:, None]
    a = np.ascontiguousarray(h.T) * radius ** -n  # taps x rows
    inside = np.ones(len(h), dtype=bool)
    with np.errstate(all="ignore"):  # rows already found outside may overflow
        a = a / a[0]
        for m in range(len(a) - 1, 0, -1):
            k = a[m]
            inside &= np.abs(k) < 1.0
            a = (a[:m] - k * a[m:0:-1]) / (1.0 - k * k)
    return inside


def _zero_radius(h: np.ndarray) -> np.ndarray:
    """Largest zero radius of each row that failed the gate (r >= 1 - GATE_MARGIN).

    Bracket: BISECT_STEPS geometric bisections of [1 - GATE_MARGIN, Cauchy
    bound] with ``_zeros_within``.  Angle: the deepest dip of |H| on the
    outer circle of the bracket, sampled at ANGLE_FFT points, in
    ``signal_core._blocks`` of rows.  Newton: NEWTON_STEPS complex Horner steps from that
    point give a zero z.  Certificate, two-sided: all zeros lie within
    |z| (1 + CERTIFY_TOL), not all lie within |z| (1 - CERTIFY_TOL), and that
    interval lies on one side of 1, so a row is contracted exactly when
    ``np.roots`` says it must be.  A one-sided certificate would accept a
    Newton point that stalled outside every zero and over-contract the row.
    Rows that are not certified take ``max |np.roots(row)|`` (0 if none,
    nan if a tap is not finite), which is exact.
    """
    with np.errstate(all="ignore"):  # a zero leading tap gives nan: not certified
        lo = np.full(len(h), 1.0 - GATE_MARGIN)
        hi = 1.0 + np.abs(h[:, 1:] / h[:, :1]).max(axis=1, initial=0.0)  # Cauchy bound
        for _ in range(BISECT_STEPS):
            mid = np.sqrt(lo * hi)
            inside = _zeros_within(h, mid)
            hi, lo = np.where(inside, mid, hi), np.where(inside, lo, mid)

        dip = np.empty(len(h), dtype=np.intp)
        n = np.arange(h.shape[1])
        for b in _blocks(0, len(h), ANGLE_FFT):  # ANGLE_FFT // 2 + 1 complex bins per row
            dip[b] = np.abs(np.fft.rfft(h[b] * hi[b, None] ** -n, ANGLE_FFT)).argmin(axis=1)
        z = hi * np.exp(2j * np.pi / ANGLE_FFT * dip)

        for _ in range(NEWTON_STEPS):
            p, dp = h[:, 0].astype(complex), np.zeros(len(h), dtype=complex)
            for c in h[:, 1:].T:
                dp = dp * z + p
                p = p * z + c
            z = z - p / dp

        r = np.abs(z)
        below, above = r * (1.0 - CERTIFY_TOL), r * (1.0 + CERTIFY_TOL)
        certified = (
            ((above < 1.0) | (below > 1.0))
            & _zeros_within(h, above)
            & ~_zeros_within(h, below)
        )
    for i in np.flatnonzero(~certified):  # np.roots raises on a non-finite tap
        r[i] = np.abs(np.roots(h[i])).max(initial=0.0) if np.isfinite(h[i]).all() else np.nan
    return r


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

    The envelope (``_mel_magnitude``) is turned into taps by the
    real-cepstrum method of ``minimum_phase_fir``, all frames in one call.
    """
    # an envelope beyond float64 gives non-finite taps, which LtvFirCoeffs rejects
    with np.errstate(over="ignore", invalid="ignore"):
        taps = minimum_phase_fir(_mel_magnitude(mel, floor_db), n_taps, mel.config.fft_size)
    return LtvFirCoeffs(taps, mel.hop_seconds, mel.sample_rate)


def _mel_magnitude(mel: MelSpectrogram, floor_db: float) -> np.ndarray:
    """Linear magnitude envelope per frame (frames x bins) from log-mel energies.

    Log-mel energies are spread back onto the linear-frequency grid with the
    transpose of the (peak-normalized) filterbank, normalized by per-bin
    coverage; the resulting log-magnitude is floored at floor_db.

    Each band's energy is the envelope integrated over a triangle whose area
    grows with frequency, which would tilt the reconstruction upward by the
    full log band area.  Half of that log area (re-centered on its mean so the
    overall gain is unchanged) is subtracted before projection: this keeps the
    response of a constant log-mel vector flat within a few dB while also
    keeping the round trip from a smooth spectral envelope within a few dB.
    """
    cfg = mel.config
    check_count("envelope bins", mel.n_frames * cfg.n_bins)
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
    return 10.0 ** (mag_db / 20.0)


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
    taps, header = tensor_io.read_tensor(path, LTVF_MAGIC, {1: ("hop_seconds", "sample_rate")})
    with np.errstate(invalid="ignore"):  # a signaling NaN warns; LtvFirCoeffs rejects it
        return LtvFirCoeffs(taps.astype(np.float64), **header)
