"""Linear time-varying FIR filtering and two coefficient sources.

Coefficients change per analysis frame.  ``apply_ltv`` interpolates the tap
vectors sample-by-sample between frame centers by default, which makes the
constant-coefficient case exactly LTI; piecewise-constant (held) application,
one overlap-save FFT product per frame, is available for workflows that need
per-frame filtering to be invertible, to rounding, by the per-frame
least-squares fit.

Coefficient sources:

* ``estimate_coeffs_from_mel`` turns a log-mel envelope into minimum-phase
  FIR taps by the Levinson-Durbin recursion on its inverse power spectrum
  (a deterministic stand-in for a learned coefficient predictor).
* ``fit_coeffs_least_squares`` solves per-frame ridge least squares against
  a target waveform, the ground-truth answer any predictor approximates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor_io
from .errors import ConfigError, DomainError, LengthMismatchError
from .errors import check_array, check_count, check_integer, check_positive, check_type, from_file
from .signal_core import DEFAULT_HOP_SECONDS, AudioSignal, _blocks, _check_signals, _each
from .signal_core import _voiced_runs, hop_samples
from .spectral import MelSpectrogram, _mel_log_power, n_frames_for

LTVF_MAGIC = b"LTVF"

LOG10_FACTOR = 10.0 / math.log(10.0)  # natural-log power -> dB
DEFAULT_N_TAPS = 64  # taps per frame of both coefficient sources

# White-noise correction of ``_levinson``: r[0] is scaled by 1 + WNC.
WNC = 1e-9

# Min-norm fit (see ``_min_norm``): a frame's batched Cholesky answer is kept
# when eps * kappa^2 is at most FIT_CHOLESKY and its forward-error bound is at
# most FIT_GATE.
FIT_EPS = float(np.finfo(np.float64).eps)
FIT_GATE = 1e-12
FIT_CHOLESKY = 0.1


@dataclass(frozen=True)
class LtvFirCoeffs:
    """Per-frame FIR tap matrix defining a time-varying filter."""

    taps: np.ndarray  # n_frames x n_taps
    hop_seconds: float
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "taps", check_array("filter coefficients", self.taps, 2))
        if 0 in self.taps.shape:
            raise ConfigError(f"taps of shape {self.taps.shape}: need frames x taps, both >= 1")
        hop_samples(self.hop_seconds, self.sample_rate)  # checks sample_rate first
        check_positive("hop_seconds", self.hop_seconds)  # a numeric string passes hop_samples

    @property
    def n_frames(self) -> int:
        return self.taps.shape[0]

    @property
    def n_taps(self) -> int:
        return self.taps.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of the per-frame least-squares fit."""

    n_taps: int = DEFAULT_N_TAPS
    ridge_lambda: float = 1e-6
    frame_hop_seconds: float = DEFAULT_HOP_SECONDS

    def __post_init__(self):
        object.__setattr__(self, "n_taps", check_integer("n_taps", self.n_taps, minimum=1))
        check_positive("ridge_lambda", self.ridge_lambda, allow_zero=True)
        check_positive("frame_hop_seconds", self.frame_hop_seconds)


def _check_geometry(x: AudioSignal, h: LtvFirCoeffs) -> int:
    check_type("signal", x, AudioSignal)
    check_type("coefficients", h, LtvFirCoeffs)
    if h.sample_rate != x.sample_rate:
        raise ConfigError(
            f"sample-rate mismatch: signal {x.sample_rate}, coeffs {h.sample_rate}"
        )
    if len(x) == 0:
        raise DomainError("cannot filter an empty signal")
    hop = hop_samples(h.hop_seconds, h.sample_rate)
    expected = n_frames_for(len(x), hop)
    if abs(h.n_frames - expected) > 1:
        raise LengthMismatchError(
            f"{h.n_frames} coefficient frames for {len(x)} samples (expected ~{expected})"
        )
    return hop


def _lagged(x: np.ndarray, n_taps: int) -> np.ndarray:
    """Matrix L with L[n, t] = x[n - t], zeros before the signal start."""
    xp = np.concatenate([np.zeros(n_taps - 1), x])
    return sliding_window_view(xp, n_taps)[:, ::-1]


def apply_ltv(x: AudioSignal, h: LtvFirCoeffs, interpolate_taps: bool = True) -> AudioSignal:
    """Causal time-varying convolution with zero initial state.

    y[n] = sum_t h_n[t] * x[n - t], where h_n is the tap vector at sample n:
    linearly interpolated between frame centers (default) or held constant
    across each frame (interpolate_taps=False).

    Interpolated, each frame is one contraction of its lagged rows with its
    own taps and the next frame's, ``a + w * (b - a)`` (``w``: offset from the
    frame center in hops).  Equal taps make ``b - a`` exactly zero, so constant
    taps stay exactly LTI (``(1 - w) * a + w * b`` would round).

    Held, each frame is one overlap-save FFT product (Oppenheim & Schafer,
    Discrete-Time Signal Processing, 3rd ed., sec. 8.7): the hop + n_taps - 1
    samples that end at the frame's last sample and the frame's taps go
    through ``rfft`` at the next power of two N, and the last hop samples of
    the product's ``irfft`` are the frame's outputs, within rounding of the
    per-tap sum.  The product is formed from real and imaginary parts:
    numpy's complex ``*`` rounds differently at some SIMD dispatch levels,
    while ``rfft``, ``irfft`` and real ufuncs do not.  A frame costs
    O(N log N), so at hops well below n_taps this is slower than a direct
    sum over the taps.  Frames go in ``signal_core._blocks`` in both modes.
    """
    hop = _check_geometry(x, h)
    n, n_taps = len(x), h.n_taps
    frames = n_frames_for(n, hop)  # x is zero-padded to fill the last frame
    xp = np.concatenate([np.zeros(n_taps - 1), x.samples, np.zeros(frames * hop - n)])
    index = np.minimum(np.arange(frames + 1), h.n_frames - 1)  # taps held past the last center
    y = np.empty((frames, hop))
    if interpolate_taps:
        lag = sliding_window_view(xp, n_taps)[:, ::-1].reshape(frames, hop, n_taps)  # a view
        w = np.arange(hop) / hop
        for b in _blocks(0, frames, hop * n_taps):
            ab = lag[b] @ np.stack([h.taps[index[b]], h.taps[index[b.start + 1 : b.stop + 1]]], -1)
            a = ab[..., 0]
            y[b] = a + w * (ab[..., 1] - a)
    else:
        size = hop + n_taps - 1
        fft_size = 1 << (size - 1).bit_length()
        segments = sliding_window_view(xp, size)[::hop]  # row f ends at frame f's last sample
        for b in _blocks(0, frames, 8 * fft_size):  # about 8 fft_size transients per frame
            xs, hs = np.fft.rfft(segments[b], fft_size), np.fft.rfft(h.taps[index[b]], fft_size)
            re = xs.real * hs.real - xs.imag * hs.imag
            xs.imag = xs.real * hs.imag + xs.imag * hs.real
            xs.real = re
            y[b] = np.fft.irfft(xs, fft_size)[:, n_taps - 1 : size]
    return AudioSignal(y.reshape(-1)[:n], x.sample_rate)


def fit_coeffs_least_squares(
    excitation: AudioSignal, target: AudioSignal, cfg: FitConfig = FitConfig()
) -> LtvFirCoeffs:
    """Per-frame ridge least squares of target on lagged excitation.

    Each frame's tap vector minimizes the squared error over that frame's
    samples plus ``ridge_lambda * ||h||^2``; frames whose regressors are all
    zero get all-zero taps.  With ridge_lambda == 0 the minimum-norm
    least-squares solution is used, so rank-deficient frames (e.g. excitation
    with few harmonics) stay well-defined.

    A cumulative count of non-zero excitation samples tells, for every frame
    including the partial last one, whether its lagged block holds any; dead
    frames are never solved.  The mode picks one block solver, ``_ridge``
    (normal equations) or ``_min_norm`` (Cholesky, one correction and an
    error bound per frame).  One walk on ``signal_core._each``'s threads
    solves each ``signal_core._blocks`` slice of a run of live full frames,
    and a live partial last frame on its own, as views of the lagged matrix;
    ``np.linalg.lstsq`` then finishes, in the same item, every frame of the
    slice the solver leaves uncertified.  Each item writes only its own rows,
    with the numpy calls of a serial walk, so the taps are the same bits at
    any thread count.
    """
    n, fs = _check_signals(excitation=excitation, target=target)
    check_type("cfg", cfg, FitConfig)
    if n == 0:
        raise DomainError("cannot fit an empty signal")

    hop = hop_samples(cfg.frame_hop_seconds, fs)
    n_taps, lam = cfg.n_taps, cfg.ridge_lambda
    frames, full = n_frames_for(n, hop), n // hop
    check_count("lagged samples", n + n_taps - 1)
    check_count("fitted taps", frames * n_taps)
    lag = _lagged(excitation.samples, n_taps)
    y = target.samples

    # lag row m holds x[m - n_taps + 1 .. m], so count non-zero samples
    seen = np.concatenate([[0], np.cumsum(lag[:, 0] != 0)])
    starts = hop * np.arange(frames)
    live = seen[np.minimum(starts + hop, n)] > seen[np.maximum(starts - n_taps + 1, 0)]

    solve = _min_norm if lam == 0 else partial(_ridge, lam=lam)
    taps = np.zeros((frames, n_taps))

    def fit(b):  # a slice of live frames; slicing ends the partial last frame at n
        rows, k = slice(b.start * hop, b.stop * hop), b.stop - b.start
        taps[b], left = solve(lag[rows].reshape(k, -1, n_taps), y[rows].reshape(k, -1, 1))
        for f in b.start + np.flatnonzero(left):
            rows = slice(f * hop, (f + 1) * hop)
            taps[f] = np.linalg.lstsq(lag[rows], y[rows], rcond=None)[0]

    row_elems = max(hop, n_taps) * (n_taps + 1)
    items = [b for run in _voiced_runs(live[:full]) for b in _blocks(*run, row_elems)]
    if live[full:].any():  # the partial last frame
        items.append(slice(full, frames))
    _each(fit, items)
    return LtvFirCoeffs(taps, hop / fs, fs)


def _ridge(a: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Ridge taps, ``(A^T A + lambda I) h = A^T y``, of a batch of frames, all certified.

    ``a`` is frames x rows x taps and ``y`` frames x rows x 1.  They are
    slices of the strided lagged view, never copies: ``@`` on the strided
    view sums in the same order as one frame's 2-D product, so the taps equal
    the per-frame solve bit for bit, while a contiguous copy goes through
    BLAS, moves A^T y by 1 ulp, and with lambda = 1e-6 (kappa up to about
    1e8) moves the taps by about 1e-9.
    """
    at = a.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # LtvFirCoeffs rejects what overflows
        g = at @ a
        d = np.arange(a.shape[2])
        g[:, d, d] += lam
        return np.linalg.solve(g, at @ y)[..., 0], np.zeros(len(a), bool)


def _min_norm(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-norm taps of a batch of frames, and which of them it cannot certify.

    Corrected semi-normal equations (Bjorck, "Stability analysis of the
    method of seminormal equations", LAA 88/89, 1987).  Each frame's lagged
    block A (``a``: frames x rows x taps, copied contiguous) gives
    ``G = A^T A = R^T R`` by Cholesky and R^-1 by ``_upper_inverse``, then
    ``x0 = R^-1 R^-T A^T y`` (y: frames x rows x 1).  One correction,
    ``r = y - A x0`` and ``dx = R^-1 R^-T A^T r``, gives ``x = x0 + dx``,
    and rho = ||r|| is the residual norm.

    With ``kappa = ||R||_F ||R^-1||_F``, a QR solve's first-order forward
    error is ``q = eps * kappa * (||x|| + kappa * rho / ||R||_F)`` (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 20).
    The computed R^T R is G plus a rounding error of about eps ||G||, so a
    solve with it for G leaves a fraction ``drift = eps * kappa^2`` of any
    error behind: the correction turns x0's error ``e0 = dx + e`` into
    ``||e|| <= drift * ||e0|| + q``, so ``||e|| <= (q + drift * ||dx||) / (1 - drift)``.
    A frame's x is certified only when drift is at most FIT_CHOLESKY, so R
    is accurate and the correction contracts, and that bound is at most
    FIT_GATE, so x matches ``np.linalg.lstsq`` (gelsd) to about that.
    gelsd drops rank only for kappa beyond ``1 / (eps * max(hop, n_taps))``
    (2.8e13 for 160 x 64 frames), far past the 2.1e7 FIT_CHOLESKY admits.
    Fewer rows than taps make every G singular, so such a block is returned
    uncertified before any factoring.  Any other singular G (rank below
    n_taps) fails the Cholesky or, by rounding, gives an R with drift above
    3 (on 4,000 rank-deficient sine frames); a batch in which one G is not
    positive definite is retried one frame at a time.
    """
    frames, rows, n_taps = a.shape
    if rows < n_taps:  # G = A^T A is singular
        return np.zeros((frames, n_taps)), np.ones(frames, bool)
    a = np.ascontiguousarray(a)
    at = a.transpose(0, 2, 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # these fail the gate
        try:
            r = np.linalg.cholesky(at @ a).transpose(0, 2, 1)
        except np.linalg.LinAlgError:
            if frames == 1:
                return np.zeros((1, n_taps)), np.ones(1, bool)
            x, bad = zip(*(_min_norm(a[f : f + 1], y[f : f + 1]) for f in range(frames)))
            return np.concatenate(x), np.concatenate(bad)
        inv = _upper_inverse(r)
        inv_t = inv.transpose(0, 2, 1)
        x = inv @ (inv_t @ (at @ y))
        res = y - a @ x
        dx = (inv @ (inv_t @ (at @ res)))[..., 0]
        x = x[..., 0] + dx
        norm_r = np.linalg.norm(r, axis=(1, 2))
        kappa = norm_r * np.linalg.norm(inv, axis=(1, 2))
        rho = np.linalg.norm(res[..., 0], axis=1)
        q = FIT_EPS * kappa * (np.linalg.norm(x, axis=1) + kappa * rho / norm_r)
        drift = FIT_EPS * kappa * kappa
        bound = (q + drift * np.linalg.norm(dx, axis=1)) / (1.0 - drift)
        return x, ~((drift <= FIT_CHOLESKY) & (bound <= FIT_GATE))


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """Inverses of a stack of upper-triangular n x n matrices, level by level.

    The diagonal is ``1 / r[i, i]``.  Then, for s = 1, 2, 4, ... < n, every
    diagonal block of 2s rows, ``[[A, B], [0, D]]``, whose halves A and D
    are already inverted, gets the corner ``-A^-1 B D^-1``; a last block of
    between s and 2s rows is one more such block with a smaller D.  Each
    level is one ``@`` pair over all its blocks of all frames, about n^3 / 3
    flops per frame in all, as LAPACK's ``trtri`` (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, ch. 14).
    """
    frames, n, _ = r.shape
    inv = np.zeros((frames, n, n))
    d = np.arange(n)
    inv[:, d, d] = 1.0 / r[:, d, d]
    s = 1
    while s < n:
        pairs, tail = divmod(n, 2 * s)
        for start, size, count in ((0, 2 * s, pairs), (n - tail, tail, int(tail > s))):
            if count:
                x = _diagonal_blocks(inv, start, size, count)
                b = _diagonal_blocks(r, start, size, count)
                x[..., :s, s:] = -(x[..., :s, :s] @ b[..., :s, s:]) @ x[..., s:, s:]
        s *= 2
    return inv


def _diagonal_blocks(m: np.ndarray, start: int, size: int, count: int) -> np.ndarray:
    """View (frames x count x size x size) of ``m``'s diagonal blocks from ``start``, ``start``."""
    s0, s1, s2 = m.strides
    return np.lib.stride_tricks.as_strided(
        m[:, start:, start:], (len(m), count, size, size), (s0, size * (s1 + s2), s1, s2)
    )


def minimum_phase_fir(magnitude: np.ndarray, n_taps: int, fft_size: int) -> np.ndarray:
    """Minimum-phase FIR taps whose response approximates ``magnitude``.

    ``magnitude`` is frames x (fft_size//2 + 1) finite linear magnitudes
    below 1e150, and the taps (frames x n_taps) are ``_levinson``'s of the
    inverse power spectrum ``1 / max(|M|, 1e-12)^2``, which, unlike ``** -2.0``,
    rounds the same at every numpy SIMD dispatch level.
    """
    fft_size = check_integer("fft_size", fft_size, minimum=1)
    rows = check_array("envelope magnitudes", magnitude, 2)
    if rows.shape[1] != fft_size // 2 + 1:
        raise ConfigError(f"magnitude shape {rows.shape}: need frames x {fft_size // 2 + 1} bins")
    # below 1e150, every inverse power is a normal float64
    if not -1e150 < rows.min(initial=0.0) <= rows.max(initial=0.0) < 1e150:
        raise DomainError("envelope magnitudes must be below 1e150")
    inv_power = lambda b: 1.0 / np.square(np.maximum(rows[b], 1e-12))  # noqa: E731
    return _levinson(inv_power, len(rows), n_taps, fft_size)


def _levinson(inv_power, n_rows: int, n_taps: int, fft_size: int) -> np.ndarray:
    """Minimum-phase taps (n_rows x n_taps, n_taps at most fft_size) from inverse powers.

    ``inv_power(b)`` gives rows ``b``, a ``signal_core._blocks`` slice, of the
    n_rows x (fft_size//2 + 1) inverse powers, normal floats > 0, and each row
    becomes its autocorrelation r (``irfft``) before the next slice is asked for.
    The Levinson-Durbin recursion, all rows at once, gives its order
    n_taps - 1 monic predictor A and error E: order m takes k = -(A . r[m:0:-1]) / E,
    A[i] += k A[m - i] for i = 1..m, and E *= 1 - k^2.  E / |A|^2 models the
    inverse power, so the taps A / sqrt(E) have |H|^2 close to its inverse.  A
    positive-definite r gives every |k| < 1, so A has all its zeros inside
    the unit circle (Makhoul, "Linear prediction: a tutorial review", Proc.
    IEEE 63, 1975).  Scaling r[0] by 1 + WNC (white-noise correction) keeps
    r's smallest eigenvalue at least WNC * r[0], far above the recursion's
    rounding, however deep the notches.
    """
    n_taps = check_integer("n_taps", n_taps, minimum=1)
    if n_taps > fft_size:
        raise ConfigError(f"n_taps={n_taps} above fft_size={fft_size}")
    r = np.empty((n_taps, n_rows))  # lags x rows, as A
    for b in _blocks(0, n_rows, 8 * fft_size):  # about 8 row-sized transients per row
        r[:, b] = np.fft.irfft(inv_power(b), fft_size)[:, :n_taps].T
    r[0] *= 1.0 + WNC
    a = np.zeros_like(r)
    a[0], e = 1.0, r[0].copy()
    for m in range(1, n_taps):
        s = a[0] * r[m]  # a running sum adds over i in order, as a per-frame loop does
        for i in range(1, m):
            s += a[i] * r[m - i]
        k = -s / e
        a[1 : m + 1] += k * a[m - 1 :: -1]
        e *= 1.0 - k * k
    return np.ascontiguousarray((a / np.sqrt(e)).T)


def estimate_coeffs_from_mel(
    mel: MelSpectrogram, n_taps: int = DEFAULT_N_TAPS, floor_db: float = -50.0
) -> LtvFirCoeffs:
    """Minimum-phase FIR per frame from a log-mel envelope.

    The log power (``spectral._mel_log_power``) floored once at ``max(floor_db, -240)`` dB
    (-240 dB is ``minimum_phase_fir``'s 1e-12) is, in one ``exp``, the inverse power
    spectrum that ``_levinson`` turns into taps, one block of frames at a time.
    """
    check_type("mel", mel, MelSpectrogram)
    floor = max(check_array("floor_db", floor_db, 0), -240.0) / LOG10_FACTOR
    log_power = _mel_log_power(mel)

    def inv_power(rows):
        level = np.maximum(log_power(rows), floor)
        if not level.max(initial=0.0) < 2.0 * math.log(1e150):  # magnitudes below 1e150
            raise DomainError("envelope magnitudes must be below 1e150")
        return np.exp(-level)

    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the bound
        taps = _levinson(inv_power, mel.n_frames, n_taps, mel.config.fft_size)
    return LtvFirCoeffs(taps, mel.hop_seconds, mel.sample_rate)


def write_coeffs(path, h: LtvFirCoeffs) -> None:
    """Binary ``LTVF`` coefficient file; the layout is in ``tensor_io``."""
    check_type("coefficients", h, LtvFirCoeffs)
    tensor_io.write_tensor(path, LTVF_MAGIC, h.taps, h.hop_seconds, h.sample_rate)


def read_coeffs(path) -> LtvFirCoeffs:
    taps, header = tensor_io.read_tensor(path, LTVF_MAGIC, {1: ("hop_seconds", "sample_rate")})
    return from_file(path, LtvFirCoeffs, taps, header["hop_seconds"], header["sample_rate"])
