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
from .spectral import MelSpectrogram, hop_samples, mel_filterbank, n_frames_for

LTVF_MAGIC = b"LTVF"

LOG10_FACTOR = 10.0 / math.log(10.0)  # natural-log power -> dB

# Minimum-phase estimator (see ``minimum_phase_fir``).  The block sizes keep
# each transient near 1 MiB or below: 16 rows of 1024-point cepstra, and 32
# rows of 2049 complex bins in the angle search.
CEPSTRUM_BLOCK = 16
GATE_MARGIN = 1e-6  # the gate tests radius 1 - GATE_MARGIN
BISECT_STEPS = 12
ANGLE_FFT = 4096
ANGLE_CHUNK = 32
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
        t = np.atleast_2d(np.asarray(self.taps, dtype=np.float64))
        object.__setattr__(self, "taps", t)
        if t.shape[1] < 1:
            raise ConfigError("need at least one tap")
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

    The minimum-norm fit solves full frames (``hop >= n_taps``, every sample
    inside the signal) in blocks of about 1 MiB.  Each frame's lagged block A
    is augmented with its target y and factored,
    ``[A | y] = Q [[R, c], [0, rho]]``, so ``R x = c`` gives the taps and rho
    is the residual norm (Bjorck, Numerical Methods for Least Squares
    Problems, 1996).  A frame keeps x only when the first-order
    least-squares forward-error bound
    ``eps * kappa * (||x|| + kappa * rho / ||R||_F)``, with
    ``kappa = ||R||_F ||R^-1||_F``, is at most FIT_GATE, so x matches
    ``np.linalg.lstsq`` (gelsd) to about that.  gelsd drops rank only for
    kappa beyond ``1 / (eps * max(hop, n_taps))`` (2.8e13 for 160 x 64
    frames), which the gate admits only with ||x|| below 1e-16.  Every other
    frame -- failed gate, singular R, ``hop < n_taps``, the partial last
    frame -- goes through ``np.linalg.lstsq`` one frame at a time.
    """
    if len(excitation) != len(target):
        raise ConfigError(
            f"length mismatch: excitation {len(excitation)}, target {len(target)}"
        )
    if excitation.sample_rate != target.sample_rate:
        raise ConfigError("sample-rate mismatch between excitation and target")

    fs = excitation.sample_rate
    hop = hop_samples(cfg.frame_hop_seconds, fs)
    n = len(excitation)
    frames = n_frames_for(n, hop)
    lag = _lagged(excitation.samples, cfg.n_taps)
    y = target.samples

    taps = np.zeros((frames, cfg.n_taps))
    lam = cfg.ridge_lambda
    todo = range(frames) if lam > 0 else _fit_full_frames(lag, y, hop, taps)
    for f in todo:
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


def _fit_full_frames(lag: np.ndarray, y: np.ndarray, hop: int, taps: np.ndarray) -> np.ndarray:
    """Write the gate-certified min-norm taps of full frames; return the frames left.

    See ``fit_coeffs_least_squares``.  Full frames whose lagged block is all
    zero keep zero taps and are not returned.  One ``np.linalg.solve`` per
    block gives both x and R^-1: R is upper triangular, so its LU
    factorization is R itself and every column is a back substitution.  R
    with a zero on its diagonal is swapped for the identity before the
    solve, which would otherwise raise, and its frame is returned.
    """
    frames, n_taps = taps.shape
    full = len(y) // hop if hop >= n_taps else 0
    # lag row m holds x[m - n_taps + 1 .. m], so count non-zero samples
    seen = np.concatenate([[0], np.cumsum(lag[:, 0] != 0)])
    ends = hop * np.arange(1, full + 1)
    live = seen[ends] > seen[np.maximum(ends - hop - n_taps + 1, 0)]
    left = np.ones(frames, dtype=bool)
    left[:full] = live
    lag_frames = lag[: full * hop].reshape(full, hop, n_taps)
    y_frames = y[: full * hop].reshape(full, hop)
    step = max(1, (1 << 17) // (hop * (n_taps + 1)))  # frames per block
    rhs = np.zeros((step, n_taps, n_taps + 1))
    rhs[:, :, 1:] = np.eye(n_taps)
    todo = np.flatnonzero(live)
    for i in range(0, len(todo), step):
        block = todo[i : i + step]
        aug = np.empty((len(block), hop, n_taps + 1))
        aug[..., :n_taps] = lag_frames[block]
        aug[..., n_taps] = y_frames[block]
        r = np.linalg.qr(aug, mode="r")
        R, b = r[:, :n_taps, :n_taps], rhs[: len(block)]
        b[..., 0] = r[:, :n_taps, n_taps]
        rho = np.linalg.norm(r[:, n_taps:, n_taps], axis=1)  # 0 when hop == n_taps
        singular = (np.diagonal(R, axis1=1, axis2=2) == 0).any(axis=1)
        R[singular] = np.eye(n_taps)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the gate
            sol = np.linalg.solve(R, b)
            x = sol[..., 0]
            norm_r = np.linalg.norm(R, axis=(1, 2))
            kappa = norm_r * np.linalg.norm(sol[..., 1:], axis=(1, 2))
            bound = FIT_EPS * kappa * (np.linalg.norm(x, axis=1) + kappa * rho / norm_r)
            good = (bound <= FIT_GATE) & ~singular
        taps[block[good]] = x[good]
        left[block[good]] = False
    return np.flatnonzero(left)


def minimum_phase_fir(magnitude: np.ndarray, n_taps: int, fft_size: int) -> np.ndarray:
    """Minimum-phase FIR taps whose response approximates ``magnitude``.

    ``magnitude`` is a linear magnitude over fft_size//2 + 1 bins, one row
    per frame; a single 1-D row gives 1-D taps.  The taps come from the
    real-cepstrum construction, computed CEPSTRUM_BLOCK rows at a time and
    truncated to n_taps (at most fft_size).  If the truncation pushes any
    zero of a row outside the unit circle, that row is exponentially
    contracted just enough to pull every zero back inside: see
    ``_contract_roots_inside`` for the Schur-Cohn gate at radius
    1 - GATE_MARGIN, the bracket-angle-Newton radius with its two-sided
    certificate, and the companion-matrix ``eigvals`` fallback.
    """
    if not 1 <= n_taps <= fft_size:
        raise ConfigError(f"n_taps={n_taps} outside [1, fft_size={fft_size}]")
    mag = np.asarray(magnitude, dtype=np.float64)
    if mag.ndim not in (1, 2) or mag.shape[-1] != fft_size // 2 + 1:
        raise ConfigError(f"magnitude shape {mag.shape}: need rows of {fft_size // 2 + 1} bins")
    rows = np.atleast_2d(mag)
    fold = np.zeros(fft_size)
    fold[0] = 1.0
    fold[1 : fft_size // 2] = 2.0
    fold[fft_size // 2] = 1.0
    h = np.empty((len(rows), n_taps))
    for b in range(0, len(rows), CEPSTRUM_BLOCK):
        block = slice(b, b + CEPSTRUM_BLOCK)
        cep = np.fft.irfft(np.log(np.maximum(rows[block], 1e-12)), fft_size)
        h[block] = np.fft.irfft(np.exp(np.fft.rfft(cep * fold)), fft_size)[:, :n_taps]
    h = _contract_roots_inside(h)
    return h if mag.ndim > 1 else h[0]


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
    if h.shape[1] < 2:
        return h
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
    outer circle of the bracket, sampled at ANGLE_FFT points, ANGLE_CHUNK
    rows per transform.  Newton: NEWTON_STEPS complex Horner steps from that
    point give a zero z.  Certificate, two-sided: all zeros lie within
    |z| (1 + CERTIFY_TOL), not all lie within |z| (1 - CERTIFY_TOL), and that
    interval lies on one side of 1, so a row is contracted exactly when
    ``np.roots`` says it must be.  A one-sided certificate would accept a
    Newton point that stalled outside every zero and over-contract the row.
    Rows that are not certified take ``_roots_radius``, which is exact.
    """
    with np.errstate(all="ignore"):  # a zero leading tap gives nan: not certified
        lo = np.full(len(h), 1.0 - GATE_MARGIN)
        hi = 1.0 + np.abs(h[:, 1:] / h[:, :1]).max(axis=1)  # Cauchy bound
        for _ in range(BISECT_STEPS):
            mid = np.sqrt(lo * hi)
            inside = _zeros_within(h, mid)
            hi, lo = np.where(inside, mid, hi), np.where(inside, lo, mid)

        dip = np.empty(len(h), dtype=np.intp)
        n = np.arange(h.shape[1])
        for b in range(0, len(h), ANGLE_CHUNK):
            on_circle = h[b : b + ANGLE_CHUNK] * hi[b : b + ANGLE_CHUNK, None] ** -n
            dip[b : b + ANGLE_CHUNK] = np.abs(np.fft.rfft(on_circle, ANGLE_FFT)).argmin(axis=1)
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
    r[~certified] = _roots_radius(h[~certified])
    return r


def _roots_radius(h: np.ndarray) -> np.ndarray:
    """``max |np.roots(row)|`` per row (0 if none), bit for bit.

    Like ``np.roots``, each row is trimmed of leading and trailing zeros and
    its companion matrix goes to ``eigvals``: one batched call per trimmed
    length.  Rows with a non-finite tap get nan.
    """
    r = np.where(np.isfinite(h).all(axis=1), 0.0, np.nan)
    nonzero = h != 0
    first = nonzero.argmax(axis=1)
    size = h.shape[1] - nonzero[:, ::-1].argmax(axis=1) - first
    size[~nonzero.any(axis=1) | np.isnan(r)] = 0
    for m in np.unique(size[size > 1]):
        rows = np.flatnonzero(size == m)
        p = h[rows[:, None], first[rows, None] + np.arange(m)]
        companion = np.zeros((len(rows), m - 1, m - 1))
        companion[:, 0] = -p[:, 1:] / p[:, :1]
        companion[:, np.arange(1, m - 1), np.arange(m - 2)] = 1.0
        r[rows] = np.abs(np.linalg.eigvals(companion)).max(axis=1)
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


def _mel_magnitude(mel: MelSpectrogram, floor_db: float = -50.0) -> np.ndarray:
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
