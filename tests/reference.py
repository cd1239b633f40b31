"""Loop and whole-array implementations replaced by closed forms, batched or
blocked array code.

Each function here is the straightforward form a library fast path replaced;
the tests use them as oracles for differential checks.
"""

import math

import numpy as np

from harmex import (
    AudioSignal, ExcitationConfig, F0Track, FitConfig, LtvFirCoeffs, SampleF0,
)
from harmex.conditioning import decimation_taps
from harmex.errors import AliasingError, ConfigError, DomainError, LengthMismatchError
from harmex.errors import check_count, check_integer
from harmex.ltv import FIT_EPS, FIT_GATE, LOG10_FACTOR, WNC, _check_geometry, _lagged
from harmex.metrics import MAG_FLOOR, MrStftConfig, MrStftLoss, _search_ratio
from harmex.signal_core import TAU, _blocks, _voiced_runs, frame_centers, hop_samples
from harmex.spectral import MEL_FLOOR, MEL_RANGE, MelSpectrogram, StftConfig, _mel_log_power, hann
from harmex.spectral import _band_sums, _mel_bins
from harmex.spectral import check_mel_range, mel_edges, n_frames_for


def sine_excitation_loop(f0: SampleF0, cfg: ExcitationConfig = ExcitationConfig()) -> AudioSignal:
    """``signal_core.sine_excitation`` as a masked sum over harmonics."""
    v = f0.values
    fs = f0.sample_rate
    if np.any(v >= fs / 2):
        raise AliasingError("f0 at or above Nyquist")

    out = np.zeros(len(v))
    rng = np.random.default_rng(cfg.seed) if cfg.seed is not None else None

    for start, stop in _voiced_runs(v > 0):
        seg = v[start:stop]
        phi0 = 0.0 if rng is None else float(rng.uniform(0.0, TAU))
        base = (phi0 + np.cumsum(TAU * seg / fs)) % TAU

        k_count = np.floor(fs / (2.0 * seg)).astype(np.intp)
        if cfg.k_max_cap is not None:
            np.minimum(k_count, cfg.k_max_cap, out=k_count)

        acc = np.zeros(stop - start)
        for k in range(1, int(k_count.max(initial=0)) + 1):
            m = k_count >= k
            acc[m] += np.sin((k * base[m]) % TAU)
        out[start:stop] = cfg.amplitude * acc

    return AudioSignal(out, fs)


def apply_ltv_loop(x: AudioSignal, h: LtvFirCoeffs, interpolate_taps: bool = True) -> AudioSignal:
    """``ltv.apply_ltv`` as one pass per tap: ``np.interp`` or a frame gather."""
    hop = _check_geometry(x, h)
    n = len(x)
    sample_pos = np.arange(n, dtype=np.float64)
    centers = np.arange(h.n_frames) * float(hop)
    frame_of = np.minimum(np.arange(n) // hop, h.n_frames - 1)

    lag = _lagged(x.samples, h.n_taps)
    y = np.zeros(n)
    for t in range(h.n_taps):
        if interpolate_taps:
            tap_n = np.interp(sample_pos, centers, h.taps[:, t])
        else:
            tap_n = h.taps[frame_of, t]
        y += tap_n * lag[:, t]
    return AudioSignal(y, x.sample_rate)


def fit_ridge_loop(excitation: AudioSignal, target: AudioSignal, cfg: FitConfig) -> np.ndarray:
    """``ltv.fit_coeffs_least_squares`` taps with ridge_lambda > 0: one ``np.linalg.solve`` per frame."""
    hop = hop_samples(cfg.frame_hop_seconds, excitation.sample_rate)
    n = len(excitation)
    lag = _lagged(excitation.samples, cfg.n_taps)
    y = target.samples
    taps = np.zeros((n_frames_for(n, hop), cfg.n_taps))
    for f in range(len(taps)):
        sl = slice(f * hop, min((f + 1) * hop, n))
        block = lag[sl]
        if block.any():
            gram = block.T @ block
            gram[np.diag_indices_from(gram)] += cfg.ridge_lambda
            taps[f] = np.linalg.solve(gram, block.T @ y[sl])
    return taps


def fit_min_norm_loop(excitation: AudioSignal, target: AudioSignal, cfg: FitConfig) -> np.ndarray:
    """``ltv.fit_coeffs_least_squares`` taps with ridge_lambda=0: one ``np.linalg.lstsq`` per frame."""
    hop = hop_samples(cfg.frame_hop_seconds, excitation.sample_rate)
    n = len(excitation)
    lag = _lagged(excitation.samples, cfg.n_taps)
    taps = np.zeros((n_frames_for(n, hop), cfg.n_taps))
    for f in range(len(taps)):
        sl = slice(f * hop, min((f + 1) * hop, n))
        if lag[sl].any():
            taps[f] = np.linalg.lstsq(lag[sl], target.samples[sl], rcond=None)[0]
    return taps


def min_norm_solve(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ltv._min_norm`` by a batched QR, x and R^-1 from one ``np.linalg.solve(R, [c | I])``.

    ``[A | y] = Q [[R, c], [0, rho]]``, so ``R x = c`` gives the taps and
    rho is the residual norm.  R is upper triangular, so its LU
    factorization is R itself and every column is a back substitution.  R
    with a zero on its diagonal is swapped for the identity before the
    solve, which would otherwise raise, and is not certified.  The gate is
    the first-order QR bound ``eps * kappa * (||x|| + kappa * rho / ||R||_F)``
    at most FIT_GATE, without ``_min_norm``'s Cholesky terms.
    """
    n_taps = a.shape[2]
    r = np.linalg.qr(np.concatenate([a, y], axis=2), mode="r")
    R, c = r[:, :n_taps, :n_taps], r[:, :n_taps, n_taps:]
    rho = np.linalg.norm(r[:, n_taps:, n_taps], axis=1)
    singular = (np.diagonal(R, axis1=1, axis2=2) == 0).any(axis=1)
    R[singular] = np.eye(n_taps)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the gate
        sol = np.linalg.solve(R, np.concatenate([c, np.broadcast_to(np.eye(n_taps), R.shape)], 2))
        x = sol[..., 0]
        norm_r = np.linalg.norm(R, axis=(1, 2))
        kappa = norm_r * np.linalg.norm(sol[..., 1:], axis=(1, 2))
        bound = FIT_EPS * kappa * (np.linalg.norm(x, axis=1) + kappa * rho / norm_r)
        return x, ~(bound <= FIT_GATE) | singular


def decimate_full_rate(x: np.ndarray, factor: int) -> np.ndarray:
    """``conditioning._decimate`` as a full-rate ``np.convolve`` keeping every factor-th output."""
    if factor == 1 or len(x) == 0:
        return x[: len(x) // factor].copy()
    taps = decimation_taps(factor)
    half = len(taps) // 2
    padded = np.pad(x, (half, half), mode="reflect", reflect_type="odd")
    filtered = np.convolve(padded, taps, mode="valid")
    return filtered[::factor][: len(x) // factor]


# every band's triangle at every bin: the dense matrix ``spectral._mel_bins`` maps bin by bin
def mel_filterbank_dense(
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


def mel_log_power_dense(mel: MelSpectrogram) -> np.ndarray:
    """``spectral._mel_log_power`` as a product with the filterbank over per-bin coverage.

    The band-compensated log-mel energies go through the transpose of the
    filterbank and are divided by each bin's coverage; the bins no band
    reaches then take, frame by frame, ``np.interp``'s held end values.
    """
    cfg = mel.config
    fbank = mel_filterbank_dense(mel.n_mels, cfg.fft_size, mel.sample_rate, *mel.mel_range)
    coverage = fbank.sum(axis=0)
    covered = coverage > 0
    log_area = np.log(fbank.sum(axis=1))
    bands = mel.frames - 0.5 * (log_area + log_area.mean())
    log_power = np.empty((mel.n_frames, cfg.n_bins))
    log_power[:, covered] = bands @ fbank[:, covered] / coverage[covered]
    bins = np.arange(cfg.n_bins)
    for f in range(mel.n_frames):
        log_power[f] = np.interp(bins, bins[covered], log_power[f, covered])
    return log_power


def estimate_taps_loop(mel: MelSpectrogram, n_taps: int = 64, floor_db: float = -50.0) -> np.ndarray:
    """``ltv.estimate_coeffs_from_mel`` taps: ``levinson_loop`` of the inverse power
    spectrum ``exp(-max(log power, max(floor_db, -240) / LOG10_FACTOR))``."""
    floor = max(floor_db, -240.0) / LOG10_FACTOR
    inv_power = np.exp(-np.maximum(_mel_log_power(mel)(slice(None)), floor))
    return levinson_loop(inv_power, n_taps, mel.config.fft_size)


def levinson_loop(inv_power: np.ndarray, n_taps: int, fft_size: int) -> np.ndarray:
    """``ltv._levinson`` taps, one scalar Levinson-Durbin recursion per row.

    Each row's autocorrelation r of its inverse power spectrum, r[0]
    scaled by 1 + WNC, gives the monic predictor a and its error e one
    order m at a time: k = -sum_i a[i] r[m - i] / e, a[i] += k a[m - i],
    e *= 1 - k^2.  The taps are a / sqrt(e).
    """
    taps = np.zeros((len(inv_power), n_taps))
    for f, row in enumerate(inv_power):
        r = np.fft.irfft(row, fft_size)[:n_taps].tolist()
        r[0] *= 1.0 + WNC
        a, e = [1.0], r[0]
        for m in range(1, n_taps):
            acc = 0.0
            for i in range(m):
                acc += a[i] * r[m - i]
            k = -acc / e
            a = [1.0] + [a[i] + k * a[m - i] for i in range(1, m)] + [k]
            e *= 1.0 - k * k
        taps[f] = np.array(a) / math.sqrt(e)
    return taps


def refine_pitch_loop(x: AudioSignal, ref_f0: F0Track, search_cents: float = 200.0) -> np.ndarray:
    """``metrics.refine_pitch`` with one normalized correlation per lag."""
    fs = x.sample_rate
    centers = frame_centers(len(ref_f0), ref_f0.hop_seconds, fs)
    ratio = _search_ratio(search_cents)
    s = x.samples
    out = np.full(len(ref_f0), np.nan)

    for m, f_ref in enumerate(ref_f0.values):
        if f_ref <= 0:
            continue
        lag_lo = max(2, int(math.floor(fs / (f_ref * ratio))))
        lag_hi = int(math.ceil(fs / (f_ref / ratio)))
        window = lag_hi  # correlation window, one max-period long
        start = centers[m] - (window + lag_hi) // 2
        if lag_hi - lag_lo < 2 or start < 0 or start + window + lag_hi > len(s):
            continue
        seg = s[start : start + window + lag_hi]
        if not seg.any():
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


def voicing_decisions_loop(x: AudioSignal, ref_f0: F0Track, energy_threshold_db: float = -40.0) -> np.ndarray:
    """``metrics._voicing_decisions`` with one RMS per frame over the samples it owns."""
    hop_samples(ref_f0.hop_seconds, x.sample_rate)
    hop = ref_f0.hop_seconds * x.sample_rate
    owner = np.floor((np.arange(len(x)) + hop / 2) / hop)
    peak = float(np.max(np.abs(x.samples), initial=0.0))
    decided = np.zeros(len(ref_f0), dtype=bool)
    if peak > 0:
        threshold = peak * 10.0 ** (energy_threshold_db / 20.0)
        for m in range(len(ref_f0)):
            window = x.samples[owner == m]
            if len(window) == 0:
                continue
            rms = math.sqrt(float(np.mean(window**2)))
            decided[m] = rms > threshold
    return decided


def interpolate_f0_loop(track: F0Track, sample_rate: float, n_samples: int) -> SampleF0:
    """``signal_core.interpolate_f0`` with a full-length frame mask per voiced run."""
    hop = track.hop_seconds * sample_rate
    if n_samples < 0:
        raise DomainError("n_samples must be >= 0")
    max_samples = math.ceil((len(track) + 1) * hop)  # through one hop past the last frame
    if n_samples > max_samples:
        raise LengthMismatchError(
            f"n_samples={n_samples} exceeds track coverage {max_samples}"
        )

    out = np.zeros(n_samples)
    if len(track) == 0:
        return SampleF0(out, sample_rate)

    n = np.arange(n_samples)
    frame_idx = np.minimum((np.floor((n + hop / 2) / hop)).astype(np.intp), len(track) - 1)
    for start, stop in _voiced_runs(track.voiced_mask):
        sel = (frame_idx >= start) & (frame_idx < stop)
        if not sel.any():
            continue
        centers = np.arange(start, stop) * hop
        out[sel] = np.interp(n[sel], centers, track.values[start:stop])
    return SampleF0(out, sample_rate)


def stft_magnitude_whole(x: AudioSignal, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """``spectral.stft_magnitude`` as one gathered copy of every frame and one ``rfft``."""
    n = len(x)
    win, hop, fft = cfg.win_size, cfg.hop_size, cfg.fft_size
    frames = n_frames_for(n, hop)
    pad_left = win // 2
    pad_right = max(0, (frames - 1) * hop + win - pad_left - n)
    mode = "reflect" if n > max(pad_left, pad_right) else "constant"
    xp = np.pad(x.samples, (pad_left, pad_right), mode=mode)
    segs = np.lib.stride_tricks.sliding_window_view(xp, win)[np.arange(frames) * hop]
    return np.abs(np.fft.rfft(segs * hann(win, periodic=True), n=fft, axis=1))


def mel_spectrogram_whole(
    x: AudioSignal,
    cfg: StftConfig = StftConfig(),
    n_mels: int = 80,
    f_min: float = MEL_RANGE[0],
    f_max: float = MEL_RANGE[1],
) -> MelSpectrogram:
    """``spectral.mel_spectrogram`` as one filterbank product over the whole power spectrogram."""
    mag = stft_magnitude_whole(x, cfg)
    fbank = mel_filterbank_dense(n_mels, cfg.fft_size, x.sample_rate, f_min, f_max)
    mel = (mag**2) @ fbank.T
    return MelSpectrogram(np.log(np.maximum(mel, MEL_FLOOR)), cfg, x.sample_rate, (f_min, f_max))


def mel_spectrogram_serial(
    x: AudioSignal,
    cfg: StftConfig = StftConfig(),
    n_mels: int = 80,
    f_min: float = MEL_RANGE[0],
    f_max: float = MEL_RANGE[1],
) -> np.ndarray:
    """``spectral.mel_spectrogram``'s frames as one thread's walk over ``_blocks`` of frames:
    the same bits as the library at any ``WORKERS`` and ``BLOCK_ELEMS``."""
    whole = stft_magnitude_whole(x, cfg)
    band, rise, fall, starts = _mel_bins(n_mels, cfg.fft_size, x.sample_rate, f_min, f_max)
    frames = np.empty((len(whole), n_mels))
    for rows in _blocks(0, len(whole), cfg.win_size + 3 * cfg.n_bins):
        block = _band_sums(np.square(whole[rows]), frames[rows], band, rise, fall, starts)
        np.log(np.maximum(block, MEL_FLOOR), out=block)
    return frames


def mr_stft_loss_whole(
    x: AudioSignal, y: AudioSignal, cfg: MrStftConfig = MrStftConfig()
) -> MrStftLoss:
    """``metrics.mr_stft_loss`` over each resolution's whole magnitudes, difference and logs."""
    sc_terms, mag_terms = [], []
    for res in cfg.resolutions:
        mx = stft_magnitude_whole(x, res)
        my = stft_magnitude_whole(y, res)
        d = my - mx
        sc_terms.append(np.sqrt(np.einsum("ij,ij->", d, d)) / np.sqrt(np.einsum("ij,ij->", my, my)))
        mag_terms.append(np.mean(np.abs(
            np.log(np.maximum(my, MAG_FLOOR)) - np.log(np.maximum(mx, MAG_FLOOR)))))
    return MrStftLoss(float(np.mean(sc_terms)), float(np.mean(mag_terms)))


def mr_stft_loss_serial(
    x: AudioSignal, y: AudioSignal, cfg: MrStftConfig = MrStftConfig()
) -> MrStftLoss:
    """``metrics.mr_stft_loss`` as one thread's running sums over each resolution's ``_blocks``
    of frames, with new arrays for every temporary: the same bits as the library at any
    ``WORKERS`` and ``BLOCK_ELEMS``."""
    sc_terms, mag_terms = [], []
    for res in cfg.resolutions:
        whole_x, whole_y = stft_magnitude_whole(x, res), stft_magnitude_whole(y, res)
        diff_sq = ref_sq = log_l1 = 0.0
        for rows in _blocks(0, len(whole_y), res.win_size + 3 * res.n_bins):
            mx, my = whole_x[rows], whole_y[rows]
            d = my - mx
            diff_sq += np.einsum("ij,ij->", d, d)
            ref_sq += np.einsum("ij,ij->", my, my)
            log_l1 += np.sum(np.abs(
                np.log(np.maximum(my, MAG_FLOOR)) - np.log(np.maximum(mx, MAG_FLOOR))))
        sc_terms.append(np.sqrt(diff_sq) / np.sqrt(ref_sq))
        mag_terms.append(log_l1 / (n_frames_for(len(y), res.hop_size) * res.n_bins))
    return MrStftLoss(float(np.mean(sc_terms)), float(np.mean(mag_terms)))


def loudness_loop(x: AudioSignal, hop: int) -> np.ndarray:
    """``spectral.loudness`` values, one explicit slice per frame of the padded signal.

    Frame m is samples ``[m*hop - hop//2, m*hop - hop//2 + hop)`` of ``x``
    reflect-padded (zero-padded when too short to reflect), as ``mel_spectrogram``
    frame m is centred on ``m * hop``.
    """
    n, left = len(x), hop // 2
    frames = n_frames_for(n, hop)
    right = max(0, frames * hop - left - n)
    xp = np.pad(x.samples, (left, right), mode="reflect" if n > max(left, right) else "constant")
    out = np.empty(frames)
    for m in range(frames):
        start = m * hop - left  # in samples of x; xp starts at -left
        seg = xp[start + left : start + left + hop]
        out[m] = math.log(max(math.sqrt(np.mean(seg**2)), MEL_FLOOR))
    return out
