"""Loop implementations replaced by closed forms or batched array code.

Each function here is the straightforward loop a library fast path replaced;
the tests use them as oracles for differential checks.
"""

import numpy as np

from harmex import AudioSignal, ExcitationConfig, LtvFirCoeffs, PhaseInit, SampleF0
from harmex.errors import AliasingError
from harmex.ltv import _check_geometry, _lagged
from harmex.signal_core import TAU, _voiced_runs


def sine_excitation_loop(f0: SampleF0, cfg: ExcitationConfig = ExcitationConfig()) -> AudioSignal:
    """``signal_core.sine_excitation`` as a masked sum over harmonics."""
    v = f0.values
    fs = f0.sample_rate
    if np.any(v >= fs / 2):
        raise AliasingError("f0 at or above Nyquist")

    out = np.zeros(len(v))
    rng = np.random.default_rng(cfg.seed) if cfg.phase_init is PhaseInit.SEEDED_RANDOM else None

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


def fill_uncovered_loop(log_power: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Uncovered mel bins filled per frame by ``np.interp`` over covered bins."""
    out = log_power.copy()
    bin_idx = np.arange(log_power.shape[1])
    for f in range(len(out)):
        out[f, ~covered] = np.interp(bin_idx[~covered], bin_idx[covered], out[f, covered])
    return out
