import math

import numpy as np
import pytest

from harmex import (
    AudioSignal,
    ConfigError,
    ExcitationConfig,
    F0Track,
    LtvFirCoeffs,
    StftConfig,
    interpolate_f0,
    minimum_phase_fir,
    sine_excitation,
)

FS = 16000
HOP = 160


def constant_track(f0: float, n_frames: int, hop_seconds: float = 0.010) -> F0Track:
    return F0Track(np.full(n_frames, float(f0)), hop_seconds)


def make_excitation(f0: float, n_samples: int, fs: float = FS, **cfg_kwargs) -> AudioSignal:
    n_frames = math.ceil(n_samples / HOP)
    sample_f0 = interpolate_f0(constant_track(f0, n_frames), fs, n_samples)
    return sine_excitation(sample_f0, ExcitationConfig(**cfg_kwargs))


def formant_envelope_coeffs(
    n_frames: int,
    rng: np.random.Generator,
    stft: StftConfig = StftConfig(),
    fs: float = FS,
    n_taps: int = 64,
) -> LtvFirCoeffs:
    """Vowel-like spectral envelopes: a few drifting resonant bumps per frame."""
    n_bins = stft.n_bins
    freqs = np.arange(n_bins) * fs / stft.fft_size
    n_formants = rng.integers(2, 5)
    centers = rng.uniform(300.0, 3500.0, size=n_formants)
    widths = rng.uniform(80.0, 300.0, size=n_formants)
    gains_db = rng.uniform(-12.0, 0.0, size=n_formants)
    drift = rng.uniform(-0.05, 0.05, size=n_formants)

    phase = np.sin(2 * np.pi * np.arange(n_frames) / max(n_frames, 1))
    sweep = centers * (1.0 + drift * phase[:, None])  # frames x formants
    mag_db = np.full((n_frames, n_bins), -40.0)
    for c, w, g in zip(sweep.T, widths, gains_db):
        mag_db = np.maximum(mag_db, g - 0.5 * ((freqs - c[:, None]) / w) ** 2)
    taps = minimum_phase_fir(10 ** (mag_db / 20.0), n_taps, stft.fft_size)
    return LtvFirCoeffs(taps, stft.hop_size / fs, fs)


def frequency_response(h: LtvFirCoeffs, frame: int, n_fft: int) -> np.ndarray:
    """Magnitude response of one frame's taps in dB, floored at -120 dB."""
    if not (0 <= frame < h.n_frames):
        raise IndexError(f"frame {frame} out of range [0, {h.n_frames})")
    if n_fft < h.n_taps:
        raise ConfigError(f"n_fft={n_fft} smaller than n_taps={h.n_taps}")
    mag = np.abs(np.fft.rfft(h.taps[frame], n_fft))
    return np.maximum(20.0 * np.log10(np.maximum(mag, 1e-300)), -120.0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
