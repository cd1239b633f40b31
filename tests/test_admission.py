"""Admission: any scalar given to a record, a config or a checked call ends
in a return or a categorized ``HarmexError``, never in another exception or
a warning.

Each case fills one field or argument with one drawn value and keeps the
rest at small valid inputs.  Array fields get the value in an array of the
shape they need.  No drawn value is a count that would allocate: counts
reach their bounds checks before any array has that length.
"""

import math

import numpy as np
import pytest

from harmex import (
    AudioSignal,
    ConfigError,
    DomainError,
    ExcitationConfig,
    F0Track,
    FitConfig,
    FormatError,
    HarmexError,
    LossWeights,
    LoudnessTrack,
    LtvFirCoeffs,
    MelSpectrogram,
    SampleF0,
    StftConfig,
    combined_loss,
    estimate_coeffs_from_mel,
    harmonic_count,
    interpolate_f0,
    mel_filterbank,
    mel_spectrogram,
    pitch_jitter,
    refine_pitch,
    uv_error_rate,
)
from harmex.errors import check_array, check_integer
from harmex.spectral import hop_samples
from conftest import FS, make_excitation

DRAWN = [0, -1, 2.5, 1e-300, 1e308, math.inf, -math.inf, math.nan, True, None, "a"]

X = make_excitation(200.0, 1600)
TRACK = F0Track(np.full(10, 200.0))
MEL = MelSpectrogram(np.zeros((4, 8)), StftConfig(128, 128, 64), FS)

CASES = {
    # the ten record and config constructors
    "F0Track.values": lambda v: F0Track(np.full(3, v)),
    "F0Track.hop_seconds": lambda v: F0Track(np.zeros(3), v),
    "SampleF0.values": lambda v: SampleF0(np.full(3, v), FS),
    "SampleF0.sample_rate": lambda v: SampleF0(np.zeros(3), v),
    "AudioSignal.samples": lambda v: AudioSignal(np.full(3, v), FS),
    "AudioSignal.sample_rate": lambda v: AudioSignal(np.zeros(3), v),
    "ExcitationConfig.amplitude": lambda v: ExcitationConfig(amplitude=v),
    "ExcitationConfig.seed": lambda v: ExcitationConfig(seed=v),
    "ExcitationConfig.k_max_cap": lambda v: ExcitationConfig(k_max_cap=v),
    "LtvFirCoeffs.taps": lambda v: LtvFirCoeffs(np.full((2, 3), v), 0.01, FS),
    "LtvFirCoeffs.hop_seconds": lambda v: LtvFirCoeffs(np.ones((2, 3)), v, FS),
    "LtvFirCoeffs.sample_rate": lambda v: LtvFirCoeffs(np.ones((2, 3)), 0.01, v),
    "FitConfig.n_taps": lambda v: FitConfig(n_taps=v),
    "FitConfig.ridge_lambda": lambda v: FitConfig(ridge_lambda=v),
    "FitConfig.frame_hop_seconds": lambda v: FitConfig(frame_hop_seconds=v),
    "StftConfig.fft_size": lambda v: StftConfig(fft_size=v),
    "StftConfig.win_size": lambda v: StftConfig(win_size=v),
    "StftConfig.hop_size": lambda v: StftConfig(hop_size=v),
    "MelSpectrogram.frames": lambda v: MelSpectrogram(np.full((4, 8), v), StftConfig(), FS),
    "MelSpectrogram.sample_rate": lambda v: MelSpectrogram(np.zeros((4, 8)), StftConfig(), v),
    "LoudnessTrack.values": lambda v: LoudnessTrack(np.full(3, v), 0.01),
    "LoudnessTrack.hop_seconds": lambda v: LoudnessTrack(np.zeros(3), v),
    "LossWeights.alpha": lambda v: LossWeights(alpha=v),
    "LossWeights.beta": lambda v: LossWeights(beta=v),
    # the scalar arguments of the checked calls
    "refine_pitch.search_cents": lambda v: refine_pitch(X, TRACK, v),
    "pitch_jitter.search_cents": lambda v: pitch_jitter(X, TRACK, v),
    "interpolate_f0.sample_rate": lambda v: interpolate_f0(TRACK, v, 100),
    "mel_filterbank.fft_size": lambda v: mel_filterbank(8, v, FS),
    "mel_filterbank.f_min": lambda v: mel_filterbank(8, 128, FS, f_min=v),
    "mel_filterbank.f_max": lambda v: mel_filterbank(8, 128, FS, f_max=v),
    "mel_spectrogram.f_min": lambda v: mel_spectrogram(X, StftConfig(128, 128, 64), 8, f_min=v),
    "mel_spectrogram.f_max": lambda v: mel_spectrogram(X, StftConfig(128, 128, 64), 8, f_max=v),
    "hop_samples.hop_seconds": lambda v: hop_samples(v, FS),
    "hop_samples.sample_rate": lambda v: hop_samples(0.01, v),
    "estimate_coeffs_from_mel.floor_db": lambda v: estimate_coeffs_from_mel(MEL, 16, v),
    "uv_error_rate.energy_threshold_db": lambda v: uv_error_rate(X, TRACK, v),
    "harmonic_count.f0": lambda v: harmonic_count(v, FS),
    "harmonic_count.sample_rate": lambda v: harmonic_count(100.0, v),
    "combined_loss.l_dec": lambda v: combined_loss(v, 1.0, 1.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_returns_or_raises_a_harmex_error(call):
    escapes = []
    for value in DRAWN:
        try:
            call(value)
        except HarmexError:
            pass
        except Exception as exc:  # a warning is raised as one too
            escapes.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)


@pytest.mark.filterwarnings("error")
def test_check_array_categories():
    signaling_nan = np.array([0x7F800001], dtype="<u4").view("<f4")
    with pytest.raises(DomainError):  # converted without a warning, then rejected
        check_array("x", signaling_nan, 1)
    with pytest.raises(ConfigError):
        check_array("x", np.zeros((2, 2)), 1)
    with pytest.raises(ConfigError):
        check_array("x", ["a"], 1)
    with pytest.raises(FormatError):
        check_array("x", [-1.0], 1, minimum=0, error=FormatError)
    assert check_array("x", np.float32([1.5]), 1).dtype == np.float64


def test_check_integer_bounds_and_error():
    assert check_integer("n", 2.0**31 - 1, 1, 2**31 - 1) == 2**31 - 1
    for value in (2.0**31, 0, 1.5, math.nan, None, "a"):
        with pytest.raises(FormatError, match="whole number"):
            check_integer("n", value, 1, 2**31 - 1, error=FormatError)
