"""Admission: any scalar given to a record, a config or a checked call ends
in a return or a categorized ``HarmexError``, never in another exception or
a warning.

Each case fills one field or argument with one drawn value and keeps the
rest at small valid inputs.  Array fields get the value in an array of the
shape they need.  No drawn value is a count that would allocate: counts
reach their bounds checks before any array has that length.  The cases run
in a temporary working directory, where a valid path prefix such as ``"a"``
may write its files.
"""

import math
import os

import numpy as np
import pytest

from harmex import (
    AudioSignal,
    ConditioningBundle,
    ConfigError,
    DomainError,
    ExcitationConfig,
    F0Track,
    FitConfig,
    FormatError,
    HarmexError,
    LengthMismatchError,
    LtvFirCoeffs,
    MelSpectrogram,
    MrStftConfig,
    SampleF0,
    ScalePyramid,
    StftConfig,
    apply_ltv,
    combined_loss,
    downsample_multiscale,
    estimate_coeffs_from_mel,
    export_conditioning,
    fit_coeffs_least_squares,
    gaussian_noise,
    harmonic_count,
    interpolate_f0,
    loudness,
    mel_mae,
    mel_spectrogram,
    mr_stft_loss,
    pitch_jitter,
    refine_pitch,
    sine_excitation,
    stack_channels,
    stft_magnitude,
    uv_error_rate,
    write_coeffs,
    write_f0_track,
    write_wav,
)
from harmex.conditioning import PyramidLevel
from harmex.errors import check_array, check_count, check_integer
from harmex.signal_core import hop_samples
from harmex.spectral import MEL_RANGE, _mel_bins
from harmex.tensor_io import write_mel_file
from conftest import FS, make_excitation

DRAWN = [0, -1, 2.5, 1e-300, 1e308, math.inf, -math.inf, math.nan, True, None, "a"]

X = make_excitation(200.0, 1600)
TRACK = F0Track(np.full(10, 200.0))
MEL = MelSpectrogram(np.zeros((4, 8)), StftConfig(128, 128, 64), FS)
H = LtvFirCoeffs(np.ones((11, 4)), 0.01, FS)
SAMPLE_F0 = SampleF0(np.full(1600, 200.0), FS)
BUNDLE = ConditioningBundle({"noise": X.samples}, FS)
PYRAMID = downsample_multiscale(BUNDLE, (1,))
NEVER = os.path.join(os.devnull, "never")  # no file can be made there

# the record arguments of the LTV entry points
LTV_RECORDS = {
    "fit_coeffs_least_squares.excitation": lambda v: fit_coeffs_least_squares(v, X),
    "fit_coeffs_least_squares.target": lambda v: fit_coeffs_least_squares(X, v),
    "fit_coeffs_least_squares.cfg": lambda v: fit_coeffs_least_squares(X, X, v),
    "apply_ltv.x": lambda v: apply_ltv(v, H),
    "apply_ltv.h": lambda v: apply_ltv(X, v),
}

# the record arguments of the analysis entry points
ANALYSIS_RECORDS = {
    "stft_magnitude.x": lambda v: stft_magnitude(v),
    "stft_magnitude.cfg": lambda v: stft_magnitude(X, v),
    "mel_spectrogram.x": lambda v: mel_spectrogram(v),
    "mel_spectrogram.cfg": lambda v: mel_spectrogram(X, v),
    "loudness.x": lambda v: loudness(v),
    "mr_stft_loss.x": lambda v: mr_stft_loss(v, X),
    "mr_stft_loss.y": lambda v: mr_stft_loss(X, v),
    "mr_stft_loss.cfg": lambda v: mr_stft_loss(X, X, v),
    "mel_mae.x_mel": lambda v: mel_mae(v, MEL),
    "mel_mae.y_mel": lambda v: mel_mae(MEL, v),
    "refine_pitch.x": lambda v: refine_pitch(v, TRACK),
    "refine_pitch.ref_f0": lambda v: refine_pitch(X, v),
    "uv_error_rate.x": lambda v: uv_error_rate(v, TRACK),
    "uv_error_rate.ref_f0": lambda v: uv_error_rate(X, v),
}

# the record arguments of the synthesis, writer and conditioning entry points
PIPELINE_RECORDS = {
    "sine_excitation.f0": lambda v: sine_excitation(v),
    "sine_excitation.cfg": lambda v: sine_excitation(SAMPLE_F0, v),
    "interpolate_f0.track": lambda v: interpolate_f0(v, FS, 100),
    "estimate_coeffs_from_mel.mel": lambda v: estimate_coeffs_from_mel(v),
    "write_coeffs.h": lambda v: write_coeffs(NEVER, v),
    "write_mel_file.mel": lambda v: write_mel_file(NEVER, v),
    "write_wav.x": lambda v: write_wav(NEVER, v),
    "write_f0_track.track": lambda v: write_f0_track(NEVER, v),
    "stack_channels.noise": lambda v: stack_channels(noise=v),
    "stack_channels.raw_excitation": lambda v: stack_channels(X, raw_excitation=v),
    "stack_channels.filtered_excitation": lambda v: stack_channels(X, filtered_excitation=v),
    "downsample_multiscale.bundle": lambda v: downsample_multiscale(v),
    "export_conditioning.pyramid": lambda v: export_conditioning(v, NEVER),
}

CASES = {
    # the record and config constructors
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
    "MelSpectrogram.f_min": lambda v: MelSpectrogram(np.zeros((4, 8)), StftConfig(), FS, (v, 8e3)),
    "MelSpectrogram.f_max": lambda v: MelSpectrogram(np.zeros((4, 8)), StftConfig(), FS, (0.0, v)),
    "MrStftConfig.resolutions": lambda v: MrStftConfig(v),
    "MrStftConfig.resolutions[0]": lambda v: MrStftConfig([v]),
    "ConditioningBundle.channels": lambda v: ConditioningBundle({"noise": np.full(3, v)}, FS),
    "ConditioningBundle.sample_rate": lambda v: ConditioningBundle({"noise": np.zeros(3)}, v),
    "PyramidLevel.cumulative_factor": lambda v: PyramidLevel(v, {"noise": np.zeros(3)}),
    "PyramidLevel.channels": lambda v: PyramidLevel(8, v),
    "PyramidLevel.channels[noise]": lambda v: PyramidLevel(8, {"noise": np.full(3, v)}),
    "ScalePyramid.levels": lambda v: ScalePyramid(v, FS),
    "ScalePyramid.levels[0]": lambda v: ScalePyramid((v,), FS),
    "ScalePyramid.base_sample_rate": lambda v: ScalePyramid((), v),
    # the scalar arguments of the checked calls
    "refine_pitch.search_cents": lambda v: refine_pitch(X, TRACK, v),
    "pitch_jitter.search_cents": lambda v: pitch_jitter(X, TRACK, v),
    "interpolate_f0.sample_rate": lambda v: interpolate_f0(TRACK, v, 100),
    "_mel_bins.n_mels": lambda v: _mel_bins(v, 128, FS, *MEL_RANGE),
    "_mel_bins.fft_size": lambda v: _mel_bins(8, v, FS, *MEL_RANGE),
    "_mel_bins.sample_rate": lambda v: _mel_bins(8, 128, v, *MEL_RANGE),
    "_mel_bins.f_min": lambda v: _mel_bins(8, 128, FS, v, MEL_RANGE[1]),
    "_mel_bins.f_max": lambda v: _mel_bins(8, 128, FS, MEL_RANGE[0], v),
    "mel_spectrogram.f_min": lambda v: mel_spectrogram(X, StftConfig(128, 128, 64), 8, f_min=v),
    "mel_spectrogram.f_max": lambda v: mel_spectrogram(X, StftConfig(128, 128, 64), 8, f_max=v),
    "hop_samples.hop_seconds": lambda v: hop_samples(v, FS),
    "hop_samples.sample_rate": lambda v: hop_samples(0.01, v),
    "estimate_coeffs_from_mel.floor_db": lambda v: estimate_coeffs_from_mel(MEL, 16, v),
    "uv_error_rate.energy_threshold_db": lambda v: uv_error_rate(X, TRACK, v),
    "harmonic_count.f0": lambda v: harmonic_count(v, FS),
    "harmonic_count.sample_rate": lambda v: harmonic_count(100.0, v),
    "combined_loss.l_dec": lambda v: combined_loss(v, 1.0, 1.0),
    "combined_loss.alpha": lambda v: combined_loss(1.0, 1.0, 1.0, alpha=v),
    "combined_loss.beta": lambda v: combined_loss(1.0, 1.0, 1.0, beta=v),
    "downsample_multiscale.factors": lambda v: downsample_multiscale(BUNDLE, v),
    "downsample_multiscale.factors[0]": lambda v: downsample_multiscale(BUNDLE, (v,)),
    "interpolate_f0.n_samples": lambda v: interpolate_f0(TRACK, FS, v),
    "gaussian_noise.n_samples": lambda v: gaussian_noise(v, FS, 0),
    "gaussian_noise.seed": lambda v: gaussian_noise(10, FS, v),
    "sine_excitation.f0.values": lambda v: sine_excitation(SampleF0(np.full(4, v), FS)),
    "sine_excitation.f0.sample_rate": lambda v: sine_excitation(SampleF0(np.full(4, 200.0), v)),
    "export_conditioning.path_prefix": lambda v: export_conditioning(PYRAMID, v),
    "estimate_coeffs_from_mel.n_taps": lambda v: estimate_coeffs_from_mel(MEL, v),
    "mel_spectrogram.n_mels": lambda v: mel_spectrogram(X, StftConfig(128, 128, 64), v),
    "write_wav.encoding": lambda v: write_wav(NEVER, X, v),
    # a sample whose square overflows: refused as a non-finite feature, not warned about
    "loudness.samples": lambda v: loudness(AudioSignal(np.full(320, v), FS)),
    "mel_spectrogram.samples": lambda v: mel_spectrogram(AudioSignal(np.full(320, v), FS)),
    **LTV_RECORDS,
    **ANALYSIS_RECORDS,
    **PIPELINE_RECORDS,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_returns_or_raises_a_harmex_error(call, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    escapes = []
    for value in DRAWN:
        try:
            call(value)
        except HarmexError:
            pass
        except Exception as exc:  # a warning is raised as one too
            escapes.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)


@pytest.mark.parametrize("call", LTV_RECORDS.values(), ids=LTV_RECORDS.keys())
@pytest.mark.parametrize(
    "value", [X.samples, H.taps, "cfg", {"n_taps": 8}, StftConfig(), TRACK],
    ids=["samples", "taps", "string", "mapping", "stft_config", "f0_track"],
)
def test_ltv_entry_points_take_only_their_records(call, value):
    """An array, a string, a mapping or another record where a record belongs is a ConfigError."""
    with pytest.raises(ConfigError, match="must be"):
        call(value)


@pytest.mark.parametrize("call", ANALYSIS_RECORDS.values(), ids=ANALYSIS_RECORDS.keys())
@pytest.mark.parametrize(
    "value", [X.samples, "x", {"hop": 160}, H],
    ids=["samples", "string", "mapping", "ltv_coeffs"],
)
def test_analysis_entry_points_take_only_their_records(call, value):
    """An array, a string, a mapping or another record where a record belongs is a ConfigError."""
    with pytest.raises(ConfigError, match="must be"):
        call(value)


@pytest.mark.parametrize("weight", ["alpha", "beta"])
@pytest.mark.parametrize(
    "value", [X.samples, "x", {"alpha": 200.0}, H],
    ids=["samples", "string", "mapping", "ltv_coeffs"],
)
def test_combined_loss_weights_take_only_numbers(weight, value):
    """An array, a string, a mapping or a record where a loss weight belongs is a DomainError."""
    with pytest.raises(DomainError, match=f"{weight} must be finite"):
        combined_loss(1.0, 1.0, 1.0, **{weight: value})


@pytest.mark.parametrize("call", PIPELINE_RECORDS.values(), ids=PIPELINE_RECORDS.keys())
@pytest.mark.parametrize(
    "value", [X.samples, "x", {"hop": 160}, StftConfig()],
    ids=["samples", "string", "mapping", "stft_config"],
)
def test_pipeline_entry_points_take_only_their_records(call, value):
    """An array, a string, a mapping or another record where a record belongs is a ConfigError."""
    with pytest.raises(ConfigError, match="must be"):
        call(value)


# the entry points that take two or more signals used together
SIGNAL_PAIRS = {
    "fit_coeffs_least_squares": fit_coeffs_least_squares,
    "mr_stft_loss": mr_stft_loss,
    "stack_channels": stack_channels,
}


# the records that hold a hop in seconds
HOPS = {
    "F0Track": lambda hop: F0Track(np.zeros(3), hop),
    "FitConfig": lambda hop: FitConfig(frame_hop_seconds=hop),
    "LtvFirCoeffs": lambda hop: LtvFirCoeffs(np.ones((101, 4)), hop, FS),
}


@pytest.mark.parametrize("make", HOPS.values(), ids=HOPS.keys())
def test_a_numeric_string_is_not_a_hop(make):
    """A record keeps the hop it is given, so a string that reads as one is refused, not stored."""
    with pytest.raises(ConfigError, match="hop_seconds must be finite"):
        make("0.01")


@pytest.mark.parametrize("call", SIGNAL_PAIRS.values(), ids=SIGNAL_PAIRS.keys())
@pytest.mark.parametrize(
    "other, error, message",
    [
        (AudioSignal(X.samples, 2 * FS), ConfigError, "sample-rate mismatch"),
        (AudioSignal(X.samples[:-1], FS), LengthMismatchError, "length mismatch"),
    ],
    ids=["rate", "length"],
)
def test_signals_used_together_share_one_rate_and_length(call, other, error, message):
    with pytest.raises(error, match=message) as caught:
        call(X, other)
    assert caught.type is error  # a rate mismatch is not a LengthMismatchError


@pytest.mark.parametrize(
    "resolutions",
    [[(512, 240, 50)], "abc", None, [], (StftConfig(), "a"), {StftConfig(): 1}],
    ids=["tuple_not_config", "string", "none", "empty", "one_not_config", "mapping"],
)
def test_mr_stft_config_takes_only_stft_configs(resolutions):
    with pytest.raises(ConfigError, match="non-empty sequence of StftConfig"):
        MrStftConfig(resolutions)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ScalePyramid((PyramidLevel("x", {"a": np.ones(3)}),), 16000.0),
        lambda: ScalePyramid((PyramidLevel(8, {"a": np.ones(3)}),), "16000"),
        lambda: ScalePyramid((PyramidLevel(8, {"a": np.ones(3), "b": np.ones(2)}),), 16000.0),
    ],
    ids=["string_factor", "string_rate", "unequal_channels"],
)
def test_hand_made_pyramid_is_refused_before_export(tmp_path, make):
    with pytest.raises(HarmexError):
        export_conditioning(make(), tmp_path / "cond")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("prefix", [None, math.nan, 0, b"cond", ["cond"]])
def test_export_takes_only_a_path_prefix(tmp_path, monkeypatch, prefix):
    """Any other object would be formatted into the file names, ``None_x1.hmx`` and the like."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="path_prefix must be str or PathLike"):
        export_conditioning(PYRAMID, prefix)
    assert not list(tmp_path.iterdir())
    assert export_conditioning(PYRAMID, tmp_path / "cond") == [f"{tmp_path / 'cond'}_x1.hmx"]


def test_mr_stft_config_stores_a_tuple():
    resolutions = [StftConfig(512, 240, 50), StftConfig()]
    assert MrStftConfig(resolutions).resolutions == tuple(resolutions)


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


def test_check_count_checks_the_rounded_value():
    """A value in [2**31 - 0.5, 2**31) rounds to 2**31; it was admitted as that count."""
    assert check_count("n", 2**31 - 0.6) == 2**31 - 1
    for value in (2**31 - 0.5, 2**31 - 0.3, 2.0**31, -0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="round into"):
            check_count("n", value)
    with pytest.raises(ConfigError):
        hop_samples(2**31 - 0.3, 1.0)


def test_check_integer_bounds_and_error():
    assert check_integer("n", 2.0**31 - 1, 1, 2**31 - 1) == 2**31 - 1
    for value in (2.0**31, 0, 1.5, math.nan, None, "a"):
        with pytest.raises(FormatError, match="whole number"):
            check_integer("n", value, 1, 2**31 - 1, error=FormatError)
