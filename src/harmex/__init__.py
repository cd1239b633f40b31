"""harmex: harmonic excitation synthesis and time-varying filtering tools."""

from .conditioning import (
    ConditioningBundle,
    ScalePyramid,
    downsample_multiscale,
    export_conditioning,
    stack_channels,
)
from .errors import (
    AliasingError,
    ConfigError,
    DegenerateReferenceError,
    DomainError,
    FormatError,
    HarmexError,
    LengthMismatchError,
    UndefinedMetricError,
)
from .ltv import (
    FitConfig,
    LtvFirCoeffs,
    apply_ltv,
    estimate_coeffs_from_mel,
    fit_coeffs_least_squares,
    minimum_phase_fir,
    read_coeffs,
    write_coeffs,
)
from .metrics import (
    LossWeights,
    MrStftConfig,
    MrStftLoss,
    combined_loss,
    mel_mae,
    mr_stft_loss,
    pitch_jitter,
    refine_pitch,
    uv_error_rate,
)
from .signal_core import (
    AudioSignal,
    ExcitationConfig,
    F0Track,
    PhaseInit,
    SampleF0,
    gaussian_noise,
    harmonic_count,
    interpolate_f0,
    read_f0_track,
    sine_excitation,
    write_f0_track,
)
from .spectral import (
    LoudnessTrack,
    MelSpectrogram,
    StftConfig,
    loudness,
    mel_spectrogram,
    stft_magnitude,
)
from .tensor_io import read_feature_file, write_feature_file
from .wav_io import WavEncoding, read_wav, write_wav

__version__ = "0.1.0"
