"""Conditioning inputs for the two GAN-vocoder generator families.

Channel stacking pairs harmonic signals with a noise channel at audio rate;
the scale pyramid decimates all channels down the generator's upsampling
ladder with anti-aliased windowed-sinc FIRs in place of a learned
downsampler, so conditioning tensors are reproducible without training.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, LengthMismatchError, check_array, check_count
from .errors import check_integer, check_positive, check_type
from .signal_core import AudioSignal, _check_signals
from .spectral import hann
from .tensor_io import write_feature_file

CHANNEL_ORDER = ("noise", "raw_excitation", "filtered_excitation")
DEFAULT_FACTORS = (8, 6, 5)


def _check_channels(channels) -> dict[str, np.ndarray]:
    """``channels`` as a non-empty dict of equal-length 1-D arrays of finite samples."""
    check_type("channels", channels, dict)
    if not channels:
        raise DomainError("need at least one channel")
    checked = {name: check_array(f"channel {name}", v, 1) for name, v in channels.items()}
    lengths = {len(v) for v in checked.values()}
    if len(lengths) != 1:
        raise LengthMismatchError(f"channel lengths differ: {sorted(lengths)}")
    return checked


@dataclass(frozen=True)
class ConditioningBundle:
    """Equal-length named channels of finite samples at one sample rate, in fixed order."""

    channels: dict[str, np.ndarray]
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "channels", _check_channels(self.channels))
        check_positive("sample_rate", self.sample_rate)

    @property
    def length(self) -> int:
        return len(next(iter(self.channels.values())))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.channels)


@dataclass(frozen=True)
class PyramidLevel:
    """The channels decimated by ``cumulative_factor`` from the base rate."""

    cumulative_factor: int
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        factor = check_integer("cumulative_factor", self.cumulative_factor, minimum=1)
        object.__setattr__(self, "cumulative_factor", factor)
        object.__setattr__(self, "channels", _check_channels(self.channels))


@dataclass(frozen=True)
class ScalePyramid:
    """The ``PyramidLevel``s of one bundle and the sample rate they were decimated from."""

    levels: tuple[PyramidLevel, ...]
    base_sample_rate: float

    def __post_init__(self):
        check_type("levels", self.levels, tuple)
        for level in self.levels:
            check_type("pyramid level", level, PyramidLevel)
        check_positive("base_sample_rate", self.base_sample_rate)


def stack_channels(
    noise: AudioSignal | None = None,
    raw_excitation: AudioSignal | None = None,
    filtered_excitation: AudioSignal | None = None,
) -> ConditioningBundle:
    """Stack the provided signals in the fixed channel order."""
    parts = zip(CHANNEL_ORDER, (noise, raw_excitation, filtered_excitation))
    present = {name: sig for name, sig in parts if sig is not None}
    if not present:
        raise DomainError("no channels provided")
    _, rate = _check_signals(**present)
    return ConditioningBundle({name: sig.samples for name, sig in present.items()}, rate)


def decimation_taps(factor: int) -> np.ndarray:
    """Hann-windowed sinc low-pass for decimation by ``factor``.

    Cutoff 0.45/factor of the incoming rate, 8*factor + 1 taps, normalized
    to unit DC gain.  In terms of the output rate ``fs_in / factor``: at
    most 0.5 dB is lost up to 0.3 x the output rate, and the response is
    -6 dB at the 0.45 x output-rate cutoff.  ``_decimate`` pads with an odd
    reflection about each end sample, so constants and linear ramps decimate
    exactly and out-of-band tones leave only a small edge transient.
    """
    factor = check_integer("factor", factor, minimum=1)
    if factor == 1:
        return np.ones(1)
    n_taps = check_count("decimation taps", 8 * factor + 1)
    m = np.arange(n_taps) - (n_taps - 1) / 2
    cutoff = 0.45 / factor
    taps = 2 * cutoff * np.sinc(2 * cutoff * m) * hann(n_taps, periodic=False)
    return taps / taps.sum()


def _decimate(x: np.ndarray, factor: int) -> np.ndarray:
    m = len(x) // factor  # only the kept outputs are computed
    if factor == 1 or m == 0:  # no taps for a level that keeps no sample
        return x[:m].copy()
    taps = decimation_taps(factor)
    half = len(taps) // 2
    # exact for ramps: odd reflection continues them, and the taps are symmetric
    padded = np.pad(x, (half, half), mode="reflect", reflect_type="odd")
    return sliding_window_view(padded, len(taps))[: m * factor : factor] @ taps[::-1]


def downsample_multiscale(
    bundle: ConditioningBundle, factors: tuple[int, ...] = DEFAULT_FACTORS
) -> ScalePyramid:
    """Successively decimate every channel by each factor in turn."""
    check_type("bundle", bundle, ConditioningBundle)
    check_type("factors", factors, Sequence)
    factors = tuple(check_integer("factor", f, minimum=1) for f in factors)
    check_count("decimation taps", 8 * max(factors, default=1) + 1)  # before any level is made

    levels = []
    current = dict(bundle.channels)
    cumulative = 1
    for factor in factors:
        cumulative *= factor
        current = {name: _decimate(sig, factor) for name, sig in current.items()}
        levels.append(PyramidLevel(cumulative, current))
    return ScalePyramid(tuple(levels), bundle.sample_rate)


def export_conditioning(pyramid: ScalePyramid, path_prefix) -> list[str]:
    """Write feature-tensor files, one per scale, suffixed ``_x{cumulative factor}``.

    Factors ``(1,)`` give the single audio-rate file ``_x1``.  Channels
    become dims in bundle order; returns the written paths.
    """
    check_type("pyramid", pyramid, ScalePyramid)
    if not isinstance(path_prefix, (str, os.PathLike)):  # any object would format into a name
        raise ConfigError(f"path_prefix must be str or PathLike, got {type(path_prefix).__name__}")
    written = []
    for level in pyramid.levels:
        data = np.stack(list(level.channels.values()), axis=1)
        path = f"{path_prefix}_x{level.cumulative_factor}.hmx"
        write_feature_file(path, data, level.cumulative_factor / pyramid.base_sample_rate)
        written.append(path)
    return written
