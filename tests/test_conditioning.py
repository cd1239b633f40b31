import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmex import (
    AudioSignal,
    ConditioningBundle,
    ConfigError,
    DomainError,
    downsample_multiscale,
    export_conditioning,
    gaussian_noise,
    read_feature_file,
    stack_channels,
)
from harmex.conditioning import _decimate, decimation_taps
from conftest import FS
from reference import decimate_full_rate


def tone(freq, n, amp=0.5):
    t = np.arange(n) / FS
    return AudioSignal(amp * np.sin(2 * np.pi * freq * t), FS)


class TestStackChannels:
    def test_two_channel_order(self):
        noise = gaussian_noise(160, FS, 0)
        raw = tone(100.0, 160)
        bundle = stack_channels(noise=noise, raw_excitation=raw)
        assert bundle.names == ("noise", "raw_excitation")
        assert [len(c) for c in bundle.channels.values()] == [160, 160]

    def test_single_channel(self):
        bundle = stack_channels(raw_excitation=tone(100.0, 160))
        assert [len(c) for c in bundle.channels.values()] == [160]

    def test_order_is_fixed_regardless_of_argument_order(self):
        raw = tone(100.0, 160)
        filt = tone(200.0, 160)
        noise = gaussian_noise(160, FS, 0)
        bundle = stack_channels(filtered_excitation=filt, noise=noise, raw_excitation=raw)
        assert bundle.names == ("noise", "raw_excitation", "filtered_excitation")

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            stack_channels()

    def test_bundle_rejects_a_bad_rate_or_channel(self):
        with pytest.raises(ConfigError, match="sample_rate"):
            ConditioningBundle({"noise": np.ones(4800)}, -16000.0)
        with pytest.raises(DomainError, match="finite"):
            ConditioningBundle({"noise": np.array([0.0, np.nan])}, FS)
        with pytest.raises(ConfigError, match="1-D"):
            ConditioningBundle({"noise": np.ones((2, 2))}, FS)
        with pytest.raises(DomainError, match="at least one channel"):
            ConditioningBundle({}, FS)


class TestDecimationTaps:
    def test_unit_dc_gain(self):
        for factor in (2, 5, 6, 8):
            taps = decimation_taps(factor)
            assert len(taps) == 8 * factor + 1
            assert taps.sum() == pytest.approx(1.0, abs=1e-12)

    def test_factor_one_is_identity(self):
        np.testing.assert_array_equal(decimation_taps(1), [1.0])

    def test_bad_factor_rejected(self):
        for factor in (0, 2.5, float("nan"), 10**15):  # 10**15: 8e15 taps, checked first
            with pytest.raises(ConfigError):
                decimation_taps(factor)


class TestDownsampleMultiscale:
    def test_level_that_keeps_no_sample_builds_no_taps(self):
        """1 s at factor 10**6 keeps no sample; its 8e6 taps once took a 305 MiB peak."""
        bundle = stack_channels(raw_excitation=AudioSignal(np.ones(FS), FS))
        tracemalloc.start()
        try:
            pyramid = downsample_multiscale(bundle, (10**6, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(level.channels["raw_excitation"]) for level in pyramid.levels] == [0, 0]
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB"

    def test_taps_counted_for_every_level(self):
        """A factor whose taps pass 2**31 is refused even where its level would keep no sample."""
        bundle = stack_channels(raw_excitation=AudioSignal(np.ones(100), FS))
        with pytest.raises(ConfigError, match="decimation taps"):
            downsample_multiscale(bundle, (200, 10**15))

    def test_dc_preserved(self):
        bundle = stack_channels(raw_excitation=AudioSignal(np.full(4800, 0.37), FS))
        pyramid = downsample_multiscale(bundle)
        for level in pyramid.levels:
            np.testing.assert_allclose(level.channels["raw_excitation"], 0.37, atol=1e-9)

    def test_linear_ramp_decimates_exactly(self):
        # a straight line through both ends must not bend at the edges
        ramp = np.linspace(-1.0, 1.0, 4801)
        pyramid = downsample_multiscale(stack_channels(noise=AudioSignal(ramp, FS)))
        for level in pyramid.levels:
            c = level.cumulative_factor
            expected = ramp[::c][: len(ramp) // c]
            np.testing.assert_allclose(level.channels["noise"], expected, rtol=0, atol=1e-12)

    def test_floor_chain_lengths(self):
        bundle = stack_channels(raw_excitation=AudioSignal(np.zeros(4800), FS))
        pyramid = downsample_multiscale(bundle, (8, 6, 5))
        assert [len(l.channels["raw_excitation"]) for l in pyramid.levels] == [600, 100, 20]
        assert [l.cumulative_factor for l in pyramid.levels] == [8, 48, 240]

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(10, 5000),
        factors=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    )
    def test_length_arithmetic_property(self, n, factors):
        bundle = stack_channels(raw_excitation=AudioSignal(np.zeros(n), FS))
        pyramid = downsample_multiscale(bundle, tuple(factors))
        length = n
        for level, factor in zip(pyramid.levels, factors):
            length = length // factor
            assert len(level.channels["raw_excitation"]) == length

    def test_low_tone_survives_all_levels(self):
        # 10 Hz is below the Nyquist of every level (final rate 66.7 Hz)
        bundle = stack_channels(raw_excitation=tone(10.0, FS * 4))
        pyramid = downsample_multiscale(bundle)
        for level in pyramid.levels:
            sig = level.channels["raw_excitation"]
            window = np.hanning(len(sig))
            spectrum = np.abs(np.fft.rfft(sig * window))
            amp = 2 * spectrum.max() / window.sum()
            assert abs(20 * np.log10(amp / 0.5)) < 0.5

    def test_linearity_on_superposed_tones(self):
        a = tone(10.0, 4800).samples
        b = tone(20.0, 4800, amp=0.3).samples
        both = stack_channels(raw_excitation=AudioSignal(a + b, FS))
        sep_a = stack_channels(raw_excitation=AudioSignal(a, FS))
        sep_b = stack_channels(raw_excitation=AudioSignal(b, FS))
        p_both = downsample_multiscale(both)
        p_a = downsample_multiscale(sep_a)
        p_b = downsample_multiscale(sep_b)
        for lb, la, lbb in zip(p_both.levels, p_a.levels, p_b.levels):
            np.testing.assert_allclose(
                lb.channels["raw_excitation"],
                la.channels["raw_excitation"] + lbb.channels["raw_excitation"],
                atol=1e-12,
            )

    def test_zero_factor_rejected(self):
        bundle = stack_channels(raw_excitation=AudioSignal(np.zeros(100), FS))
        with pytest.raises(ConfigError):
            downsample_multiscale(bundle, (0,))

    @pytest.mark.parametrize("factor", [2.5, float("nan"), float("inf"), "8"])
    def test_non_integral_factor_rejected(self, factor):
        bundle = stack_channels(raw_excitation=AudioSignal(np.zeros(100), FS))
        with pytest.raises(ConfigError, match="whole number"):
            downsample_multiscale(bundle, (factor,))

    def test_whole_float_factor_accepted(self):
        bundle = stack_channels(raw_excitation=tone(10.0, 4800))
        as_float = downsample_multiscale(bundle, (8.0, 6.0))
        as_int = downsample_multiscale(bundle, (8, 6))
        for lf, li in zip(as_float.levels, as_int.levels):
            assert lf.cumulative_factor == li.cumulative_factor
            np.testing.assert_array_equal(lf.channels["raw_excitation"], li.channels["raw_excitation"])


@pytest.mark.parametrize("factor", range(2, 11))
def test_decimate_matches_full_rate_convolution(factor):
    """Only the kept outputs, against ``np.convolve`` at the full rate; lengths 0 to 3 filters."""
    rng = np.random.default_rng(factor)
    for n in range(3 * (8 * factor + 1) + 1):
        x = rng.normal(size=n)
        got, want = _decimate(x, factor), decimate_full_rate(x, factor)
        assert got.shape == want.shape == (n // factor,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestExportConditioning:
    def test_bundle_round_trip(self, tmp_path):
        noise = gaussian_noise(160, FS, 1)
        raw = tone(100.0, 160)
        bundle = stack_channels(noise=noise, raw_excitation=raw)
        paths = export_conditioning(downsample_multiscale(bundle, (1,)), tmp_path / "cond")
        assert len(paths) == 1 and paths[0].endswith("_x1.hmx")
        data, hop = read_feature_file(paths[0])
        assert data.shape == (160, 2)
        columns = np.stack([noise.samples, raw.samples], axis=1)
        np.testing.assert_array_equal(data, columns.astype(np.float32))
        assert hop == pytest.approx(1.0 / FS)

    def test_pyramid_files_and_suffixes(self, tmp_path):
        bundle = stack_channels(raw_excitation=tone(10.0, 4800))
        pyramid = downsample_multiscale(bundle)
        paths = export_conditioning(pyramid, tmp_path / "cond")
        assert [p.rsplit("_", 1)[1] for p in paths] == ["x8.hmx", "x48.hmx", "x240.hmx"]
        for path, level in zip(paths, pyramid.levels):
            data, hop = read_feature_file(path)
            np.testing.assert_array_equal(
                data[:, 0], level.channels["raw_excitation"].astype(np.float32)
            )
            assert hop == pytest.approx(level.cumulative_factor / FS)

    def test_reexport_is_deterministic(self, tmp_path):
        bundle = stack_channels(noise=gaussian_noise(4800, FS, 5))
        pyramid = downsample_multiscale(bundle)
        a = export_conditioning(pyramid, tmp_path / "a")
        b = export_conditioning(pyramid, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()
