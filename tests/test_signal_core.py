import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmex import (
    AliasingError,
    ConfigError,
    DomainError,
    ExcitationConfig,
    F0Track,
    FormatError,
    LengthMismatchError,
    SampleF0,
    gaussian_noise,
    harmonic_count,
    interpolate_f0,
    read_f0_track,
    sine_excitation,
    write_f0_track,
)
from harmex.signal_core import frame_bounds
from conftest import FS, constant_track, make_excitation
from reference import interpolate_f0_loop, sine_excitation_loop


class TestInterpolateF0:
    def test_constant_track_constant_samples(self):
        sf = interpolate_f0(constant_track(100.0, 3), FS, 480)
        assert np.all(sf.values == 100.0)

    def test_linear_midpoint(self):
        track = F0Track(np.array([100.0, 200.0]))
        sf = interpolate_f0(track, FS, 240)
        assert sf.values[80] == pytest.approx(150.0)

    def test_all_unvoiced_gives_zeros(self):
        sf = interpolate_f0(F0Track(np.zeros(2)), FS, 320)
        assert np.all(sf.values == 0.0)

    def test_no_interpolation_across_voicing_boundary(self):
        # voiced frame 0-1 at 100/200 Hz, then unvoiced
        track = F0Track(np.array([100.0, 200.0, 0.0, 0.0]))
        sf = interpolate_f0(track, FS, 640)
        # samples mapped to the unvoiced frames are exactly zero
        assert np.all(sf.values[240:] == 0.0)
        # the voiced endpoint is held: samples past frame-1's center keep 200 Hz
        assert np.all(sf.values[160:240] == 200.0)

    def test_unvoiced_gap_splits_runs(self):
        track = F0Track(np.array([100.0, 0.0, 300.0]))
        sf = interpolate_f0(track, FS, 480)
        gap = sf.values[80:240]
        assert np.all(gap == 0.0)
        # no value between 100 and 300 appears (no glide through the gap)
        voiced = sf.values[sf.values > 0]
        assert set(np.unique(voiced)) <= {100.0, 300.0}

    def test_length_beyond_slack_rejected(self):
        with pytest.raises(LengthMismatchError):
            interpolate_f0(constant_track(100.0, 3), FS, 3 * 160 + 161)

    def test_length_within_slack_accepted(self):
        sf = interpolate_f0(constant_track(100.0, 3), FS, 3 * 160 + 160)
        assert len(sf) == 640

    def test_overflowing_hop_is_a_config_error(self):
        with pytest.raises(ConfigError, match="not finite in samples"):
            interpolate_f0(F0Track(np.full(3, 100.0), 1e308), FS, 10)

    def test_hop_below_one_sample_rejected(self):
        """A 0.16-sample hop is refused, as by the pitch metrics and the fit."""
        with pytest.raises(ConfigError, match="not at least one sample"):
            interpolate_f0(F0Track(np.full(1000, 200.0), 1e-5), FS, 10)

    def test_hop_is_checked_before_coverage(self):
        """100000 samples exceed the 33-frame track's coverage, but the hop is the fault."""
        with pytest.raises(ConfigError, match="not at least one sample") as raised:
            interpolate_f0(F0Track(np.full(33, 100.0), 1e-5), FS, 100000)
        assert not isinstance(raised.value, LengthMismatchError)

    def test_fractional_count_rejected(self):
        with pytest.raises(ConfigError):  # not rounded to 2 samples
            interpolate_f0(F0Track(np.full(3, 100.0)), FS, 2.5)


class TestInterpolateF0MatchesLoop:
    """One slice per voiced run against a full-length frame mask per run."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_frames=st.integers(0, 60),
        fs=st.sampled_from([8000.0, 16000.0, 22030.0, 22050.0, 44100.0]),
        hop=st.sampled_from(["160", "161", "220.5", "1/300 s", "0.6"]),
        voiced_frac=st.floats(0.0, 1.0),
        length_frac=st.floats(0.0, 1.0),
    )
    @example(seed=0, n_frames=50, fs=22050.0, hop="220.5", voiced_frac=0.7, length_frac=1.0)
    @example(seed=1, n_frames=40, fs=16000.0, hop="0.6", voiced_frac=0.5, length_frac=0.5)
    @example(seed=0, n_frames=20, fs=22050.0, hop="160", voiced_frac=0.0, length_frac=1.0)
    def test_bit_identical(self, seed, n_frames, fs, hop, voiced_frac, length_frac):
        rng = np.random.default_rng(seed)
        hop_seconds = 1 / 300 if hop == "1/300 s" else float(hop) / fs
        values = np.where(rng.random(n_frames) < voiced_frac, rng.uniform(60.0, 400.0, n_frames), 0.0)
        track = F0Track(values, hop_seconds)
        # grouped as interpolate_f0 groups it: for 20 frames of 160 samples at 22.05 kHz,
        # 21 * hop_seconds * fs is 3360.0000000000005, one sample past the coverage
        n = int(length_frac * math.ceil((n_frames + 1) * (hop_seconds * fs)))
        fast = interpolate_f0(track, fs, n).values
        assert np.array_equal(fast, interpolate_f0_loop(track, fs, n).values)


class TestFrameBounds:
    """Each bound from the frame count against the owner map of every sample."""

    @settings(max_examples=300, deadline=None)
    @given(
        n_frames=st.integers(0, 400),
        fs=st.sampled_from([8000.0, 11025.0, 16000.0, 22050.0, 44100.0, 48000.0]),
        hop_seconds=st.one_of(
            st.sampled_from([0.01, 220.5 / 22050.0, 1 / 300, 0.6 / 16000.0]),
            st.floats(1e-4, 0.05),
        ),
        length_frac=st.floats(0.0, 1.5),
    )
    @example(n_frames=20, fs=22050.0, hop_seconds=160 / 22050.0, length_frac=21 / 20)
    def test_same_bounds_as_the_owner_map(self, n_frames, fs, hop_seconds, length_frac):
        hop = hop_seconds * fs
        if round(hop) < 1:
            return
        n = int(length_frac * (n_frames + 1) * hop)
        owner = np.floor((np.arange(n) + hop / 2) / hop)
        want = np.searchsorted(owner, np.arange(n_frames + 1))
        track = F0Track(np.zeros(n_frames), hop_seconds)
        assert np.array_equal(frame_bounds(track, fs, n), want)


class TestHarmonicCount:
    @pytest.mark.parametrize(
        "f0,expected", [(100.0, 80), (4000.0, 2), (9000.0, 0), (200.0, 40)]
    )
    def test_known_values(self, f0, expected):
        assert harmonic_count(f0, FS) == expected

    def test_nonpositive_f0_rejected(self):
        with pytest.raises(DomainError):
            harmonic_count(0.0, FS)

    @given(f0=st.floats(1.0, 7999.0), fs=st.floats(8000.0, 48000.0))
    def test_no_harmonic_above_nyquist(self, f0, fs):
        k = harmonic_count(f0, fs)
        if k >= 1:
            assert k * f0 <= fs / 2 + 1e-9
        assert (k + 1) * f0 > fs / 2


class TestSineExcitation:
    def test_all_zero_f0_gives_silence(self):
        sf = interpolate_f0(F0Track(np.zeros(10)), FS, 1600)
        out = sine_excitation(sf)
        assert np.all(out.samples == 0.0)

    def test_two_harmonic_closed_form(self):
        # f0 = 4000 at 16 kHz: K = 2, base phase increment pi/2
        out = make_excitation(4000.0, 64, amplitude=0.1)
        n = np.arange(1, 65)
        phi1 = (np.pi / 2) * n
        expected = 0.1 * (np.sin(phi1 % (2 * np.pi)) + np.sin((2 * phi1) % (2 * np.pi)))
        np.testing.assert_allclose(out.samples, expected, atol=1e-12)

    def test_spectrum_peaks_on_harmonic_bins(self):
        # 1 s at 200 Hz: harmonics sit exactly on DFT bins of the full buffer
        out = make_excitation(200.0, FS, seed=7)
        spectrum = np.abs(np.fft.rfft(out.samples))
        harmonic_bins = np.arange(1, 41) * 200
        peak_mean = spectrum[harmonic_bins].mean()
        rest = np.ones(len(spectrum), dtype=bool)
        rest[harmonic_bins] = False
        assert spectrum[rest].max() < peak_mean * 10 ** (-40 / 20)

    def test_voicing_exactness(self):
        track = F0Track(np.concatenate([np.zeros(5), np.full(10, 220.0), np.zeros(5)]))
        sf = interpolate_f0(track, FS, 3200)
        out = sine_excitation(sf)
        assert np.all(out.samples[sf.values == 0] == 0.0)
        assert np.any(out.samples != 0.0)

    def test_amplitude_bound(self):
        out = make_excitation(100.0, FS, amplitude=0.1)
        assert np.max(np.abs(out.samples)) <= 0.1 * 80

    def test_phase_continuity_at_period_lag(self):
        out = make_excitation(200.0, FS).samples
        lag = round(FS / 200)
        r = out[:-lag] @ out[lag:] / (out @ out)
        assert r > 0.99

    def test_k_max_cap(self):
        capped = make_excitation(100.0, 1600, k_max_cap=1, amplitude=1.0)
        # one harmonic of 100 Hz: a pure sine, peak amplitude 1
        assert np.max(np.abs(capped.samples)) == pytest.approx(1.0, abs=1e-3)

    def test_whole_float_cap_becomes_int(self):
        assert ExcitationConfig(k_max_cap=5.0).k_max_cap == 5
        np.testing.assert_array_equal(
            make_excitation(100.0, 1600, k_max_cap=5.0).samples,
            make_excitation(100.0, 1600, k_max_cap=5).samples,
        )

    def test_aliasing_f0_rejected(self):
        sf = interpolate_f0(constant_track(7999.0, 4), FS, 640)
        bad = np.where(sf.values > 0, 8000.0, 0.0)
        with pytest.raises(AliasingError):
            sine_excitation(type(sf)(bad, FS))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f0, fs", [(1e-300, FS), (200.0, 1e300)], ids=["tiny_f0", "huge_rate"])
    def test_harmonic_count_beyond_2_31_rejected(self, f0, fs):
        """Once a cast to intp that warned and gave zeros; a cap below 2**31 admits the same f0."""
        with pytest.raises(ConfigError, match="harmonic count"):
            sine_excitation(SampleF0(np.full(4, f0), fs))
        capped = sine_excitation(SampleF0(np.full(4, f0), fs), ExcitationConfig(k_max_cap=3))
        assert np.isfinite(capped.samples).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude", [1e60 / 36, 1e59, 1e308])
    def test_amplitude_times_harmonics_at_the_sample_limit_rejected(self, amplitude):
        """36 harmonics of 220 Hz: the error names the amplitude, not the samples it would make."""
        with pytest.raises(DomainError, match=f"amplitude {amplitude!r}".replace("e+", "e")):
            make_excitation(220.0, 1600, amplitude=amplitude)

    def test_amplitude_below_the_sample_limit_synthesizes(self):
        """The bound counts the largest K of all voiced samples; a cap lowers it."""
        assert np.abs(make_excitation(220.0, 1600, amplitude=0.99e60 / 36).samples).max() < 1e60
        capped = make_excitation(220.0, 1600, amplitude=1e59, k_max_cap=9)
        assert np.abs(capped.samples).max() <= 9e59

    def test_determinism(self):
        a = make_excitation(150.0, 8000, seed=3)
        b = make_excitation(150.0, 8000, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_random_phase_differs_from_zero_phase(self):
        a = make_excitation(150.0, 8000)
        b = make_excitation(150.0, 8000, seed=3)
        assert not np.array_equal(a.samples, b.samples)


class TestGaussianNoise:
    def test_empty(self):
        assert len(gaussian_noise(0, FS, 7)) == 0

    def test_determinism(self):
        a = gaussian_noise(FS, FS, 7)
        b = gaussian_noise(FS, FS, 7)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_moments(self):
        x = gaussian_noise(100_000, FS, 7).samples
        assert abs(x.mean()) < 0.02
        assert 0.97 < x.var() < 1.03

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_noise(-1, FS, 0)

    def test_fractional_count_rejected(self):
        with pytest.raises(ConfigError):  # not rounded to 2 samples
            gaussian_noise(2.5, FS, 0)


class TestF0TrackFile:
    def test_round_trip(self, tmp_path):
        track = F0Track(np.array([0.0, 123.456, 250.0]))
        path = tmp_path / "f0.txt"
        write_f0_track(path, track)
        back = read_f0_track(path)
        np.testing.assert_allclose(back.values, track.values, atol=1e-6)
        assert back.hop_seconds == 0.010

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "f0.txt"
        path.write_text("\n100.0\n  \n\n200.0\n\n")
        np.testing.assert_array_equal(read_f0_track(path).values, [100.0, 200.0])

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("100.0\nnot-a-number\n")
        with pytest.raises(FormatError):
            read_f0_track(path)


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        f0=st.floats(60.0, 3000.0),
        amplitude=st.floats(0.01, 1.0),
        n=st.integers(100, 2000),
    )
    def test_amplitude_bound_property(self, f0, amplitude, n):
        out = make_excitation(f0, n, amplitude=amplitude)
        k = harmonic_count(f0, FS)
        assert np.max(np.abs(out.samples)) <= amplitude * k + 1e-9

    def test_track_rejects_negative_values(self):
        with pytest.raises(DomainError):
            F0Track(np.array([-1.0]))

    def test_track_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            F0Track(np.array([math.inf]))


@st.composite
def pitch_contours(draw):
    """Sample-level f0 in [20, 7999] Hz with vibrato, split into voiced runs."""
    runs = draw(st.lists(st.integers(1, 700), min_size=1, max_size=7))
    f0 = draw(st.floats(20.0, 7999.0))
    depth = draw(st.floats(0.0, 0.06))
    rate = draw(st.floats(0.5, 12.0))
    n = np.arange(sum(runs))
    values = np.minimum(f0 * (1.0 + depth * np.sin(2 * np.pi * rate * n / FS)), 7999.0)
    values = np.maximum(values, 20.0)
    for i, stop in enumerate(np.cumsum(runs)):
        if i % 2:  # every other run is unvoiced
            values[stop - runs[i] : stop] = 0.0
    return SampleF0(values, FS)


class TestSineExcitationMatchesHarmonicLoop:
    """The closed form, on every voiced sample, against the per-harmonic sum.

    Both round a sum of up to 400 terms, so near 20 Hz they sit up to about
    1e-12 apart at amplitude 0.1: over 2.4 million samples at 20-25 Hz, with
    vibrato and random phase, the worst distance was 9.2e-13 (9.1e-13 for
    the earlier form, which summed harmonic by harmonic where
    |sin(phi/2)| < 0.05).  At fs/7 and fs/700 the base phase returns to
    within a few ulps of 2*pi every 7 and 700 samples; without the fold into
    (-pi, pi] the fs/700 example (K = 350) is 3.5e-12 off, because sin(phi/2)
    next to pi loses its relative precision.  The examples are derandomized
    so that a run is reproducible.
    """

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        f0=pitch_contours(),
        cap=st.none() | st.integers(1, 450),
        seed=st.none() | st.integers(0, 2**32 - 1),
    )
    @example(f0=SampleF0(np.full(3000, 20.0), FS), cap=None, seed=None)
    @example(f0=SampleF0(np.full(64, 4000.0), FS), cap=None, seed=None)
    @example(f0=SampleF0(np.full(3000, FS / 7), FS), cap=None, seed=None)
    @example(f0=SampleF0(np.full(3000, FS / 700), FS), cap=None, seed=None)
    def test_matches_loop(self, f0, cap, seed):
        cfg = ExcitationConfig(amplitude=0.1, seed=seed, k_max_cap=cap)
        out = sine_excitation(f0, cfg).samples
        np.testing.assert_allclose(out, sine_excitation_loop(f0, cfg).samples, rtol=0, atol=1e-12)
        assert np.all(out[f0.values == 0] == 0.0)
