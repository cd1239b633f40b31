import itertools
import math

import numpy as np
import pytest
from scipy.signal import get_window

from harmex import (
    AudioSignal,
    ConfigError,
    DomainError,
    StftConfig,
    gaussian_noise,
    loudness,
    mel_filterbank,
    mel_spectrogram,
    stft_magnitude,
)
from harmex.spectral import MEL_FLOOR, frame_centers, hann, hop_samples, n_frames_for
from conftest import FS


def sine(freq, n, amp=0.5, fs=FS):
    t = np.arange(n) / fs
    return AudioSignal(amp * np.sin(2 * np.pi * freq * t), fs)


@pytest.mark.parametrize("periodic", [True, False])
def test_hann_equals_scipy_bit_for_bit(periodic):
    for m in range(1, 2500):
        want = get_window("hann", m, fftbins=periodic)
        np.testing.assert_array_equal(hann(m, periodic), want, err_msg=f"M={m}")


@pytest.mark.parametrize("fs, centers", [(FS, [0, 160, 320, 480]), (22050, [0, 221, 441, 662])])
def test_frame_centers_round_ties_up(fs, centers):
    """10 ms is 160 samples at 16 kHz and 220.5 at 22.05 kHz."""
    np.testing.assert_array_equal(frame_centers(4, 0.010, fs), centers)


class TestHopSamples:
    def test_overflowing_hop_is_named_non_finite(self):
        with pytest.raises(ConfigError, match="not finite in samples"):
            hop_samples(1e308, FS)

    @pytest.mark.parametrize("hop_seconds", [1e-5, -0.01, 0.0])
    def test_hop_below_one_sample_keeps_its_message(self, hop_seconds):
        with pytest.raises(ConfigError, match="is not at least one sample"):
            hop_samples(hop_seconds, FS)


class TestStftMagnitude:
    def test_zeros_give_zero_magnitudes(self):
        mag = stft_magnitude(AudioSignal(np.zeros(FS)))
        assert np.all(mag == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            stft_magnitude(AudioSignal(np.zeros(0)))

    def test_frame_count_contract(self):
        for n in (100, 159, 160, 161, 16000):
            mag = stft_magnitude(AudioSignal(np.ones(n) * 0.1))
            assert mag.shape == (math.ceil(n / 160), 513)

    def test_bin_centered_sine_argmax(self):
        cfg = StftConfig()
        k = 40
        x = sine(k * FS / cfg.fft_size, FS)
        mag = stft_magnitude(x, cfg)
        interior = mag[5:-5]
        assert np.all(np.argmax(interior, axis=1) == k)

    def test_parseval_with_quarter_hop(self):
        cfg = StftConfig(fft_size=512, win_size=512, hop_size=128)
        x = gaussian_noise(160_000, FS, 3)
        mag = stft_magnitude(x, cfg)
        # reassemble two-sided spectrum energy from the one-sided magnitudes
        energy = (mag[:, 0] ** 2 + mag[:, -1] ** 2 + 2 * (mag[:, 1:-1] ** 2).sum(axis=1)).sum()
        window = get_window("hann", 512, fftbins=True)
        expected = 512 * (window**2).sum() / 128 * np.sum(x.samples**2)
        assert energy == pytest.approx(expected, rel=0.01)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            StftConfig(fft_size=256, win_size=512, hop_size=128)


class TestMelFilterbank:
    def test_shape_and_peak_normalization(self):
        fbank = mel_filterbank(80, 1024, FS)
        assert fbank.shape == (80, 513)
        assert fbank.max() <= 1.0 + 1e-12
        assert np.all(fbank.max(axis=1) > 0.5)

    def test_coverage_inside_band(self):
        fbank = mel_filterbank(80, 1024, FS, 0.0, 8000.0)
        freqs = np.arange(513) * FS / 1024
        inside = (freqs > 0.0) & (freqs < 8000.0)
        assert np.all(fbank.sum(axis=0)[inside] > 0)

    @pytest.mark.parametrize("fs", [8000, 16000, 22050, 44100])
    def test_covered_bins_form_one_run(self, fs):
        """``ltv._fill_uncovered`` holds the ends of this run and relies on no gap inside it."""
        settings = itertools.product(
            (64, 256, 1024, 2048), (1, 8, 40, 80, 128), (0.0, 50.0, 300.0), (3000.0, 7000.0, fs / 2)
        )
        built = 0
        for fft_size, n_mels, f_min, f_max in settings:
            try:
                fbank = mel_filterbank(n_mels, fft_size, fs, f_min, min(f_max, fs / 2))
            except ConfigError:  # a band covers no bin
                continue
            built += 1
            run = np.flatnonzero(fbank.sum(axis=0) > 0)
            assert run[-1] - run[0] + 1 == len(run), (fft_size, n_mels, f_min, f_max)
        assert built >= 100

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError):
            mel_filterbank(80, 1024, FS, 4000.0, 2000.0)
        with pytest.raises(ConfigError):
            mel_filterbank(80, 1024, FS, 0.0, 9000.0)

    @pytest.mark.parametrize("n_mels", [0, 2.5])
    def test_band_count_not_a_positive_whole_number_rejected(self, n_mels):
        with pytest.raises(ConfigError):
            mel_filterbank(n_mels, 1024, FS)
        with pytest.raises(ConfigError):
            mel_spectrogram(gaussian_noise(FS, FS, 0), n_mels=n_mels)


class TestMelSpectrogram:
    def test_silence_hits_floor(self):
        mel = mel_spectrogram(AudioSignal(np.zeros(FS)))
        assert np.all(mel.frames == math.log(MEL_FLOOR))

    def test_white_noise_above_floor_everywhere(self):
        mel = mel_spectrogram(gaussian_noise(FS, FS, 11))
        assert np.all(mel.frames > math.log(MEL_FLOOR))

    def test_shape_contract(self):
        mel = mel_spectrogram(gaussian_noise(FS, FS, 1))
        assert mel.frames.shape == (100, 80)

    def test_scaling_monotonicity(self):
        x = gaussian_noise(FS, FS, 5)
        a = mel_spectrogram(x)
        b = mel_spectrogram(AudioSignal(3.0 * x.samples, FS))
        assert np.all(b.frames >= a.frames - 1e-12)
        unfloored = a.frames > math.log(MEL_FLOOR)
        np.testing.assert_allclose(
            (b.frames - a.frames)[unfloored], 2 * math.log(3.0), atol=1e-9
        )

    def test_f_max_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            mel_spectrogram(AudioSignal(np.zeros(100), 8000), f_max=8000.0)


class TestLoudness:
    def test_silence_hits_floor(self):
        track = loudness(AudioSignal(np.zeros(FS)))
        assert np.all(track.values == math.log(MEL_FLOOR))
        assert len(track) == 100

    def test_sine_rms(self):
        amp = 0.4
        track = loudness(sine(250.0, FS, amp=amp))
        expected = math.log(amp / math.sqrt(2))
        np.testing.assert_allclose(track.values[1:-1], expected, atol=1e-3)

    def test_doubling_adds_log2(self):
        x = sine(250.0, FS, amp=0.2)
        a = loudness(x)
        b = loudness(AudioSignal(2 * x.samples, FS))
        np.testing.assert_allclose(b.values[1:-1] - a.values[1:-1], math.log(2), atol=1e-9)

    def test_frame_count_contract(self):
        for n in (1, 159, 160, 161, 1600):
            assert len(loudness(AudioSignal(np.ones(n) * 0.1))) == n_frames_for(n, 160)

    def test_bad_hop_rejected(self):
        for hop in (0, 2.5, float("nan")):
            with pytest.raises(ConfigError):
                loudness(AudioSignal(np.zeros(100)), hop=hop)


def test_derived_sizes_checked_before_allocation():
    """Each would need petabytes; the check must come before any array is made."""
    x = AudioSignal(np.zeros(100), FS)
    with pytest.raises(ConfigError, match="padded samples"):
        loudness(x, hop=10**15)
    with pytest.raises(ConfigError, match="STFT bins"):
        stft_magnitude(x, StftConfig(fft_size=10**15))
    with pytest.raises(ConfigError, match="mel filterbank entries"):
        mel_filterbank(80, 10**15, FS)
