import functools
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.signal import get_window

from harmex import (
    AudioSignal,
    ConfigError,
    DomainError,
    F0Track,
    StftConfig,
    gaussian_noise,
    interpolate_f0,
    loudness,
    mel_spectrogram,
    mr_stft_loss,
    signal_core,
    sine_excitation,
    stft_magnitude,
)
from harmex.metrics import DEFAULT_RESOLUTIONS
from harmex.signal_core import frame_centers, hop_samples
from harmex.spectral import MEL_FLOOR, MEL_RANGE, MelSpectrogram, _mel_bins, hann, mel_edges, n_frames_for
from conftest import FS, HOP
from reference import (
    loudness_loop, mel_filterbank_dense, mel_spectrogram_serial, mel_spectrogram_whole,
    mr_stft_loss_serial, mr_stft_loss_whole, stft_magnitude_whole,
)


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

    @pytest.mark.parametrize("name", ["fft_size", "win_size", "hop_size"])
    @pytest.mark.parametrize("value", [1e308, 2**31, 0])
    def test_sizes_outside_int32_rejected(self, name, value):
        with pytest.raises(ConfigError, match=rf"{name} must be a whole number in \[1, 2147483647\]"):
            StftConfig(**{name: value})


def scattered_filterbank(n_mels, fft_size, fs, f_min=MEL_RANGE[0], f_max=MEL_RANGE[1]):
    """``spectral._mel_bins`` scattered into the dense n_mels x n_bins filterbank."""
    band, rise, fall, starts = _mel_bins(n_mels, fft_size, fs, f_min, f_max)
    n_mels, bins = len(starts), np.arange(len(band))
    fbank = np.zeros((n_mels, len(band)))
    for weight, i in ((rise, band), (fall, band - 1)):
        on = (0 <= i) & (i < n_mels)
        fbank[i[on], bins[on]] = weight[on]
    return fbank


class TestMelFilterbank:
    def test_bins_scatter_to_the_dense_filterbank_bit_for_bit(self):
        """Every band's triangle at every bin, over geometries wide and narrow, tiny and huge
        rates; each geometry the dense oracle refuses, ``_mel_bins`` refuses with its error."""
        built = refused = 0
        for fs, fft_size, n_mels, (f_min, f_max) in itertools.product(
            (1e-3, 100.0, 8000.0, 16000.0, 22050.0, 44100.0, 1e9),
            (1, 2, 16, 255, 256, 1000, 1024, 2048, 4096),
            (1, 2, 3, 40, 80, 128, 300),
            ((0.0, 0.5), (0.003, 0.45), (0.02, 0.375), (0.01, 0.02), (0.0, 1e-6)),
        ):
            args = (n_mels, fft_size, fs, f_min * fs, f_max * fs)
            try:
                want = mel_filterbank_dense(*args)
            except ConfigError as exc:
                with pytest.raises(ConfigError) as got:
                    _mel_bins(*args)
                assert str(got.value) == str(exc), args
                refused += 1
                continue
            built += 1
            got = scattered_filterbank(*args)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), args
            np.testing.assert_array_equal(_mel_bins(*args)[3], np.argmax(want > 0, axis=1))
        assert built >= 800 and refused >= 800

    def test_shape_and_peak_normalization(self):
        fbank = scattered_filterbank(80, 1024, FS)
        assert fbank.shape == (80, 513)
        assert fbank.max() <= 1.0 + 1e-12
        assert np.all(fbank.max(axis=1) > 0.5)

    def test_coverage_inside_band(self):
        fbank = scattered_filterbank(80, 1024, FS, 0.0, 8000.0)
        freqs = np.arange(513) * FS / 1024
        inside = (freqs > 0.0) & (freqs < 8000.0)
        assert np.all(fbank.sum(axis=0)[inside] > 0)

    @pytest.mark.parametrize("fs", [8000, 16000, 22050, 44100])
    def test_covered_bins_form_one_run(self, fs):
        """``spectral._mel_log_power`` takes the bins strictly inside the outer edges as this run."""
        settings = itertools.product(
            (64, 256, 1024, 2048), (1, 8, 40, 80, 128), (0.0, 50.0, 300.0), (3000.0, 7000.0, fs / 2)
        )
        built = 0
        for fft_size, n_mels, f_min, f_max in settings:
            try:
                fbank = scattered_filterbank(n_mels, fft_size, fs, f_min, min(f_max, fs / 2))
            except ConfigError:  # a band covers no bin
                continue
            built += 1
            run = np.flatnonzero(fbank.sum(axis=0) > 0)
            assert run[-1] - run[0] + 1 == len(run), (fft_size, n_mels, f_min, f_max)
        assert built >= 100

    def test_edges_bound_each_band(self):
        """Band i is positive strictly between edges i and i + 2 and peaks at edge i + 1."""
        edges = mel_edges(40, 125.0, 7000.0)
        assert len(edges) == 42
        np.testing.assert_allclose(edges[[0, -1]], [125.0, 7000.0], rtol=1e-12)
        fbank = scattered_filterbank(40, 1024, FS, 125.0, 7000.0)
        freqs = np.arange(513) * FS / 1024
        for i, band in enumerate(fbank):
            np.testing.assert_array_equal(band > 0, (edges[i] < freqs) & (freqs < edges[i + 2]))
            assert freqs[np.argmax(band)] == pytest.approx(edges[i + 1], abs=FS / 1024)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError):
            scattered_filterbank(80, 1024, FS, 4000.0, 2000.0)
        with pytest.raises(ConfigError):
            scattered_filterbank(80, 1024, FS, 0.0, 9000.0)

    @pytest.mark.parametrize("n_mels", [0, 2.5])
    def test_band_count_not_a_positive_whole_number_rejected(self, n_mels):
        with pytest.raises(ConfigError):
            scattered_filterbank(n_mels, 1024, FS)
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

    @pytest.mark.parametrize("mel_range", [(0.0, 9000.0), (4000.0, 2000.0), (-1.0, 8000.0)])
    def test_record_checks_its_range(self, mel_range):
        """The record takes the filterbank's rule, 0 <= f_min < f_max <= fs / 2."""
        with pytest.raises(ConfigError, match="mel range|f_min"):
            MelSpectrogram(np.zeros((3, 80)), StftConfig(), FS, mel_range)


class TestLoudness:
    def test_silence_hits_floor(self):
        values, hop_seconds = loudness(AudioSignal(np.zeros(FS)))
        assert np.all(values == math.log(MEL_FLOOR))
        assert len(values) == 100
        assert hop_seconds == 160 / FS

    def test_sine_rms(self):
        amp = 0.4
        values, _ = loudness(sine(250.0, FS, amp=amp))
        expected = math.log(amp / math.sqrt(2))
        np.testing.assert_allclose(values[1:-1], expected, atol=1e-3)

    def test_doubling_adds_log2(self):
        x = sine(250.0, FS, amp=0.2)
        a, _ = loudness(x)
        b, _ = loudness(AudioSignal(2 * x.samples, FS))
        np.testing.assert_allclose(b[1:-1] - a[1:-1], math.log(2), atol=1e-9)

    def test_frame_count_contract(self):
        for n in (1, 159, 160, 161, 1600):
            assert len(loudness(AudioSignal(np.ones(n) * 0.1))[0]) == n_frames_for(n, 160)

    def test_bad_hop_rejected(self):
        for hop in (0, 2.5, float("nan")):
            with pytest.raises(ConfigError):
                loudness(AudioSignal(np.zeros(100)), hop=hop)
        with pytest.raises(ConfigError, match="hop_seconds"):  # 160 samples at 5e-324 Hz is inf s
            loudness(AudioSignal(np.zeros(100), 5e-324))

    @pytest.mark.parametrize("n", [1, 159, 160, 161, 1600])
    @pytest.mark.parametrize("hop", [160, 161])
    def test_matches_frame_loop(self, hop, n):
        """Frame m is the hop-long slice of the padded signal centred on ``m * hop``."""
        x = AudioSignal(np.random.default_rng(n).uniform(-1, 1, n), FS)
        np.testing.assert_allclose(loudness(x, hop)[0], loudness_loop(x, hop), rtol=0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            loudness(AudioSignal(np.zeros(0)))


@pytest.mark.parametrize("hop", [160, 161])
def test_impulse_peaks_in_the_same_frame_of_every_feature(hop):
    """Loudness, STFT and mel frame m are all centred on sample ``m * hop``."""
    x = np.zeros(FS)
    x[1050] = 1.0
    x = AudioSignal(x, FS)
    cfg = StftConfig(hop_size=hop)
    peaks = [
        np.argmax(loudness(x, hop)[0]),
        np.argmax(stft_magnitude(x, cfg).sum(axis=1)),
        np.argmax(mel_spectrogram(x, cfg).frames.sum(axis=1)),
    ]
    assert peaks == [round(1050 / hop)] * 3


def test_derived_sizes_checked_before_allocation():
    """Each would need petabytes; the check must come before any array is made."""
    x = AudioSignal(np.zeros(100), FS)
    with pytest.raises(ConfigError, match="padded samples"):
        loudness(x, hop=10**15)
    with pytest.raises(ConfigError, match="STFT bins"):  # 2 frames of 2**30 bins
        stft_magnitude(AudioSignal(np.zeros(161), FS), StftConfig(fft_size=2**31 - 1))
    with pytest.raises(ConfigError, match="mel filterbank entries"):
        _mel_bins(80, 10**15, FS, *MEL_RANGE)


def voice_pair(n_samples: int) -> tuple[AudioSignal, AudioSignal]:
    """A 120 Hz voice with 5 Hz vibrato and a 0.2 s gap each second, and its copy 1% higher."""
    t = np.arange(n_frames_for(n_samples, HOP)) * 0.01
    f0 = np.where(t % 1.0 < 0.8, 120.0 * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t)), 0.0)
    x, y = (sine_excitation(interpolate_f0(F0Track(f0 * k), FS, n_samples)) for k in (1.0, 1.01))
    return x, y


@functools.cache
def whole_array_outputs(n_samples: int):
    x, y = voice_pair(n_samples)
    mags = [stft_magnitude_whole(x, res) for res in (*DEFAULT_RESOLUTIONS, StftConfig())]
    return x, y, mr_stft_loss_whole(x, y), mel_spectrogram_whole(x).frames, mags


SIGNAL_LENGTHS = {
    "shorter_than_the_2048_point_pad": 450,  # 600 samples: that resolution pads with zeros
    # at 1 << 15 and the default, no frame count here is a multiple of the block rows
    "ragged_last_block": 3 * FS + 77,
    "ten_seconds": 10 * FS,
}


@pytest.mark.parametrize("elems", [1, 1 << 15, signal_core.BLOCK_ELEMS])
@pytest.mark.parametrize("n_samples", SIGNAL_LENGTHS.values(), ids=SIGNAL_LENGTHS.keys())
def test_streamed_stft_matches_whole_array_oracle(monkeypatch, elems, n_samples):
    """Every STFT user walks blocks of frames; the whole-array forms are the oracles.

    The magnitudes are the same bits.  The loss adds per-frame sums where its
    oracle sums whole arrays, and the oracle's mel filterbank is a matrix
    product, so those match to rounding.
    """
    x, y, loss, mel, mags = whole_array_outputs(n_samples)
    monkeypatch.setattr(signal_core, "BLOCK_ELEMS", elems)
    got = mr_stft_loss(x, y)
    np.testing.assert_allclose([got.sc, got.mag], [loss.sc, loss.mag], rtol=1e-14, atol=0)
    np.testing.assert_allclose(mel_spectrogram(x).frames, mel, rtol=0, atol=1e-13)
    for res, want in zip((*DEFAULT_RESOLUTIONS, StftConfig()), mags):
        assert np.array_equal(stft_magnitude(x, res), want), res


class TestMrStftWorkers:
    """``mr_stft_loss``, ``stft_magnitude`` and ``mel_spectrogram`` run their blocks on
    ``signal_core._each``'s threads."""

    @pytest.mark.parametrize("elems", [1, 1 << 15, signal_core.BLOCK_ELEMS])
    @pytest.mark.parametrize("n_samples", SIGNAL_LENGTHS.values(), ids=SIGNAL_LENGTHS.keys())
    def test_same_bits_at_any_worker_count(self, monkeypatch, elems, n_samples):
        """At 1, 2 and 64 workers: the per-frame sums' bits, the whole-array magnitudes,
        the serial mel walk's bits, and every thread ended on return."""
        x, y, *_, mags = whole_array_outputs(n_samples)
        monkeypatch.setattr(signal_core, "BLOCK_ELEMS", elems)
        want, mel = mr_stft_loss_serial(x, y), mel_spectrogram_serial(x)
        threads = threading.active_count()
        for workers in (1, 2, 64):
            monkeypatch.setattr(signal_core, "WORKERS", workers)
            assert mr_stft_loss(x, y) == want, workers
            assert threading.active_count() == threads
            assert np.array_equal(mel_spectrogram(x).frames, mel), workers
            assert threading.active_count() == threads
            for res, mag in zip((*DEFAULT_RESOLUTIONS, StftConfig()), mags):
                assert np.array_equal(stft_magnitude(x, res), mag), (workers, res)
                assert threading.active_count() == threads


def test_mr_stft_loss_frees_each_resolutions_frames(monkeypatch):
    """Peak traced memory on 10 s at 16 kHz on one worker.

    It reads 3.5-3.6 MiB, 4.0 MiB with new arrays for the log and difference
    temporaries, and 5.0-5.1 MiB when a resolution's padded frames outlive it.
    """
    x, y, *_ = whole_array_outputs(10 * FS)
    monkeypatch.setattr(signal_core, "WORKERS", 1)
    tracemalloc.start()
    try:
        mr_stft_loss(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_stft_magnitude_writes_its_blocks_into_its_output(monkeypatch):
    """Peak traced memory on 10 s at 16 kHz on one worker.

    It reads 5.91 MiB: the 3.9 MiB output, the padded signal and one block's transients.
    Joining the blocks' magnitudes with ``np.concatenate`` read 7.83 MiB.
    """
    x, *_ = whole_array_outputs(10 * FS)
    monkeypatch.setattr(signal_core, "WORKERS", 1)
    tracemalloc.start()
    try:
        stft_magnitude(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("stage, bound_mib", [("mr_stft_loss", 8), ("mel_spectrogram", 6)])
def test_stft_users_never_hold_a_whole_spectrogram(monkeypatch, stage, bound_mib):
    """Peak traced memory on 10 s at 16 kHz, at two workers.

    Streamed, the two peak near 4.5 and 3.2 MiB; whole-array STFTs peaked at
    36.4 and 18.8 MiB.  Each further worker holds about one more block of the loss.
    """
    x, y, *_ = whole_array_outputs(10 * FS)
    monkeypatch.setattr(signal_core, "WORKERS", 2)
    call = {
        "mr_stft_loss": lambda: mr_stft_loss(x, y),
        "mel_spectrogram": lambda: mel_spectrogram(x),
    }
    tracemalloc.start()
    try:
        call[stage]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, f"{peak / 2**20:.1f} MiB"
