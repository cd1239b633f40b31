import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import harmex
from harmex import (
    AudioSignal,
    ConfigError,
    DegenerateReferenceError,
    DomainError,
    F0Track,
    FitConfig,
    MrStftConfig,
    StftConfig,
    UndefinedMetricError,
    apply_ltv,
    combined_loss,
    fit_coeffs_least_squares,
    gaussian_noise,
    interpolate_f0,
    mel_mae,
    mel_spectrogram,
    mr_stft_loss,
    pitch_jitter,
    refine_pitch,
    sine_excitation,
    uv_error_rate,
)
from harmex.metrics import LAG_STEP, WIDTH_STEP, _voicing_decisions
from conftest import FS, HOP, formant_envelope_coeffs, make_excitation
from reference import refine_pitch_loop, voicing_decisions_loop


class TestMrStftLoss:
    def test_identical_inputs_zero(self):
        y = gaussian_noise(16000, FS, 1)
        assert mr_stft_loss(y, y).total == 0.0

    def test_zero_hypothesis_sc_one(self):
        y = gaussian_noise(16000, FS, 1)
        x = AudioSignal(np.zeros(16000), FS)
        assert mr_stft_loss(x, y).sc == pytest.approx(1.0, abs=1e-9)

    def test_double_scaling(self):
        y = gaussian_noise(16000, FS, 2)
        x = AudioSignal(2.0 * y.samples, FS)
        loss = mr_stft_loss(x, y)
        assert loss.sc == pytest.approx(1.0, abs=1e-9)
        assert loss.mag == pytest.approx(math.log(2), abs=1e-9)

    def test_nonnegative_total(self, rng):
        x = AudioSignal(rng.normal(size=8000), FS)
        y = AudioSignal(rng.normal(size=8000), FS)
        assert mr_stft_loss(x, y).total >= 0.0

    def test_zero_reference_rejected(self):
        x = gaussian_noise(8000, FS, 0)
        with pytest.raises(DegenerateReferenceError):
            mr_stft_loss(x, AudioSignal(np.zeros(8000), FS))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x_at", [500, None])
    def test_reference_no_window_sees_rejected(self, x_at):
        """At hop = win each sample is framed once, and the one at 120 starts a frame, where
        the periodic Hann window is 0: that resolution's |Y| sums to 0.  Divided by it, sc
        came out inf, or NaN when x is unseen too."""
        y, x = np.zeros(2400), np.zeros(2400)
        y[120] = 1.0
        if x_at is not None:
            x[x_at] = 1.0
        cfg = MrStftConfig((StftConfig(512, 240, 240),))
        with pytest.raises(DegenerateReferenceError, match=r"StftConfig\(fft_size=512, win_size=240"):
            mr_stft_loss(AudioSignal(x, FS), AudioSignal(y, FS), cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("huge", ["x", "y"])
    def test_sums_that_overflow_rejected(self, huge):
        """1e200 squares past the float64 range: sc came out inf for a huge x, and NaN with a
        warning for a huge y.  Such a signal is refused as it is made."""
        x = gaussian_noise(1600, FS, 0)
        with pytest.raises(DomainError, match="audio samples must be finite and within"):
            y = AudioSignal(np.full(1600, 1e200), FS)
            mr_stft_loss(*((y, x) if huge == "x" else (x, y)))

    def test_same_bits_at_one_and_two_blas_threads(self):
        """The loss, the mel frames and the mel MAE of 10 s of harmonic audio: long enough that
        a BLAS sum splits across threads (2 s at 16 kHz can stay below OpenBLAS's threshold)."""
        outputs = outputs_at_one_and_two_blas_threads(BLAS_THREADS_SCRIPT)
        assert len(outputs) == 1, outputs
        loss_1, loss_2, _ = outputs.pop().splitlines()
        assert loss_1 == loss_2  # at one and two workers


def outputs_at_one_and_two_blas_threads(script: str, *args: str) -> set[str]:
    """The distinct stdouts of ``script`` run at one and at two OpenBLAS threads."""
    env = {**os.environ, "PYTHONPATH": str(Path(harmex.__file__).parents[1])}
    return {
        subprocess.run(
            [sys.executable, "-c", script, *args], env={**env, "OPENBLAS_NUM_THREADS": n},
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        for n in ("1", "2")
    }


BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from harmex import F0Track, interpolate_f0, mel_mae, mel_spectrogram, mr_stft_loss, signal_core
from harmex import sine_excitation

t = np.arange(1000) * 0.01
f0 = np.where(t % 1.0 < 0.8, 120.0 * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t)), 0.0)
x, y = (sine_excitation(interpolate_f0(F0Track(f0 * k), 16000, 160000)) for k in (1.0, 1.01))
for workers in (1, 2):
    signal_core.WORKERS = workers
    loss = mr_stft_loss(x, y)
    print(repr(loss.sc), repr(loss.mag))
mel_x, mel_y = mel_spectrogram(x), mel_spectrogram(y)
print(hashlib.sha256(mel_x.frames.tobytes()).hexdigest(), repr(mel_mae(mel_x, mel_y)))
"""

ESTIMATE_SCRIPT = """
import hashlib, sys
from harmex import estimate_coeffs_from_mel
from harmex.tensor_io import read_mel_file

taps = estimate_coeffs_from_mel(read_mel_file(sys.argv[1])).taps
print(hashlib.sha256(taps.tobytes()).hexdigest())
"""


def test_estimate_same_bits_at_one_and_two_blas_threads(tmp_path):
    """The estimator's taps on one fixed 10 s mel file (1000 frames), read at each thread count."""
    from harmex.tensor_io import write_mel_file

    path = tmp_path / "mel.hmx"
    write_mel_file(path, mel_spectrogram(gaussian_noise(10 * FS, FS, 9)))
    outputs = outputs_at_one_and_two_blas_threads(ESTIMATE_SCRIPT, str(path))
    assert len(outputs) == 1, outputs


FIT_SCRIPT = """
import hashlib
import numpy as np
from harmex import AudioSignal, F0Track, FitConfig, fit_coeffs_least_squares, gaussian_noise
from harmex import interpolate_f0, signal_core, sine_excitation

t = np.arange(1000) * 0.01
f0 = np.where(t % 1.0 < 0.8, 120.0 * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t)), 0.0)
x = sine_excitation(interpolate_f0(F0Track(f0), 16000, 160000))
y = AudioSignal(x.samples + 0.01 * gaussian_noise(160000, 16000, 9).samples, 16000)
for ridge_lambda in (1e-6, 0.0):
    for workers in (1, 2):
        signal_core.WORKERS = workers
        taps = fit_coeffs_least_squares(x, y, FitConfig(ridge_lambda=ridge_lambda)).taps
        print(hashlib.sha256(taps.tobytes()).hexdigest())
"""


def test_fits_same_bits_at_one_and_two_blas_threads():
    """The ridge and the min-norm taps of one fixed 10 s input (1000 frames) at one and
    two fit workers, each at one and two BLAS threads: one hash per fit."""
    outputs = outputs_at_one_and_two_blas_threads(FIT_SCRIPT)
    assert len(outputs) == 1, outputs
    ridge_1, ridge_2, min_norm_1, min_norm_2 = outputs.pop().split()
    assert ridge_1 == ridge_2 and min_norm_1 == min_norm_2


class TestMelMae:
    def test_identical_is_zero(self):
        m = mel_spectrogram(gaussian_noise(16000, FS, 4))
        assert mel_mae(m, m) == 0.0

    def test_constant_offset(self):
        from dataclasses import replace

        m = mel_spectrogram(gaussian_noise(16000, FS, 4))
        shifted = replace(m, frames=m.frames + 1.0)
        assert mel_mae(m, shifted) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        a = mel_spectrogram(gaussian_noise(16000, FS, 5))
        b = mel_spectrogram(gaussian_noise(16000, FS, 6))
        brute = float(np.abs(a.frames - b.frames).sum() / a.frames.size)
        assert mel_mae(a, b) == pytest.approx(brute, rel=1e-12)

    def test_metric_axioms_on_random_triples(self, rng):
        from dataclasses import replace

        base = mel_spectrogram(gaussian_noise(16000, FS, 7))
        mels = [replace(base, frames=base.frames + rng.normal(size=base.frames.shape)) for _ in range(3)]
        a, b, c = mels
        assert mel_mae(a, b) == pytest.approx(mel_mae(b, a), rel=1e-12)
        assert mel_mae(a, a) == 0.0
        assert mel_mae(a, c) <= mel_mae(a, b) + mel_mae(b, c) + 1e-12

    def test_shape_mismatch_rejected(self):
        a = mel_spectrogram(gaussian_noise(16000, FS, 4))
        b = mel_spectrogram(gaussian_noise(8000, FS, 4))
        with pytest.raises(ConfigError):
            mel_mae(a, b)

    def test_sample_rate_mismatch_rejected(self):
        from dataclasses import replace

        a = mel_spectrogram(gaussian_noise(16000, FS, 4))
        with pytest.raises(ConfigError):
            mel_mae(a, replace(a, sample_rate=22050))


class TestCombinedLoss:
    def test_zero(self):
        assert combined_loss(0.0, 0.0, 0.0) == 0.0

    def test_default_weights_example(self):
        assert combined_loss(0.01, 0.1, 0.5) == pytest.approx(2.9, abs=1e-12)

    def test_alpha_only(self):
        assert combined_loss(1.0, 0.0, 0.0) == 200.0

    def test_weights_as_keywords(self):
        assert combined_loss(1.0, 10.0, 0.5, alpha=2.0, beta=0.0) == 2.5
        assert combined_loss(1.0, 10.0, 0.5, beta=1.0) == 210.5

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-10, 10), b=st.floats(-10, 10), c=st.floats(-10, 10), s=st.floats(0.5, 4)
    )
    def test_linearity_by_superposition(self, a, b, c, s):
        lhs = combined_loss(s * a, s * b, s * c)
        assert lhs == pytest.approx(s * combined_loss(a, b, c), rel=1e-9, abs=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            combined_loss(math.nan, 0.0, 0.0)


def alternating_cents_signal(f_center, cents, n_frames, amp=0.3):
    """Single sinusoid, per-frame detuned by +-cents, frames centered on m*hop."""
    signs = np.where(np.arange(n_frames) % 2 == 0, 1.0, -1.0)
    f0 = f_center * 2.0 ** (signs * cents / 1200.0)
    n = np.arange(n_frames * HOP)
    idx = np.minimum((n + HOP // 2) // HOP, n_frames - 1)
    phase = 2 * np.pi * np.cumsum(f0[idx]) / FS
    return AudioSignal(amp * np.sin(phase), FS)


class TestPitchJitter:
    def test_constant_excitation_below_one_cent(self):
        track = F0Track(np.full(100, 200.0))
        exc = make_excitation(200.0, 16000)
        assert pitch_jitter(exc, track) < 1.0

    def test_alternating_detune_measures_100_cents(self):
        x = alternating_cents_signal(500.0, 50.0, 100)
        track = F0Track(np.full(100, 500.0))
        assert pitch_jitter(x, track) == pytest.approx(100.0, abs=10.0)

    def test_all_unvoiced_rejected(self):
        track = F0Track(np.zeros(10))
        with pytest.raises(UndefinedMetricError):
            pitch_jitter(gaussian_noise(1600, FS, 0), track)

    def test_bad_search_reported_before_an_unvoiced_track(self):
        with pytest.raises(ConfigError, match="search_cents"):
            pitch_jitter(gaussian_noise(1600, FS, 0), F0Track(np.zeros(10)), -5.0)


def tone_under_track(seed, n_frames, hop, f_base, shape, extra):
    """A noisy tone near ``f_base`` and a track of it with unvoiced runs.

    The signal is ``n_frames * hop + extra`` samples, so a negative ``extra``
    leaves the track's last frames past its end.  ``shape`` is "flat",
    "gap" (a silent stretch) or "fade" (the tail at 1e-6 of the head).
    """
    rng = np.random.default_rng(seed)
    cents = rng.uniform(-30.0, 30.0, n_frames)
    n = max(1, int(n_frames * hop) + extra)
    f_inst = f_base * 2.0 ** (np.interp(np.arange(n), np.arange(n_frames) * hop, cents) / 1200.0)
    x = np.sin(2 * np.pi * np.cumsum(f_inst) / FS) + 0.05 * rng.standard_normal(n)
    if shape == "gap":
        lo = int(rng.integers(0, n))
        x[lo : lo + int(rng.integers(1, int(4 * hop)))] = 0.0
    elif shape == "fade":
        x[int(rng.integers(0, n)) :] *= 1e-6
    values = f_base * 2.0 ** (cents / 1200.0)
    values[rng.random(n_frames) < 0.25] = 0.0
    return AudioSignal(x, FS), F0Track(values, hop / FS)


class TestRefinePitchMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_frames=st.integers(1, 50),
        hop=st.sampled_from([80, 160, 241, 220.5]),  # 220.5: 10 ms at 22.05 kHz
        f_base=st.floats(60.0, 700.0),
        shape=st.sampled_from(["flat", "gap", "fade"]),
        extra=st.integers(-600, 600),
        search_cents=st.floats(10.0, 1200.0),
    )
    @example(seed=3, n_frames=40, hop=160, f_base=100.0, shape="fade", extra=0, search_cents=200.0)
    @example(seed=4, n_frames=40, hop=160, f_base=150.0, shape="gap", extra=0, search_cents=200.0)
    @example(seed=5, n_frames=50, hop=220.5, f_base=200.0, shape="flat", extra=0, search_cents=200.0)
    def test_same_nan_mask_and_values(self, seed, n_frames, hop, f_base, shape, extra, search_cents):
        x, track = tone_under_track(seed, n_frames, hop, f_base, shape, extra)
        fast = refine_pitch(x, track, search_cents)
        slow = refine_pitch_loop(x, track, search_cents)
        assert np.array_equal(np.isnan(fast), np.isnan(slow))
        ok = ~np.isnan(slow)
        np.testing.assert_allclose(fast[ok], slow[ok], rtol=1e-12, atol=0)

    def test_quiet_tail_after_loud_head_is_refined(self):
        """Per-window energies: a 1e-6 tail keeps its own, uncancelled, normalization."""
        x, track = tone_under_track(3, 60, 160, 120.0, "flat", 0)
        x = AudioSignal(np.where(np.arange(len(x)) < len(x) // 2, 1.0, 1e-6) * x.samples, FS)
        fast = refine_pitch(x, track)
        slow = refine_pitch_loop(x, track)
        tail = np.arange(len(track)) * HOP > len(x) // 2 + 300
        assert np.isfinite(slow[tail & track.voiced_mask]).all()
        np.testing.assert_allclose(fast[tail], slow[tail], rtol=1e-12, atol=0)

    def test_silent_signal_gives_nan(self):
        track = F0Track(np.full(20, 150.0))
        assert np.isnan(refine_pitch(AudioSignal(np.zeros(3200), FS), track)).all()

    def test_pitch_above_the_search_floor_gives_nan(self):
        """f0 so high that fewer than three lags lie in range: no interior peak."""
        track = F0Track(np.full(10, 30000.0))
        assert np.isnan(refine_pitch(gaussian_noise(1600, FS, 0), track)).all()

    @pytest.mark.parametrize("cents", [-50.0, 0.0, 1200.0001, 1e9, math.nan, math.inf])
    def test_search_cents_outside_0_1200_rejected(self, cents):
        track = F0Track(np.full(10, 200.0))
        with pytest.raises(ConfigError, match="search_cents"):
            refine_pitch(make_excitation(200.0, 1600), track, cents)

    def test_search_cents_upper_bound_allowed(self):
        track = F0Track(np.full(100, 200.0))
        assert pitch_jitter(make_excitation(200.0, 16000), track, 1200.0) < 1.0


class TestRefinePitchFrameAlone:
    """A frame's refined pitch depends on its own samples and lag range, not on the frames that
    share its padded shape."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(2, 9).map(lambda k: k * WIDTH_STEP),
        n_lags=st.integers(1, 8).map(lambda j: j * LAG_STEP),
        offsets=st.lists(st.one_of(st.none(), st.floats(-2.0, 3.0)), max_size=20),
        hop=st.sampled_from([160, 220.5]),
        noise=st.sampled_from([0.01, 100.0]),
    )
    @example(seed=0, width=128, n_lags=32, offsets=[], hop=160, noise=0.01)
    def test_same_bits_as_the_frame_alone(self, seed, width, n_lags, offsets, hop, noise):
        """Reference periods ``width + d - 0.5`` for d = -1, 0, 1, 2 give lag_hi = width + d: on
        a multiple of WIDTH_STEP and one past it.  The search is set so that d = 0 has n_lags
        lags, a multiple of LAG_STEP.  The drawn offsets add frames at other periods, so frames
        of one shape differ in range, and None is an unvoiced frame.  Under loud noise a peak
        can fall anywhere, the padding's lags included."""
        lag_lo = width + 1 - n_lags
        assume(2 <= lag_lo and width - 0.5 <= 4 * (lag_lo + 0.5))  # within 1200 cents
        search_cents = 600.0 * math.log2((width - 0.5) / (lag_lo + 0.5))
        ratio = 2.0 ** (search_cents / 1200.0)
        rng = np.random.default_rng(seed)
        drawn = rng.permutation(np.array([-1.0, 0.0, 1.0, 2.0, *offsets], dtype=object))
        values = np.array([0.0 if d is None else FS * ratio / (width + d - 0.5) for d in drawn])
        track = F0Track(values, hop / FS)
        assert {math.ceil(FS / (f / ratio)) for f in values[values > 0]} >= {width, width + 1}

        n = int(len(values) * hop)
        x = sine_excitation(interpolate_f0(track, FS, n)).samples + noise * rng.standard_normal(n)
        together = refine_pitch(AudioSignal(x, FS), track, search_cents)
        for m in np.flatnonzero(track.voiced_mask):
            alone = np.where(np.arange(len(values)) == m, values, 0.0)
            got = refine_pitch(AudioSignal(x, FS), F0Track(alone, hop / FS), search_cents)
            assert np.array_equal(got[m], together[m], equal_nan=True), m


class TestHopBelowOneSample:
    @pytest.mark.parametrize("hop_seconds", [1e-5, 0.5 / FS])
    def test_rejected(self, hop_seconds):
        x = make_excitation(200.0, 1600)
        track = F0Track(np.full(10, 200.0), hop_seconds)
        with pytest.raises(ConfigError, match="one sample"):
            refine_pitch(x, track)
        with pytest.raises(ConfigError, match="one sample"):
            uv_error_rate(x, track)

    def test_one_sample_accepted(self):
        """0.6 samples rounds to one; frames 1, 4, 6 and 9 own no sample.

        The excitation is zero, up to rounding, at every odd sample; frames
        2, 5 and 8 own samples 1, 3 and 5, so 7 of 10 frames are unvoiced.
        """
        track = F0Track(np.full(10, 200.0), 0.6 / FS)
        assert uv_error_rate(make_excitation(200.0, 1600), track) == 0.7

    def test_one_sample_hop_decides_each_sample(self):
        track = F0Track(np.full(100, 200.0), 1 / FS)
        assert uv_error_rate(AudioSignal(np.full(100, 0.5), FS), track) == 0.0


class TestUvErrorRate:
    def test_excitation_matches_own_track(self):
        values = np.concatenate([np.zeros(20), np.full(60, 220.0), np.zeros(20)])
        track = F0Track(values)
        exc = sine_excitation(interpolate_f0(track, FS, 16000))
        assert uv_error_rate(exc, track) == 0.0

    def test_uniform_noise_vs_half_voiced(self):
        track = F0Track(np.concatenate([np.full(50, 100.0), np.zeros(50)]))
        x = gaussian_noise(16000, FS, 3)
        assert uv_error_rate(x, track) == pytest.approx(0.5)

    def test_silence_vs_all_voiced(self):
        track = F0Track(np.full(100, 100.0))
        assert uv_error_rate(AudioSignal(np.zeros(16000), FS), track) == 1.0

    def test_empty_track_rejected(self):
        with pytest.raises(DomainError):
            uv_error_rate(gaussian_noise(100, FS, 0), F0Track(np.zeros(0)))

    @pytest.mark.parametrize("threshold_db", [100.0, 6100.0, 6200.0, 1e308])
    def test_threshold_above_the_peak_decides_all_unvoiced(self, threshold_db):
        """10 ** (threshold / 20) overflows from about 6166 dB; the decisions do not change there."""
        track = F0Track(np.concatenate([np.full(7, 100.0), np.zeros(3)]))
        assert uv_error_rate(gaussian_noise(1600, FS, 0), track, threshold_db) == 0.7

    @pytest.mark.filterwarnings("error")
    def test_energy_that_overflows_rejected(self):
        with pytest.raises(DomainError, match="audio samples must be finite and within"):
            uv_error_rate(AudioSignal(np.full(1600, 1e200), FS), F0Track(np.full(10, 100.0)))

    @pytest.mark.parametrize("threshold_db", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold_db):
        track = F0Track(np.full(10, 100.0))
        with pytest.raises(ConfigError):
            uv_error_rate(gaussian_noise(1600, FS, 0), track, energy_threshold_db=threshold_db)


class TestUvErrorRateMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_frames=st.integers(1, 80),
        hop=st.one_of(st.integers(1, 401), st.just(220.5)),
        extra=st.integers(-4000, 400),
        threshold_db=st.floats(-80.0, 0.0),
    )
    @example(seed=1, n_frames=50, hop=160, extra=0, threshold_db=-40.0)
    @example(seed=2, n_frames=50, hop=161, extra=-3000, threshold_db=-20.0)
    @example(seed=3, n_frames=50, hop=220.5, extra=0, threshold_db=-40.0)
    def test_same_decisions_and_rate(self, seed, n_frames, hop, extra, threshold_db):
        """Even, odd and half-sample hops, and tracks running past the signal's end."""
        rng = np.random.default_rng(seed)
        n = max(0, int(n_frames * hop) + extra)
        level = 10.0 ** rng.uniform(-5.0, 0.0, size=int(n // hop) + 1)  # per-hop RMS, a 100 dB span
        x = AudioSignal(level[(np.arange(n) // hop).astype(np.intp)] * rng.standard_normal(n), FS)
        track = F0Track(np.where(rng.random(n_frames) < 0.5, 120.0, 0.0), hop / FS)
        decided = voicing_decisions_loop(x, track, threshold_db)
        assert np.array_equal(_voicing_decisions(x, track, threshold_db), decided)
        assert uv_error_rate(x, track, threshold_db) == float(np.mean(decided != track.voiced_mask))


@pytest.mark.parametrize("fs", [22050, 22150, 22030])
@pytest.mark.parametrize("f_base", [200.0, 220.0])
def test_half_sample_hop_scores_an_excitation_on_its_own_grid(f_base, fs):
    """10 ms at 22.05 kHz is 220.5 samples, and the metrics follow the synthesis grid.

    Frames placed at ``m * round(hop)`` drift half a sample per frame, 500
    samples by the end of this 10 s track: that gave a U/V error rate of
    0.023 and a median pitch error of 13-14 cents in the last third.  At
    200 Hz, centers rounded half to even gave a U/V error rate of 0.004.
    A window of ``hop // 2`` samples each side of the center, in place of
    the samples the frame owns, gave 0.001 at 22,150 Hz (221.5 samples) and
    0.004 at 22,030 Hz (220.3 samples).
    """
    hop_seconds = 0.010
    t = np.arange(1000) * hop_seconds
    f0 = f_base * (1.0 + 0.02 * np.sin(2 * np.pi * 5.0 * t))  # the demo's vibrato
    track = F0Track(np.where(t % 1.0 < 0.8, f0, 0.0), hop_seconds)  # 0.2 s unvoiced each second
    x = sine_excitation(interpolate_f0(track, fs, 10 * fs))
    assert uv_error_rate(x, track) == 0.0
    voiced = track.voiced_mask
    cents = np.full(len(track), np.nan)
    cents[voiced] = np.abs(1200.0 * np.log2(refine_pitch(x, track)[voiced] / track.values[voiced]))
    for third in np.array_split(cents, 3):
        assert np.nanmedian(third) <= 2.0


class TestMatchingImprovement:
    def test_fitted_filter_reduces_mr_stft(self, rng):
        exc = make_excitation(180.0, 16000)
        envelope = formant_envelope_coeffs(100, rng)
        target = apply_ltv(exc, envelope)
        fitted = fit_coeffs_least_squares(exc, target, FitConfig())
        refiltered = apply_ltv(exc, fitted)
        raw_loss = mr_stft_loss(exc, target).total
        fit_loss = mr_stft_loss(refiltered, target).total
        assert fit_loss <= raw_loss
