import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmex import (
    AudioSignal,
    ConfigError,
    DomainError,
    ExcitationConfig,
    F0Track,
    FitConfig,
    LengthMismatchError,
    LtvFirCoeffs,
    StftConfig,
    apply_ltv,
    estimate_coeffs_from_mel,
    fit_coeffs_least_squares,
    gaussian_noise,
    interpolate_f0,
    ltv,
    mel_spectrogram,
    minimum_phase_fir,
    mr_stft_loss,
    read_coeffs,
    refine_pitch,
    signal_core,
    sine_excitation,
    stft_magnitude,
    write_coeffs,
)
from harmex.ltv import LOG10_FACTOR, WNC, _lagged, _min_norm, _solve_block
from harmex.spectral import MelSpectrogram, _mel_log_power, mel_edges, n_frames_for
from conftest import FS, HOP, frequency_response, make_excitation
from reference import (
    apply_ltv_loop,
    estimate_taps_loop,
    fit_min_norm_loop,
    fit_ridge_loop,
    levinson_loop,
    mel_filterbank_dense,
    mel_log_power_dense,
    min_norm_solve,
)

N_TAPS = 64


def delta_coeffs(n_frames, n_taps=N_TAPS):
    taps = np.zeros((n_frames, n_taps))
    taps[:, 0] = 1.0
    return LtvFirCoeffs(taps, 0.010, FS)


class TestApplyLtv:
    def test_empty_signal_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            apply_ltv(AudioSignal(np.zeros(0), FS), delta_coeffs(1))

    def test_delta_is_identity(self, rng):
        x = AudioSignal(rng.normal(size=16000), FS)
        y = apply_ltv(x, delta_coeffs(100))
        np.testing.assert_array_equal(y.samples, x.samples)

    @pytest.mark.parametrize("interpolate", [True, False], ids=["interpolated", "held"])
    def test_constant_coeffs_match_direct_convolution(self, rng, interpolate):
        taps = rng.normal(size=N_TAPS) * 0.3
        h = LtvFirCoeffs(np.tile(taps, (100, 1)), 0.010, FS)
        x = AudioSignal(rng.normal(size=16000), FS)
        y = apply_ltv(x, h, interpolate)
        np.testing.assert_allclose(y.samples, np.convolve(x.samples, taps)[:16000], atol=1e-12)

    def test_linearity_in_signal(self, rng):
        h = LtvFirCoeffs(rng.normal(size=(100, N_TAPS)), 0.010, FS)
        x1 = AudioSignal(rng.normal(size=16000), FS)
        x2 = AudioSignal(rng.normal(size=16000), FS)
        a, b = 0.7, -1.3
        combined = apply_ltv(AudioSignal(a * x1.samples + b * x2.samples, FS), h)
        split = a * apply_ltv(x1, h).samples + b * apply_ltv(x2, h).samples
        np.testing.assert_allclose(combined.samples, split, atol=1e-12)

    def test_output_length_equals_input_length(self, rng):
        for n in (100, 15999, 16000):
            h = delta_coeffs(int(np.ceil(n / HOP)))
            x = AudioSignal(rng.normal(size=n), FS)
            assert len(apply_ltv(x, h)) == n

    def test_sample_rate_mismatch_rejected(self, rng):
        h = LtvFirCoeffs(np.ones((100, 4)), 0.010, 22050)
        with pytest.raises(ConfigError):
            apply_ltv(AudioSignal(np.zeros(16000), FS), h)

    def test_frame_count_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            apply_ltv(AudioSignal(np.zeros(16000), FS), delta_coeffs(50))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (4,), (2, 3, 4)])
    def test_taps_not_a_frames_by_taps_matrix_rejected(self, shape):
        with pytest.raises(ConfigError):
            LtvFirCoeffs(np.zeros(shape), 0.010, FS)

    def test_piecewise_constant_mode_uses_frame_taps(self, rng):
        taps = rng.normal(size=(10, 8))
        h = LtvFirCoeffs(taps, 0.010, FS)
        x = AudioSignal(rng.normal(size=1600), FS)
        y = apply_ltv(x, h, interpolate_taps=False)
        lag = _lagged(x.samples, 8)
        f = 4
        sl = slice(f * HOP, (f + 1) * HOP)
        np.testing.assert_allclose(y.samples[sl], lag[sl] @ taps[f], atol=1e-12)

    def test_held_frame_of_silence_is_exact_zeros(self, rng):
        """Frames 6-9 (samples 960-1599) see only the silent samples 800-1599 through
        their 64 taps; the FFT product of a zero segment is exactly zero."""
        x = rng.normal(size=2400)
        x[800:1600] = 0.0
        h = LtvFirCoeffs(rng.normal(size=(15, N_TAPS)), 0.010, FS)
        y = apply_ltv(AudioSignal(x, FS), h, interpolate_taps=False).samples
        assert not y[960:1600].any()
        assert y[959] != 0.0 and y[1600] != 0.0


class TestApplyLtvMatchesTapLoop:
    """Both tap modes against the per-tap pass that the per-frame contractions replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 1500),
        hop=st.integers(1, 200),
        n_taps=st.integers(1, 96),
        frame_slack=st.sampled_from([-1, 0, 1]),
        interpolate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1000, hop=160, n_taps=1, frame_slack=0, interpolate=True, seed=0)
    @example(n=999, hop=16, n_taps=64, frame_slack=-1, interpolate=True, seed=1)
    @example(n=1001, hop=160, n_taps=64, frame_slack=1, interpolate=False, seed=2)
    def test_matches_loop(self, n, hop, n_taps, frame_slack, interpolate, seed):
        n_frames = max(1, n_frames_for(n, hop) + frame_slack)
        rng = np.random.default_rng(seed)
        h = LtvFirCoeffs(rng.uniform(-1, 1, size=(n_frames, n_taps)), hop / FS, FS)
        x = AudioSignal(rng.uniform(-1, 1, size=n), FS)
        np.testing.assert_allclose(
            apply_ltv(x, h, interpolate).samples,
            apply_ltv_loop(x, h, interpolate).samples,
            rtol=0,
            atol=1e-12,
        )


LEVEL_SCRIPT = """
import hashlib
import numpy as np
from harmex import AudioSignal, LtvFirCoeffs, apply_ltv, minimum_phase_fir

rng = np.random.default_rng(11)
x = AudioSignal(rng.uniform(-1, 1, 16000), 16000)
h = LtvFirCoeffs(rng.uniform(-1, 1, (100, 64)), 0.01, 16000)
held = apply_ltv(x, h, interpolate_taps=False).samples
taps = minimum_phase_fir(rng.uniform(1e-3, 3.0, (40, 513)), 64, 1024)
print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in (held, taps)))
"""


def test_held_filter_and_minimum_phase_same_bits_at_the_baseline_level(capsys):
    """Held taps on 1 s and minimum-phase taps of 40 rows, here and in a process held to
    numpy's baseline SIMD level, where its complex ``*`` and ``** -2.0`` round otherwise."""
    exec(LEVEL_SCRIPT, {})
    here = capsys.readouterr().out
    env = {
        **os.environ, "PYTHONPATH": str(Path(ltv.__file__).parents[1]),
        # numpy's X86-64-v2 baseline on x86-64: every dispatch target above it disabled
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    }
    there = subprocess.run(
        [sys.executable, "-c", LEVEL_SCRIPT], env=env,
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert there == here


class TestFitLeastSquares:
    def test_identity_target_recovers_delta(self):
        exc = make_excitation(120.0, 16000)
        fit = fit_coeffs_least_squares(exc, exc, FitConfig(ridge_lambda=1e-6))
        assert np.max(np.abs(fit.taps[:, 0] - 1.0)) < 1e-3
        assert np.max((fit.taps[:, 1:] ** 2).sum(axis=1)) < 1e-6

    def test_construct_then_recover(self, rng):
        exc = make_excitation(120.0, 16000)
        known = LtvFirCoeffs(rng.normal(size=(100, N_TAPS)) * 0.2, 0.010, FS)
        target = apply_ltv(exc, known, interpolate_taps=False)
        fit = fit_coeffs_least_squares(exc, target, FitConfig(ridge_lambda=0.0))
        refiltered = apply_ltv(exc, fit, interpolate_taps=False)
        err = refiltered.samples - target.samples
        for f in range(1, 99):
            sl = slice(f * HOP, (f + 1) * HOP)
            rel = np.linalg.norm(err[sl]) / np.linalg.norm(target.samples[sl])
            assert rel < 1e-6

    def test_zero_excitation_frame_gives_zero_taps(self, rng):
        exc = np.zeros(1600)
        exc[800:] = rng.normal(size=800)
        target = AudioSignal(rng.normal(size=1600), FS)
        fit = fit_coeffs_least_squares(AudioSignal(exc, FS), target, FitConfig())
        # frames 0-3 precede any excitation (frame 4 sees lags into it)
        assert np.all(fit.taps[:4] == 0.0)

    def test_residual_orthogonal_to_regressors(self, rng):
        exc = make_excitation(120.0, 16000)
        known = LtvFirCoeffs(rng.normal(size=(100, N_TAPS)) * 0.2, 0.010, FS)
        clean = apply_ltv(exc, known, interpolate_taps=False)
        target = AudioSignal(clean.samples + 0.01 * rng.normal(size=16000), FS)
        fit = fit_coeffs_least_squares(exc, target, FitConfig(ridge_lambda=0.0))
        lag = _lagged(exc.samples, N_TAPS)
        for f in range(100):
            sl = slice(f * HOP, (f + 1) * HOP)
            block = lag[sl]
            resid = target.samples[sl] - block @ fit.taps[f]
            cos = np.abs(block.T @ resid) / (
                np.linalg.norm(block, axis=0) * np.linalg.norm(resid) + 1e-300
            )
            assert cos.max() < 1e-8

    def test_fit_never_increases_per_frame_error(self, rng):
        exc = make_excitation(150.0, 16000)
        target = AudioSignal(0.4 * rng.normal(size=16000), FS)
        fit = fit_coeffs_least_squares(exc, target, FitConfig(ridge_lambda=0.0))
        refiltered = apply_ltv(exc, fit, interpolate_taps=False)
        for f in range(100):
            sl = slice(f * HOP, (f + 1) * HOP)
            rmse_fit = np.sqrt(np.mean((target.samples[sl] - refiltered.samples[sl]) ** 2))
            rmse_raw = np.sqrt(np.mean((target.samples[sl] - exc.samples[sl]) ** 2))
            assert rmse_fit <= rmse_raw + 1e-9

    def test_empty_signal_rejected(self):
        x = AudioSignal(np.zeros(0), FS)
        for lam in (1e-6, 0.0):
            with pytest.raises(DomainError):
                fit_coeffs_least_squares(x, x, FitConfig(ridge_lambda=lam))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e200])
    def test_huge_excitation_fails_the_ridge_fit_without_a_warning(self, scale):
        """The ridge Gram overflowed to non-finite taps; such an excitation is now refused
        as it is made, beyond errors.SAMPLE_LIMIT."""
        noise = np.random.default_rng(0).standard_normal(4 * HOP)
        with pytest.raises(DomainError, match="finite"):
            exc, target = AudioSignal(scale * noise, FS), AudioSignal(noise, FS)
            fit_coeffs_least_squares(exc, target)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("level", [1e5, 1e10])
    def test_constant_excitation_above_the_ridge_rounding(self, level):
        """A constant excitation puts lambda = 1e-6 below the rounding of its frames' Gram
        (160 * level**2), so their solve meets an exact zero pivot; those frames get their
        min-norm lstsq taps, and frame 0, whose lagged rows start with zeros, its ridge taps."""
        exc, target = AudioSignal(np.full(10 * HOP, level), FS), gaussian_noise(10 * HOP, FS, 1)
        taps = fit_coeffs_least_squares(exc, target).taps
        np.testing.assert_array_equal(taps, fit_ridge_loop(exc, target, FitConfig()))

    def test_hop_below_one_sample_rejected(self):
        x = AudioSignal(np.ones(100), FS)
        with pytest.raises(ConfigError, match="at least one sample"):
            fit_coeffs_least_squares(x, x, FitConfig(frame_hop_seconds=1e-5))

    def test_tap_count_checked_before_allocation(self):
        """3e9 taps would need a 22 GiB lagged matrix; the fit refuses it first."""
        x = AudioSignal(np.ones(100), FS)
        with pytest.raises(ConfigError, match="lagged samples"):
            fit_coeffs_least_squares(x, x, FitConfig(n_taps=3_000_000_000))

    def test_whole_float_tap_count_becomes_int(self):
        n_taps = FitConfig(n_taps=16.0).n_taps
        assert n_taps == 16 and isinstance(n_taps, int)


class TestRidgeMatchesLoop:
    """Batched ridge solves over slices of the strided view against one solve per frame."""

    @settings(max_examples=150, deadline=None)
    @given(
        hop=st.integers(1, 200),
        n_taps=st.integers(1, 80),
        log_lambda=st.floats(-9.0, 1.0),
        n_frames=st.integers(1, 6),
        tail=st.floats(0.0, 1.0, exclude_max=True),
        n_harmonics=st.integers(0, 40),
        gap=st.booleans(),
        silence=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(hop=160, n_taps=64, log_lambda=-6.0, n_frames=6, tail=0.5, n_harmonics=30,
             gap=True, silence=0.2, seed=0)
    @example(hop=48, n_taps=64, log_lambda=-6.0, n_frames=5, tail=0.5, n_harmonics=0,
             gap=True, silence=0.0, seed=1)
    @example(hop=1, n_taps=80, log_lambda=1.0, n_frames=6, tail=0.0, n_harmonics=0,
             gap=False, silence=1.0, seed=2)
    def test_matches_loop(
        self, hop, n_taps, log_lambda, n_frames, tail, n_harmonics, gap, silence, seed
    ):
        """Excitation of ``n_harmonics`` sines (none: white noise), target random.

        ``gap`` zeros 2 hops + n_taps samples, a whole dead frame when the
        signal is long enough; ``silence`` zeros that share of the signal
        from its start (all of it at 1.0); ``tail`` leaves a partial last
        frame.  Frames with few harmonics or ``hop < n_taps`` are rank
        deficient, and only lambda makes their Gram matrix invertible.
        """
        rng = np.random.default_rng(seed)
        n = n_frames * hop + int(tail * hop)
        if n_harmonics:
            f0 = rng.uniform(50.0, FS / (2 * n_harmonics) - 1.0)
            k = np.arange(1, n_harmonics + 1)[:, None]
            phases = rng.uniform(0, 2 * np.pi, size=(n_harmonics, 1))
            x = np.sin(2 * np.pi * f0 / FS * k * np.arange(n) + phases).sum(axis=0)
        else:
            x = rng.normal(size=n)
        if gap:
            x[n // 4 : n // 4 + 2 * hop + n_taps] = 0.0
        x[: int(silence * n)] = 0.0
        exc, target = AudioSignal(x, FS), AudioSignal(rng.normal(size=n), FS)
        cfg = FitConfig(n_taps=n_taps, ridge_lambda=10.0**log_lambda, frame_hop_seconds=hop / FS)
        np.testing.assert_allclose(
            fit_coeffs_least_squares(exc, target, cfg).taps,
            fit_ridge_loop(exc, target, cfg),
            rtol=0,
            atol=1e-12,
        )


def min_norm_config(hop, n_taps):
    return FitConfig(n_taps=n_taps, ridge_lambda=0.0, frame_hop_seconds=hop / FS)


def singular_frame_inputs(rng):
    """1 s of full-rank frames but frame 50, whose lagged block holds one non-zero sample."""
    x = rng.normal(size=16000)
    x[50 * HOP - N_TAPS + 1 : 51 * HOP] = 0.0
    x[51 * HOP - 1] = 1.0
    exc = AudioSignal(x, FS)
    known = LtvFirCoeffs(0.2 * rng.normal(size=(100, N_TAPS)), 0.010, FS)
    clean = apply_ltv(exc, known, interpolate_taps=False).samples
    return exc, AudioSignal(clean + 0.01 * rng.normal(size=16000), FS)


class TestMinNormMatchesLstsqLoop:
    """The blocked Cholesky with its gate against one ``np.linalg.lstsq`` per frame."""

    @settings(max_examples=150, deadline=None)
    @given(
        hop=st.integers(1, 200),
        n_taps=st.integers(1, 80),
        n_frames=st.integers(1, 6),
        tail=st.floats(0.0, 1.0, exclude_max=True),
        n_harmonics=st.integers(0, 40),
        floor=st.sampled_from([0.0, 1e-9, 1e-5, 1e-4, 1e-3, 1e-2]),
        target=st.sampled_from(["filtered", "noisy", "orthogonal"]),
        gap=st.booleans(),
        lone_last=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(hop=160, n_taps=64, n_frames=6, tail=0.0, n_harmonics=30, floor=0.0,
             target="filtered", gap=False, lone_last=False, seed=0)
    @example(hop=160, n_taps=64, n_frames=4, tail=0.5, n_harmonics=12, floor=1e-4,
             target="orthogonal", gap=True, lone_last=True, seed=1)
    @example(hop=64, n_taps=64, n_frames=3, tail=0.0, n_harmonics=0, floor=1e-2,
             target="noisy", gap=False, lone_last=False, seed=2)
    def test_matches_loop(
        self, hop, n_taps, n_frames, tail, n_harmonics, floor, target, gap, lone_last, seed
    ):
        """Stationary excitation of ``n_harmonics`` sines (none: white noise) over a noise floor.

        Few harmonics (2K < n_taps) make frames rank-deficient and the floor
        sets how close to singular they are; floors of 1e-4 and 1e-3 put
        kappa where the gate decides.  Targets are the excitation through
        random held taps, that plus white noise, or noise made orthogonal
        to each full frame's regressors plus a small filtered part: a large
        residual with small taps, where the bound's ``kappa * rho`` term is
        what sends a frame to ``lstsq``.  ``gap`` zeros 2 hops + n_taps
        samples, which holds a whole frame's regressors when the signal is
        long enough; ``lone_last`` leaves frame 0 one non-zero sample, its
        last (an exactly singular R).
        """
        rng = np.random.default_rng(seed)
        n = n_frames * hop + int(tail * hop)
        t = np.arange(n)
        if n_harmonics:
            f0 = rng.uniform(50.0, FS / (2 * n_harmonics) - 1.0)
            k = np.arange(1, n_harmonics + 1)[:, None]
            phases = rng.uniform(0, 2 * np.pi, size=(n_harmonics, 1))
            x = np.sin(2 * np.pi * f0 / FS * k * t + phases).sum(axis=0)
        else:
            x = rng.normal(size=n)
        x += floor * rng.normal(size=n)
        if gap:
            x[n // 4 : n // 4 + 2 * hop + n_taps] = 0.0
        if lone_last:
            x[: hop - 1], x[hop - 1] = 0.0, 1.0
        exc = AudioSignal(x, FS)

        h = LtvFirCoeffs(0.3 * rng.normal(size=(n_frames_for(n, hop), n_taps)), hop / FS, FS)
        y = apply_ltv(exc, h, interpolate_taps=False).samples
        if target == "noisy":
            y = y + rng.normal(size=n)
        elif target == "orthogonal":
            y = 1e-3 * y + rng.normal(size=n)
            lag = _lagged(x, n_taps)
            for f in range(n // hop if hop >= n_taps else 0):
                sl = slice(f * hop, (f + 1) * hop)
                q = np.linalg.qr(lag[sl])[0]
                y[sl] -= q @ (q.T @ (y[sl] - 1e-3 * (lag[sl] @ h.taps[f])))

        cfg = min_norm_config(hop, n_taps)
        np.testing.assert_allclose(
            fit_coeffs_least_squares(exc, AudioSignal(y, FS), cfg).taps,
            fit_min_norm_loop(exc, AudioSignal(y, FS), cfg),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [16000, 16100])
    def test_well_conditioned_full_frames_skip_lstsq(self, rng, monkeypatch, n):
        """Full-rank full frames are all certified, so the speed-up is not lost to the fallback.

        At 16,100 samples the last frame is a partial one of 100 rows, which
        goes through the same solver and is certified too.
        """
        exc = AudioSignal(rng.normal(size=n), FS)
        known = LtvFirCoeffs(0.2 * rng.normal(size=(n_frames_for(n, HOP), N_TAPS)), 0.010, FS)
        clean = apply_ltv(exc, known, interpolate_taps=False).samples
        target = AudioSignal(clean + 0.01 * rng.normal(size=n), FS)
        cfg = min_norm_config(HOP, N_TAPS)
        expected = fit_min_norm_loop(exc, target, cfg)

        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        fit = fit_coeffs_least_squares(exc, target, cfg)
        assert len(calls) == 0
        np.testing.assert_allclose(fit.taps, expected, rtol=0, atol=1e-12)

    def test_singular_frame_costs_its_block_no_other_frame(self, rng, monkeypatch):
        """One frame of full-rank full frames whose Gram matrix is exactly singular.

        Frame 50's lagged block holds one non-zero sample, its last, so its
        Gram matrix has rank 1 and a batched Cholesky of its block raises.
        Only that frame may go to ``lstsq``; the other frames of its block
        are retried one at a time and certified.
        """
        exc, target = singular_frame_inputs(rng)
        cfg = min_norm_config(HOP, N_TAPS)
        expected = fit_min_norm_loop(exc, target, cfg)

        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        fit = fit_coeffs_least_squares(exc, target, cfg)
        assert len(calls) == 1
        assert np.count_nonzero(calls[0][0]) == 1
        np.testing.assert_allclose(fit.taps, expected, rtol=0, atol=1e-12)


    def test_hop_below_tap_count_factors_nothing(self, rng, monkeypatch):
        """At a 48-sample hop and 64 taps every G is singular: no block reaches the Cholesky."""
        exc = AudioSignal(rng.normal(size=4000), FS)
        known = LtvFirCoeffs(0.2 * rng.normal(size=(n_frames_for(4000, 48), N_TAPS)), 48 / FS, FS)
        target = AudioSignal(apply_ltv(exc, known, interpolate_taps=False).samples, FS)
        cfg = min_norm_config(48, N_TAPS)
        expected = fit_min_norm_loop(exc, target, cfg)

        calls = []
        cholesky = np.linalg.cholesky

        def counting_cholesky(*args, **kwargs):
            calls.append(args)
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        fit = fit_coeffs_least_squares(exc, target, cfg)
        assert len(calls) == 0
        np.testing.assert_allclose(fit.taps, expected, rtol=0, atol=1e-12)


class TestMinNormMatchesSolve:
    """``_min_norm``'s Cholesky path against the QR solve it replaced (``min_norm_solve``)."""

    @settings(max_examples=100, deadline=None)
    @given(
        n_taps=st.integers(1, 80),
        n_frames=st.integers(1, 12),
        extra_rows=st.integers(0, 3),
        log_spread=st.floats(0.0, 3.0),
        n_zeros=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_taps=64, n_frames=12, extra_rows=3, log_spread=1.0, n_zeros=0, seed=0)
    @example(n_taps=61, n_frames=12, extra_rows=1, log_spread=2.0, n_zeros=3, seed=1)
    @example(n_taps=1, n_frames=3, extra_rows=0, log_spread=0.0, n_zeros=1, seed=2)
    def test_matches_solve(self, n_taps, n_frames, extra_rows, log_spread, n_zeros, seed):
        """Upper-triangular R over ``extra_rows`` zero rows: the QR leaves R as it is, and R^T R is G.

        The diagonal spans ``log_spread`` decades, which puts kappa where the
        gate decides (about half of the frames pass); ``n_zeros`` diagonal
        entries are exactly zero.  The target is R times taps near 0.1 plus
        a small residual in the extra rows.
        """
        rng = np.random.default_rng(seed)
        r = np.triu(rng.normal(size=(n_frames, n_taps, n_taps))) / n_taps
        d = np.arange(n_taps)
        r[:, d, d] = rng.choice([-1.0, 1.0], (n_frames, n_taps)) * 10.0 ** -rng.uniform(
            0.0, log_spread, (n_frames, n_taps)
        )
        zero_frames = rng.integers(n_frames, size=n_zeros)
        zero_at = rng.integers(n_taps, size=n_zeros)
        r[zero_frames, zero_at, zero_at] = 0.0
        a = np.concatenate([r, np.zeros((n_frames, extra_rows, n_taps))], axis=1)
        fit = r @ (0.1 * rng.normal(size=(n_frames, n_taps, 1)))
        y = np.concatenate([fit, 1e-3 * rng.normal(size=(n_frames, extra_rows, 1))], axis=1)

        x, uncertified = _solve_block(_min_norm, a, y)  # as the fit walks a block
        want, want_uncertified = min_norm_solve(a, y)
        assert uncertified[zero_frames].all()
        both = ~uncertified & ~want_uncertified
        np.testing.assert_allclose(x[both], want[both], rtol=0, atol=1e-12)


@pytest.mark.parametrize("elems", [1, 1 << 15])
def test_block_size_changes_no_output(rng, monkeypatch, elems):
    """Every blocked stage gives the same bits at any ``signal_core.BLOCK_ELEMS``.

    The default holds 8 fit or filter frames of 200 x 80, 16 of the
    estimator's 60 autocorrelation rows, and 87 of ``refine_pitch``'s 150
    frames at 120 Hz and all 100 at 180 Hz (87 and 113 a block) per block;
    1 << 15 holds 2, 4, and 21 and 28, and 1 one row.  The fits see 40 full frames and a partial
    one, a dead gap, and 10-harmonic frames that the min-norm gate sends to
    ``lstsq``.  The STFT users see 34 to 162 frames of the 8,077-sample
    target: 30, 7 and 1 of the loss's 2048-point frames to a block.
    """
    hop, n_taps = 200, 80
    n = 40 * hop + 77
    t = np.arange(n)[n // 2 :]
    x = rng.normal(size=n)
    x[n // 2 :] = np.sin(2 * np.pi * 150.0 / FS * np.arange(1, 11)[:, None] * t).sum(axis=0)
    x[n // 2 :] += 1e-4 * rng.normal(size=len(t))
    x[n // 4 : n // 4 + 3 * hop] = 0.0
    exc = AudioSignal(x, FS)
    h = LtvFirCoeffs(0.3 * rng.normal(size=(n_frames_for(n, hop), n_taps)), hop / FS, FS)
    target = AudioSignal(apply_ltv(exc, h, False).samples + 1e-3 * rng.normal(size=n), FS)
    mel = MelSpectrogram(-4.0 + 4.0 * rng.normal(size=(60, 80)), StftConfig(), FS)
    f0 = np.concatenate([np.zeros(5), np.full(150, 120.0), np.zeros(10), np.full(100, 180.0)])
    track = F0Track(f0, 0.010)
    voice = sine_excitation(interpolate_f0(track, FS, len(f0) * HOP))

    def outputs():
        return [
            fit_coeffs_least_squares(exc, target, FitConfig(n_taps, 1e-3, hop / FS)).taps,
            fit_coeffs_least_squares(exc, target, FitConfig(n_taps, 0.0, hop / FS)).taps,
            apply_ltv(exc, h).samples,
            apply_ltv(exc, h, False).samples,
            estimate_coeffs_from_mel(mel).taps,
            refine_pitch(voice, track),
            [*astuple(mr_stft_loss(exc, target))],
            mel_spectrogram(target).frames,
            stft_magnitude(target),
        ]

    expected = outputs()
    monkeypatch.setattr(signal_core, "BLOCK_ELEMS", elems)
    for got, want in zip(outputs(), expected):
        assert np.array_equal(got, want, equal_nan=True)


def ten_second_inputs():
    """10 s of a 120 Hz voice with vibrato, unvoiced for 0.2 s each second, and it plus noise."""
    t = np.arange(1000) * 0.01
    f0 = np.where(t % 1.0 < 0.8, 120.0 * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t)), 0.0)
    x = sine_excitation(interpolate_f0(F0Track(f0), FS, 160000))
    return x, AudioSignal(x.samples + 0.01 * gaussian_noise(160000, FS, 9).samples, FS)


class TestFitWorkers:
    """The fit solves each slice of frames, and the ``lstsq`` frames the solver
    leaves in it, as one item on ``signal_core._each``'s threads."""

    @pytest.mark.parametrize("ridge_lambda", [1e-6, 0.0])
    def test_same_bits_at_any_worker_count(self, rng, monkeypatch, ridge_lambda):
        """Four inputs at 1, 2 and 64 workers; every thread has ended when the fit returns.

        The 10 s input makes 70 blocks at a 10 ms hop, and its first 16,100
        samples end in a live partial frame of 100.  At a 3 ms hop (48
        samples, fewer than the 64 taps) every live min-norm frame goes to
        ``lstsq`` inside its block's item.  The singular-frame input's
        min-norm fit retries one block frame by frame and sends frame 50 to
        ``lstsq``.
        """
        x, y = ten_second_inputs()
        head = AudioSignal(x.samples[:16100], FS), AudioSignal(y.samples[:16100], FS)
        cases = [(x, y, HOP), (*head, HOP), (x, y, 48), (*singular_frame_inputs(rng), HOP)]
        threads = threading.active_count()
        for exc, target, hop in cases:
            cfg = FitConfig(N_TAPS, ridge_lambda, hop / FS)
            taps = []
            for workers in (1, 2, 64):
                monkeypatch.setattr(signal_core, "WORKERS", workers)
                taps.append(fit_coeffs_least_squares(exc, target, cfg).taps)
                assert threading.active_count() == threads
            assert all(np.array_equal(t, taps[0]) for t in taps[1:])

    def test_each_uncertified_frame_is_solved_once(self, monkeypatch):
        """At a 3 ms hop every live min-norm frame is uncertified: one ``lstsq`` call each."""
        x, y = ten_second_inputs()
        hop = 48
        lag = _lagged(x.samples, N_TAPS)
        live = [f for f in range(n_frames_for(len(x), hop)) if lag[f * hop : (f + 1) * hop].any()]
        starts = []  # where each call's lagged rows begin
        lstsq = np.linalg.lstsq

        def recording_lstsq(a, *args, **kwargs):
            starts.append(a.__array_interface__["data"][0])
            return lstsq(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        monkeypatch.setattr(signal_core, "WORKERS", 2)
        fit_coeffs_least_squares(x, y, min_norm_config(hop, N_TAPS))
        assert len(starts) == len(set(starts)) == len(live)

    @pytest.mark.parametrize("ridge_lambda", [1e-6, 0.0])
    def test_solver_gets_views_of_the_lagged_matrix(self, rng, monkeypatch, ridge_lambda):
        """Every block and the live partial last frame reach the solver as views.

        A copy of the lagged rows would send ``_ridge``'s Gram product through
        BLAS and move its taps by about 1e-9.  The random excitation keeps
        every Gram matrix positive definite, so ``_min_norm`` retries no block.
        """
        exc = AudioSignal(rng.normal(size=16100), FS)
        target = AudioSignal(rng.normal(size=16100), FS)
        lagged, rows = [], []

        def recording_lagged(x, n_taps):
            lagged.append(_lagged(x, n_taps))
            return lagged[-1]

        name = "_ridge" if ridge_lambda else "_min_norm"
        solver = getattr(ltv, name)

        def recording_solver(a, y, **kwargs):
            assert np.shares_memory(a, lagged[0]) and np.shares_memory(y, target.samples)
            rows.append(a.shape[1])
            return solver(a, y, **kwargs)

        monkeypatch.setattr(ltv, "_lagged", recording_lagged)
        monkeypatch.setattr(ltv, name, recording_solver)
        fit_coeffs_least_squares(exc, target, FitConfig(N_TAPS, ridge_lambda, HOP / FS))
        assert sorted(rows) == [100] + [HOP] * (len(rows) - 1)

    def test_a_block_error_reaches_the_caller_and_every_thread_ends(self, rng, monkeypatch):
        exc, target = singular_frame_inputs(rng)
        error = RuntimeError("block 3")
        calls = []

        def failing_min_norm(a, y):
            calls.append(len(a))
            if len(calls) == 3:
                raise error
            return _min_norm(a, y)

        monkeypatch.setattr(ltv, "_min_norm", failing_min_norm)
        monkeypatch.setattr(signal_core, "WORKERS", 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            fit_coeffs_least_squares(exc, target, min_norm_config(HOP, N_TAPS))
        assert raised.value is error
        assert threading.active_count() == before


def test_each_after_an_error_hands_out_no_more_items(monkeypatch):
    monkeypatch.setattr(signal_core, "WORKERS", 2)
    error = ValueError("item 0")
    done = []

    def work(item):
        if item == 0:
            raise error
        time.sleep(0.001)
        done.append(item)

    with pytest.raises(ValueError) as raised:
        signal_core._each(work, range(1000))
    assert raised.value is error
    assert len(done) < 999


def test_each_raises_when_a_thread_does_not_start(monkeypatch):
    """At four workers the second ``Thread.start`` fails: the one started thread is joined,
    and that error is raised."""
    monkeypatch.setattr(signal_core, "WORKERS", 4)
    error, start, started = RuntimeError("can't start new thread"), threading.Thread.start, []

    def start_once(thread):
        if started:
            raise error
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    with pytest.raises(RuntimeError) as raised:
        signal_core._each(lambda _: None, range(100))
    assert raised.value is error
    assert len(started) == 1 and not started[0].is_alive()


def test_each_hands_out_every_item_once(monkeypatch):
    """64 threads on 20,000 items, switching as often as the interpreter allows: each item is
    handed out once."""
    monkeypatch.setattr(signal_core, "WORKERS", 64)
    done = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        signal_core._each(done.append, range(20000))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == list(range(20000))


def test_each_starts_no_thread_for_one_worker_or_item(monkeypatch):
    ran_on = []
    for workers, items in ((1, range(5)), (64, range(1))):
        monkeypatch.setattr(signal_core, "WORKERS", workers)
        signal_core._each(lambda _: ran_on.append(threading.get_ident()), items)
    assert ran_on == [threading.get_ident()] * 6


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1 keeps np.errstate per thread"
)
def test_each_workers_see_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(signal_core, "WORKERS", 2)
    meet = threading.Barrier(2, timeout=30)  # the two items run on two threads at once
    seen = {}

    def record(_):
        meet.wait()
        seen[threading.get_ident()] = np.geterr()["divide"]

    with np.errstate(divide="raise"):
        signal_core._each(record, range(2))
    assert list(seen.values()) == ["raise", "raise"]


class TestEstimateFromMel:
    def flat_mel(self, level, n_frames=3):
        return MelSpectrogram(np.full((n_frames, 80), level), StftConfig(), FS)

    def test_flat_envelope_gives_flat_response(self):
        mel = self.flat_mel(np.log(0.04))
        h = estimate_coeffs_from_mel(mel)
        resp = frequency_response(h, 0, 1024)
        freqs = np.arange(513) * FS / 1024
        band = resp[(freqs >= 100) & (freqs <= 7000)]
        # flat within +/-3 dB of the band midrange
        assert band.max() - band.min() < 6.0
        # raising the input level raises the response level
        h2 = estimate_coeffs_from_mel(self.flat_mel(np.log(0.16)))
        resp2 = frequency_response(h2, 0, 1024)
        assert resp2.mean() > resp.mean()

    def test_silence_floor_propagates(self):
        mel = self.flat_mel(np.log(1e-5), n_frames=1)
        h = estimate_coeffs_from_mel(mel, floor_db=-50.0)
        assert frequency_response(h, 0, 1024).max() <= -50.0 + 6.0

    def test_single_band_peak_in_support(self):
        frames = np.full((1, 80), np.log(1e-5))
        frames[0, 40] = 0.0
        mel = MelSpectrogram(frames, StftConfig(), FS)
        h = estimate_coeffs_from_mel(mel)
        peak_bin = int(np.argmax(frequency_response(h, 0, 1024)))
        support = np.flatnonzero(mel_filterbank_dense(80, 1024, FS)[40] > 0)
        assert support.min() <= peak_bin <= support.max()

    def test_envelope_size_checked_before_allocation(self):
        mel = MelSpectrogram(np.zeros((2**22, 1)), StftConfig(), FS)  # 2**22 x 513 bins
        with pytest.raises(ConfigError, match="envelope bins"):
            estimate_coeffs_from_mel(mel)

    def test_walks_blocks_of_frames(self):
        """Peak traced memory on 64 frames at fft_size 2**16: each holds a 2 MiB envelope row.

        Block by block it peaked at 2.7 MiB; with whole frames x bins arrays at 80.3 MiB.
        """
        mel = MelSpectrogram(np.random.default_rng(0).normal(-6.0, 2.0, (64, 80)),
                             StftConfig(2**16, 640, 160), FS)
        tracemalloc.start()
        try:
            estimate_coeffs_from_mel(mel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"{peak / 2**20:.1f} MiB"

    @settings(max_examples=40, deadline=None)
    @given(
        notches=st.booleans(),
        span_db=st.floats(0.0, 240.0),
        centers=st.lists(st.integers(0, 79), min_size=3, max_size=3),
        width=st.floats(0.5, 4.0),
        rough_db=st.floats(0.0, 40.0),
        n_taps=st.integers(2, 128),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(notches=True, span_db=0.0, centers=[0, 0, 0], width=1.0, rough_db=40.0, n_taps=64, seed=0)
    def test_minimum_phase_roots_inside_unit_circle(
        self, notches, span_db, centers, width, rough_db, n_taps, seed
    ):
        """Finite taps and zeros inside on peaked and deep-notch envelopes, up to a 240 dB span.

        Three frames of three bumps ``width`` bands wide, either notches
        ``span_db`` deep or peaks ``span_db`` high, each band roughened by up
        to ``rough_db``.  A floor of -240 dB (magnitude 1e-12, the floor of
        ``minimum_phase_fir``) keeps the whole span.
        """
        bump = np.exp(-0.5 * ((np.arange(80) - np.array(centers)[:, None]) / width) ** 2).max(0)
        shape_db = -span_db * (bump if notches else 1.0 - bump)
        rough = np.random.default_rng(seed).uniform(-rough_db, 0.0, size=(3, 80))
        mel = MelSpectrogram((shape_db + rough) / LOG10_FACTOR, StftConfig(), FS)
        h = estimate_coeffs_from_mel(mel, n_taps, floor_db=-240.0)
        assert np.isfinite(h.taps).all()
        for f in range(h.n_frames):
            assert np.abs(np.roots(h.taps[f])).max() <= 1.0 + 1e-6

    def test_frame_grid_matches_mel(self):
        mel = self.flat_mel(np.log(0.1), n_frames=7)
        h = estimate_coeffs_from_mel(mel)
        assert h.n_frames == 7
        assert h.hop_seconds == pytest.approx(0.010)

    def test_round_trip_with_known_envelope(self, rng):
        # response of the produced taps matches the imposed envelope in-band
        freqs = np.arange(513) * FS / 1024
        mag_db = -6.0 - 6.0 * ((freqs - 2000.0) / 3000.0) ** 2
        fbank = mel_filterbank_dense(80, 1024, FS)
        power = (10 ** (mag_db / 10.0))[None, :] @ fbank.T
        mel = MelSpectrogram(np.log(power), StftConfig(), FS)
        h = estimate_coeffs_from_mel(mel, n_taps=N_TAPS)
        resp = frequency_response(h, 0, 1024)
        band = (freqs >= 300) & (freqs <= 5000)
        assert np.max(np.abs(resp[band] - mag_db[band])) < 3.0

    def test_fractional_tap_count_rejected(self):
        with pytest.raises(ConfigError):
            estimate_coeffs_from_mel(self.flat_mel(0.0), n_taps=2.5)

    def test_floor_below_minus_240_db_is_minus_240_db(self):
        """``floor_db`` and the 1e-12 magnitude floor of ``minimum_phase_fir`` are one floor."""
        mel = banded_mel(-60.0, 4.5, 1, 4, 0)
        assert (_mel_log_power(mel)(slice(None)) < -240.0 / LOG10_FACTOR).any()  # the floor binds
        want = estimate_coeffs_from_mel(mel, 32, -240.0).taps
        for floor_db in (-240.5, -300.0, -1e308):
            np.testing.assert_array_equal(estimate_coeffs_from_mel(mel, 32, floor_db).taps, want)

    @pytest.mark.filterwarnings("error")
    def test_magnitudes_up_to_1e150(self):
        """A level just under magnitude 1e150 gives finite taps; just over, a DomainError."""
        peak = _mel_log_power(self.flat_mel(0.0, n_frames=1))(slice(None)).max()
        bound = 2.0 * np.log(1e150)  # log power of magnitude 1e150
        h = estimate_coeffs_from_mel(self.flat_mel(bound - peak - 1e-9, n_frames=1))
        assert np.isfinite(h.taps).all()
        with pytest.raises(DomainError, match="below 1e150"):
            estimate_coeffs_from_mel(self.flat_mel(bound - peak + 1e-9, n_frames=1))


def banded_mel(level, depth, smooth, n_frames, seed):
    """Log-mel frames of mean ``level`` whose bands stray by ``depth``, ``smooth`` bands at a time."""
    noise = np.random.default_rng(seed).normal(size=(n_frames, 80 + smooth - 1))
    bands = np.lib.stride_tricks.sliding_window_view(noise, smooth, axis=1).mean(axis=-1)
    return MelSpectrogram(level + depth * np.sqrt(smooth) * bands, StftConfig(), FS)


# The ranges cover the benchmark's log-mel frames (means -11.5 to 0, band
# spread up to 4.3, taps below 0.3) and reach taps near 18.
BANDED_MELS = st.builds(
    banded_mel,
    level=st.floats(-12.0, 0.0),
    depth=st.floats(0.0, 4.5),
    smooth=st.integers(1, 24),
    n_frames=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)


class TestEstimateMatchesLevinsonLoop:
    """The batched Levinson-Durbin recursion against per-frame solvers."""

    @settings(max_examples=40, deadline=None)
    @given(mel=BANDED_MELS, n_taps=st.integers(2, 128), floor_db=st.floats(-90.0, -20.0))
    # one frame, whose dot products a plain ``sum`` adds pairwise: 1.07e-12 off the loop
    @example(mel=banded_mel(0.0, 3.875, 1, 1, 0), n_taps=76, floor_db=-29.0)
    def test_matches_loop(self, mel, n_taps, floor_db):
        np.testing.assert_allclose(
            estimate_coeffs_from_mel(mel, n_taps, floor_db).taps,
            estimate_taps_loop(mel, n_taps, floor_db),
            rtol=0,
            atol=1e-12,
        )

    @settings(max_examples=40, deadline=None)
    @given(mel=BANDED_MELS, n_taps=st.integers(2, 128), floor_db=st.floats(-90.0, -20.0))
    # frame 12 has |k| = 0.987, so E = r0 (1 - k^2) cancels: 1.67e-16 off, while the
    # 1 x 1 toeplitz(row[:-1]) has kappa 1 and toeplitz(row) has kappa 158
    @example(mel=banded_mel(0.0, 3.25, 9, 13, 134217728), n_taps=2, floor_db=-49.0)
    def test_matches_solve_toeplitz(self, mel, n_taps, floor_db):
        """The predictor from ``scipy.linalg.solve_toeplitz``, within 4 n eps kappa max|h|.

        Both solvers lose accuracy with the condition number kappa of the
        n x n ``toeplitz(row)``, in which the error E is the Schur complement
        of the (n - 1) x (n - 1) system for the predictor; by interlacing,
        that kappa is never the smaller of the two.  On 24,657 frames drawn
        from these ranges kappa reached 3.2e9, the two were up to 3.1e-7
        apart, and the largest gap was 0.42 n eps kappa max|h|.
        """
        from scipy.linalg import solve_toeplitz, toeplitz

        taps = estimate_coeffs_from_mel(mel, n_taps, floor_db).taps
        level = np.maximum(_mel_log_power(mel)(slice(None)), max(floor_db, -240.0) / LOG10_FACTOR)
        inv_power = np.exp(-level)
        r = np.fft.irfft(inv_power, mel.config.fft_size)[:, :n_taps]
        r[:, 0] *= 1.0 + WNC
        for row, got in zip(r, taps):
            a = solve_toeplitz(row[:-1], -row[1:])
            want = np.concatenate([[1.0], a]) / np.sqrt(row[0] + a @ row[1:])
            kappa = np.linalg.cond(toeplitz(row))
            tol = 4 * n_taps * np.finfo(np.float64).eps * kappa * np.abs(want).max()
            assert np.abs(got - want).max() <= tol


def test_mel_magnitude_matches_dense_projection(rng):
    """Interpolation between band centres against the filterbank product, over many geometries.

    The ranges leave bins that no band reaches at both ends, and at 256-point
    FFTs the first bin a band reaches can lie past the first band centre.
    """
    built = past_first_centre = 0
    for fs, fft_size, n_mels, (f_min, f_max) in itertools.product(
        (8000.0, 16000.0, 22050.0), (256, 512, 1024, 2048), (1, 2, 40, 80, 128),
        ((0.0, 0.5), (125.0, 0.45), (300.0, 0.375)),
    ):
        stft = StftConfig(fft_size, min(fft_size, 640), min(fft_size, 160))
        frames = -6.0 + 3.0 * rng.normal(size=(20, n_mels))
        mel = MelSpectrogram(frames, stft, fs, (f_min, f_max * fs))
        try:
            want = mel_log_power_dense(mel)
        except ConfigError:  # a band covers no bin
            continue
        built += 1
        freqs = np.arange(stft.n_bins) * (fs / fft_size)
        past_first_centre += freqs[freqs > f_min][0] > mel_edges(n_mels, f_min, f_max * fs)[1]
        # 2e-13 on the log power is rtol 1e-13 on its magnitude
        got = _mel_log_power(mel)(slice(None))
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-13)
        if n_mels == 1:
            assert np.ptp(got, axis=1).max() == 0.0
    assert built >= 150 and past_first_centre > 0


class TestFrequencyResponse:
    def test_delta_is_flat_zero_db(self):
        resp = frequency_response(delta_coeffs(1), 0, 256)
        np.testing.assert_allclose(resp, 0.0, atol=1e-9)

    def test_two_tap_averager(self):
        h = LtvFirCoeffs(np.array([[0.5, 0.5]]), 0.010, FS)
        resp = frequency_response(h, 0, 256)
        assert resp[0] == pytest.approx(0.0, abs=1e-9)
        assert resp[-1] == -120.0

    def test_frame_out_of_range(self):
        with pytest.raises(IndexError):
            frequency_response(delta_coeffs(2), 5, 256)

    def test_nfft_too_small_rejected(self):
        with pytest.raises(ConfigError):
            frequency_response(delta_coeffs(1), 0, 16)


class TestMinimumPhaseFir:
    def test_matches_requested_magnitude(self):
        mag = np.ones((1, 513))
        h = minimum_phase_fir(mag, 32, 1024)
        assert h.shape == (1, 32)
        resp = np.abs(np.fft.rfft(h, 1024))
        np.testing.assert_allclose(resp, 1.0, atol=1e-6)

    @pytest.mark.parametrize("c", [1e-3, 0.5, 1.0, 7.0])
    def test_flat_magnitude_keeps_its_gain(self, c):
        """A flat magnitude c has r = [c^-2, 0, ...]: taps [c / sqrt(1 + WNC), 0, ...]."""
        h = minimum_phase_fir(np.full((2, 513), c), 64, 1024)
        np.testing.assert_allclose(h[:, 0], c / math.sqrt(1.0 + WNC), rtol=1e-15)
        assert not h[:, 1:].any()

    def test_matches_levinson_loop(self):
        """A formant envelope with a 60 dB span, against the per-row recursion of its
        inverse power spectrum, which the oracle forms on its own."""
        freqs = np.linspace(0.0, FS / 2, 513)
        mag_db = np.maximum(-0.5 * ((freqs - np.array([[700.0], [2600.0]])) / 150.0) ** 2, -60.0)
        mag = 10 ** (mag_db / 20.0) * np.array([[1.0], [0.2]])
        oracle = levinson_loop(1.0 / np.square(mag), 64, 1024)
        np.testing.assert_allclose(minimum_phase_fir(mag, 64, 1024), oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "shape, n_taps, fft_size",
        [((1, 513), 0, 1024), ((1, 513), -3, 1024), ((1, 513), 1025, 1024), ((1, 512), 64, 1024),
         ((2, 3, 513), 64, 1024), ((1, 513), 2.5, 1024),
         ((513,), 64, 1024),  # one row, but not a frames x bins matrix
         ((1, 2), 1, 2.5), ((1, 1), 1, 0), ((1, 2), 1, np.nan)],
        ids=[f"shape{i}-{n}" for i, n in enumerate([0, -3, 1025, 64, 64, 2.5, 64])]
        + ["fft_size-2.5", "fft_size-0", "fft_size-nan"],
    )
    def test_bad_n_taps_or_bin_count_rejected(self, shape, n_taps, fft_size):
        with pytest.raises(ConfigError):
            minimum_phase_fir(np.ones(shape), n_taps, fft_size)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e150])
    def test_non_finite_or_huge_magnitude_rejected(self, value):
        with pytest.raises(DomainError):
            minimum_phase_fir(np.full((1, 5), value), 4, 8)


class TestCoeffFile:
    def test_round_trip(self, tmp_path, rng):
        h = LtvFirCoeffs(rng.normal(size=(20, 16)).astype(np.float32), 0.010, FS)
        path = tmp_path / "c.ltvf"
        write_coeffs(path, h)
        back = read_coeffs(path)
        assert back.n_frames == 20 and back.n_taps == 16
        assert back.hop_seconds == h.hop_seconds
        assert back.sample_rate == h.sample_rate
        np.testing.assert_array_equal(
            back.taps.astype(np.float32), h.taps.astype(np.float32)
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ltvf"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        from harmex import FormatError

        with pytest.raises(FormatError):
            read_coeffs(path)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make",
    [
        lambda: FitConfig(ridge_lambda=NAN),
        lambda: FitConfig(n_taps=NAN),
        lambda: FitConfig(n_taps=2.5),
        lambda: FitConfig(n_taps="64"),
        lambda: FitConfig(frame_hop_seconds=INF),
        lambda: LtvFirCoeffs(np.ones((2, 2)), NAN, FS),
        lambda: LtvFirCoeffs(np.ones((2, 2)), 0.010, NAN),
        lambda: LtvFirCoeffs(np.ones((2, 2)), 0.010, 0.0),
        lambda: LtvFirCoeffs(np.ones((2, 2)), 1e-5, 16000),
        lambda: AudioSignal(np.zeros(3), INF),
        lambda: ExcitationConfig(seed=-1),
        lambda: ExcitationConfig(seed=2.5),
        lambda: ExcitationConfig(k_max_cap=NAN),
        lambda: ExcitationConfig(k_max_cap=2.5),
        lambda: gaussian_noise(10, FS, -1),
        lambda: StftConfig(fft_size=1024.5),
    ],
    ids=[
        "ridge-nan", "n-taps-nan", "n-taps-2.5", "n-taps-str", "fit-hop-inf", "coeff-hop-nan", "coeff-rate-nan", "coeff-rate-0",
        "coeff-hop-below-one-sample", "audio-rate-inf", "seed-negative", "seed-2.5", "k-max-cap-nan",
        "k-max-cap-2.5", "noise-seed-negative", "fft-size-1024.5",
    ],
)
def test_non_finite_or_nonpositive_settings_rejected(make):
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize("offset, value", [(16, NAN), (16, -0.01), (24, INF), (24, 0.0)])
def test_coeff_file_rejects_bad_header_scalars(tmp_path, offset, value):
    """hop_seconds sits at byte 16 and sample_rate at byte 24 of the header."""
    import struct

    from harmex import FormatError

    path = tmp_path / "c.ltvf"
    write_coeffs(path, delta_coeffs(10, 4))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_coeffs(path)
