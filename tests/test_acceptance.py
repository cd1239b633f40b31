"""End-to-end acceptance checks for the whole toolkit.

Each test covers one headline guarantee and prints a single PASS/FAIL line so
the suite doubles as a checklist (`pytest tests/test_acceptance.py -v -s`).
Checks are asserted at their stated tolerances; a failing line means the
guarantee does not hold as stated, not that the check was skipped.
"""

import math
import time

import numpy as np

from harmex import (
    AudioSignal,
    ExcitationConfig,
    F0Track,
    FitConfig,
    LtvFirCoeffs,
    apply_ltv,
    combined_loss,
    downsample_multiscale,
    export_conditioning,
    fit_coeffs_least_squares,
    harmonic_count,
    interpolate_f0,
    mr_stft_loss,
    pitch_jitter,
    read_feature_file,
    sine_excitation,
    stack_channels,
    uv_error_rate,
)
from harmex.cli import main as cli_main

from conftest import FS, HOP, constant_track, formant_envelope_coeffs, make_excitation


def _report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_1_excitation_spectral_purity():
    failures = []
    duration = 4.0
    n_samples = int(duration * FS)
    for f0 in (100.0, 200.0, 400.0):
        start = time.perf_counter()
        x = make_excitation(f0, n_samples, seed=0)
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            failures.append(f"f0={f0}: synthesis took {elapsed:.2f}s (>= 1 s)")

        k_max = harmonic_count(f0, FS)
        spectrum = np.abs(np.fft.rfft(x.samples))
        harmonic_bins = (np.arange(1, k_max + 1) * f0 * duration).astype(int)
        non_harmonic = np.ones(len(spectrum), dtype=bool)
        non_harmonic[harmonic_bins] = False
        floor = spectrum[non_harmonic].max()
        weakest = spectrum[harmonic_bins].min()
        margin_db = 20 * np.log10(weakest / max(floor, 1e-300))
        if int(np.argmax(spectrum)) not in set(harmonic_bins.tolist()):
            failures.append(f"f0={f0}: global peak off the harmonic grid")
        if margin_db < 40.0:
            failures.append(f"f0={f0}: non-harmonic floor only {margin_db:.1f} dB down")

    # unvoiced samples are bit-exact zero
    values = np.full(100, 200.0)
    values[:20] = 0.0
    values[60:] = 0.0
    track = F0Track(values, 0.010)
    sample_f0 = interpolate_f0(track, FS, 100 * HOP)
    x = sine_excitation(sample_f0, ExcitationConfig(seed=0))
    unvoiced = x.samples[sample_f0.values == 0.0]
    if not (unvoiced == 0.0).all():
        failures.append("unvoiced samples are not bit-exact zero")

    _report(1, "excitation spectral purity", failures)


def test_criterion_2_lti_reduction_matches_direct_convolution():
    failures = []
    rng = np.random.default_rng(7)
    n, n_taps = 16000, 64
    x = AudioSignal(rng.standard_normal(n), FS)
    taps = rng.standard_normal(n_taps) * 0.2
    n_frames = math.ceil(n / HOP)
    h = LtvFirCoeffs(np.tile(taps, (n_frames, 1)), 0.010, FS)
    y = apply_ltv(x, h)
    oracle = np.convolve(x.samples, taps)[:n]
    err = np.abs(y.samples - oracle).max()
    if err >= 1e-12:
        failures.append(f"max abs deviation {err:.3e} >= 1e-12")
    _report(2, "constant-coefficient filtering equals direct convolution", failures)


def test_criterion_3_construct_then_recover():
    failures = []
    rng = np.random.default_rng(11)
    n = 16000
    exc = make_excitation(220.0, n, seed=3)
    n_frames = math.ceil(n / HOP)
    true = LtvFirCoeffs(rng.standard_normal((n_frames, 64)) * 0.1, 0.010, FS)
    target = apply_ltv(exc, true, interpolate_taps=False)

    fitted = fit_coeffs_least_squares(exc, target, FitConfig(ridge_lambda=0.0))
    refiltered = apply_ltv(exc, fitted, interpolate_taps=False)
    for f in range(1, n_frames - 1):
        sl = slice(f * HOP, (f + 1) * HOP)
        ref = np.linalg.norm(target.samples[sl])
        rel = np.linalg.norm(refiltered.samples[sl] - target.samples[sl]) / ref
        if rel >= 1e-6:
            failures.append(f"frame {f}: relative RMSE {rel:.3e} >= 1e-6")
            break

    # residual orthogonality, probed on a target the fit cannot reproduce exactly
    noisy = AudioSignal(
        target.samples + 0.01 * np.random.default_rng(12).standard_normal(n), FS
    )
    fit2 = fit_coeffs_least_squares(exc, noisy, FitConfig(ridge_lambda=0.0))
    resid = noisy.samples - apply_ltv(exc, fit2, interpolate_taps=False).samples
    lagged = np.concatenate([np.zeros(63), exc.samples])
    lagged = np.lib.stride_tricks.sliding_window_view(lagged, 64)[:, ::-1]
    worst = 0.0
    for f in range(n_frames):
        sl = slice(f * HOP, (f + 1) * HOP)
        r, block = resid[sl], lagged[sl]
        norms = np.linalg.norm(block, axis=0) * np.linalg.norm(r)
        ok = norms > 0
        if ok.any():
            worst = max(worst, np.abs(block[:, ok].T @ r / norms[ok]).max())
    if worst >= 1e-8:
        failures.append(f"normalized residual-regressor product {worst:.3e} >= 1e-8")
    _report(3, "construct-then-recover least-squares fit", failures)


def test_criterion_4_fit_improves_spectral_match_on_synthetic_vowels():
    failures = []
    n = 16000
    n_frames = math.ceil(n / HOP)
    reductions = []
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        f0 = 140.0 + 18.0 * i
        exc = make_excitation(f0, n, seed=i)
        envelope = formant_envelope_coeffs(n_frames, rng)
        target = apply_ltv(exc, envelope)
        fitted = fit_coeffs_least_squares(exc, target)
        filtered = apply_ltv(exc, fitted)
        raw_loss = mr_stft_loss(exc, target).total
        fit_loss = mr_stft_loss(filtered, target).total
        if fit_loss >= raw_loss:
            failures.append(f"vowel {i}: no improvement ({fit_loss:.4f} >= {raw_loss:.4f})")
        reductions.append(1.0 - fit_loss / raw_loss)
    med = float(np.median(reductions))
    if med < 0.5:
        failures.append(f"median loss reduction {med:.2%} < 50%")
    _report(4, "fitted filter matches vowel targets better than raw excitation", failures)


def test_criterion_5_loss_arithmetic():
    failures = []
    # dyadic-rational inputs make the weighted sum exactly representable
    got = combined_loss(l_dec=0.25, l_adv=0.5, l_stft=0.125)
    if got != 0.125 + 200 * 0.25 + 4 * 0.5:
        failures.append(f"weighted sum {got!r} != 52.125")

    rng = np.random.default_rng(5)
    x = AudioSignal(rng.standard_normal(16000), FS)
    zero = AudioSignal(np.zeros(16000), FS)
    same = mr_stft_loss(x, x)
    if not (same.sc == 0.0 and same.mag == 0.0):
        failures.append(f"equal inputs give sc={same.sc}, mag={same.mag}")
    against_zero = mr_stft_loss(zero, x)
    if abs(against_zero.sc - 1.0) >= 1e-9:
        failures.append(f"zero hypothesis sc={against_zero.sc}")
    doubled = mr_stft_loss(AudioSignal(2.0 * x.samples, FS), x)
    if abs(doubled.sc - 1.0) >= 1e-9 or abs(doubled.mag - math.log(2.0)) >= 1e-9:
        failures.append(f"2x scaling gives sc={doubled.sc}, mag={doubled.mag}")
    _report(5, "loss weighting and multi-resolution identities", failures)


def test_criterion_6_quality_metric_sanity():
    failures = []
    n_frames = 100
    track = constant_track(220.0, n_frames)
    exc = make_excitation(220.0, n_frames * HOP, seed=9)
    jitter = pitch_jitter(exc, track)
    if jitter >= 1.0:
        failures.append(f"self-jitter {jitter:.3f} cents >= 1")
    uv = uv_error_rate(exc, track)
    if uv != 0.0:
        failures.append(f"uv error rate {uv} != 0 on matching excitation")

    # frames alternating +/-50 cents around 220 Hz -> ~100 cents frame-to-frame
    base = 220.0
    n = n_frames * HOP
    ratio = 2.0 ** (50.0 / 1200.0)
    per_frame = np.where(np.arange(n_frames) % 2 == 0, base * ratio, base / ratio)
    idx = np.minimum((np.arange(n) + HOP // 2) // HOP, n_frames - 1)
    phase = np.cumsum(2 * np.pi * per_frame[idx] / FS)
    wobble = AudioSignal(0.1 * np.sin(phase), FS)
    jitter2 = pitch_jitter(wobble, constant_track(base, n_frames))
    if not (90.0 <= jitter2 <= 110.0):
        failures.append(f"alternating-cents jitter {jitter2:.2f} outside 100 +/- 10")
    _report(6, "pitch-jitter and voicing metrics", failures)


def test_criterion_7_multiscale_conditioning():
    failures = []
    factors = (8, 6, 5)
    for n in (16000, 16001, 48000):
        expected, m = [], n
        for f in factors:
            m //= f
            expected.append(m)
        sig = np.zeros(n)
        pyramid = downsample_multiscale(stack_channels(noise=AudioSignal(sig, FS)), factors)
        got = [len(level.channels["noise"]) for level in pyramid.levels]
        if got != expected:
            failures.append(f"N={n}: level lengths {got} != {expected}")

    dc = stack_channels(noise=AudioSignal(np.full(48000, 0.5), FS))
    for level in downsample_multiscale(dc, factors).levels:
        dev = np.abs(level.channels["noise"] - 0.5).max()
        if dev >= 1e-9:
            failures.append(f"DC deviation {dev:.3e} at x{level.cumulative_factor}")

    # A tone below a level's Nyquist must keep its amplitude within 0.5 dB; a
    # tone above it must be removed, not folded.  60 Hz is above the 33.3 Hz
    # Nyquist at x240, where plain x[::240] would alias it to 6.7 Hz at full
    # amplitude.  (100 Hz cannot show aliasing there: x[::240] samples it at
    # its zero crossings.)  The whole-level RMS includes the transient that
    # edge-replicated padding leaves at both ends.
    t = np.arange(48000) / FS
    tone_pyramids = {}
    for freq in (10.0, 60.0, 100.0):
        tone = stack_channels(noise=AudioSignal(np.sin(2 * np.pi * freq * t), FS))
        tone_pyramids[freq] = downsample_multiscale(tone, factors)
        for level in tone_pyramids[freq].levels:
            amp = math.sqrt(2.0) * float(np.sqrt(np.mean(level.channels["noise"] ** 2)))
            gain_db = 20 * math.log10(max(amp, 1e-300))
            nyquist = FS / (2 * level.cumulative_factor)
            if freq < nyquist and abs(gain_db) >= 0.5:
                failures.append(
                    f"{freq:g} Hz tone off by {abs(gain_db):.2f} dB"
                    f" at x{level.cumulative_factor}"
                )
            if freq > nyquist and gain_db > -30.0:
                failures.append(
                    f"{freq:g} Hz tone above Nyquist only {-gain_db:.2f} dB down"
                    f" at x{level.cumulative_factor}"
                )
    tone_pyramid = tone_pyramids[100.0]

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = export_conditioning(tone_pyramid, f"{tmp}/cond")
        for path, level in zip(paths, tone_pyramid.levels):
            data, hop = read_feature_file(path)
            expected = level.channels["noise"].astype(np.float32)
            if not np.array_equal(data[:, 0], expected):
                failures.append(f"{path}: round trip not bit-exact")
            if hop != level.cumulative_factor / FS:
                failures.append(f"{path}: hop {hop} != {level.cumulative_factor / FS}")

    _report(7, "multiscale conditioning pipeline", failures)


def test_criterion_8_demo_is_deterministic(tmp_path):
    failures = []
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        code = cli_main(["demo", "--out-dir", str(d), "--duration", "1.0"])
        if code != 0:
            failures.append(f"demo exited with {code}")
    binary = sorted(
        p.name for p in dirs[0].iterdir() if p.suffix in (".wav", ".hmx", ".ltvf")
    )
    if not binary:
        failures.append("demo produced no binary artifacts")
    for name in binary:
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
            failures.append(f"{name} differs between identical runs")
    _report(8, "demo determinism", failures)
