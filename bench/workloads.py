"""Seeded inputs, jobs and output checks of the three benchmark workloads.

Each job calls the public harmex functions in the order of the matching CLI
subcommands and writes and reads the same intermediate files, wrapping a
span around every call (see ``spans.py``).  Inputs are made before timing
starts; checks run after each job, outside its timed region.

Workloads:

* ``fit_resynth`` -- ``excite -> fit -> filter -> condition`` on a low voice
  (f0 85-140 Hz with vibrato, 85% voiced, 57-94 harmonics).  Chosen because
  ``sine_excitation`` and the ridge fit carry most of the job and the mel
  estimator is never called.
* ``mel_resynth`` -- ``mel -> estimate -> filter`` (held taps) on a high
  voice (f0 200-320 Hz, 50% voiced, 25-40 harmonics), then a min-norm refit
  of that output, filtered again, that must reproduce it.  It runs the
  other ``ltv`` paths and little synthesis, so it bypasses most
  ``fit_resynth`` gains and exposes any that cost these paths.
* ``score`` -- ``metrics --mr-stft --mel-mae --pitch-jitter --uv-error`` on a
  candidate/reference pair with a low-voice reference track.  No ``ltv`` and
  no synthesis: ``ltv``/``signal_core`` changes should read as no change.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harmex import conditioning, ltv, metrics, signal_core, spectral, tensor_io, wav_io
from harmex.signal_core import AudioSignal, ExcitationConfig, F0Track

FS = 16000
HOP_S = 0.010
HOP = 160
N_TAPS = 64
POOL_SIZE = 5  # odd, so alternating traced/untraced jobs visit every utterance
PYRAMID_FACTORS = (8, 48, 240)  # cumulative factors of the default 8, 6, 5 chain

# Lowest fit_resynth resynthesis SNR accepted.  At the commit that added
# this benchmark, the 100 utterances of seeds 0-19 gave 22.2-28.3 dB.
SNR_FLOOR_DB = 15.0
# Largest min-norm refit error accepted; seeds 0-19 gave at most 8.3e-15.
REFIT_TOL = 1e-9

FIT_RIDGE = "ltv.fit_coeffs_least_squares.ridge"
FIT_MIN_NORM = "ltv.fit_coeffs_least_squares.min_norm"

# The layer spans reported per workload; every other span is structure.
LAYER_SPANS = (
    "signal_core.interpolate_f0",
    "signal_core.sine_excitation",
    FIT_RIDGE,
    FIT_MIN_NORM,
    "ltv.estimate_coeffs_from_mel",
    "ltv.apply_ltv.interp",
    "ltv.apply_ltv.held",
    "ltv.coeff_io",
    "spectral.mel_spectrogram",
    "metrics.mr_stft_loss",
    "metrics.pitch_jitter",
    "metrics.uv_error_rate",
    "conditioning.downsample_multiscale",
    "conditioning.export",
    "wav_io",
    "tensor_io",
)

# Unit of each layer span's work count, as reported in ``<span>.work_per_s``.
WORK_UNITS = {
    "signal_core.interpolate_f0": "samples/s",
    "signal_core.sine_excitation": "harm-samples/s",  # sum of K(n) over voiced samples
    FIT_RIDGE: "frames/s",  # frames with non-zero regressors
    FIT_MIN_NORM: "frames/s",
    "ltv.estimate_coeffs_from_mel": "frames/s",
    "ltv.apply_ltv.interp": "sample-taps/s",
    "ltv.apply_ltv.held": "sample-taps/s",
    "ltv.coeff_io": "B/s",
    "spectral.mel_spectrogram": "stft-frames/s",
    "metrics.mr_stft_loss": "stft-frames/s",
    "metrics.pitch_jitter": "voiced-frames/s",
    "metrics.uv_error_rate": "frames/s",
    "conditioning.downsample_multiscale": "ch-samples/s",
    "conditioning.export": "B/s",
    "wav_io": "B/s",
    "tensor_io": "B/s",
}


# ------------------------------------------------------------------ inputs


@dataclass(frozen=True)
class Voice:
    f0_lo: float
    f0_hi: float
    voiced_frac: float
    vibrato_depth: float = 0.02


LOW_VOICE = Voice(85.0, 140.0, 0.85)
HIGH_VOICE = Voice(200.0, 320.0, 0.50)


@dataclass
class Utterance:
    """One pool entry: its reference pitch track and input file paths."""

    track: F0Track
    paths: dict[str, Path]


def f0_contour(rng: np.random.Generator, voice: Voice, n_frames: int) -> np.ndarray:
    """Syllables with vibrato separated by unvoiced gaps.

    Syllable base pitches are stratified over the voice's range, so every
    utterance spans the whole range and carries about the same work.
    """
    n_syl = max(1, round(n_frames / 100))
    voiced = round(voice.voiced_frac * n_frames)

    def split(total, parts):
        w = 0.5 + rng.random(parts)
        sizes = np.floor(w / w.sum() * total).astype(int)
        sizes[: total - sizes.sum()] += 1
        return sizes

    runs, gaps = split(voiced, n_syl), split(n_frames - voiced, n_syl + 1)
    lo = voice.f0_lo * (1 + voice.vibrato_depth)
    hi = voice.f0_hi * (1 - voice.vibrato_depth)
    bases = lo + (rng.permutation(n_syl) + rng.random(n_syl)) / n_syl * (hi - lo)

    f0 = np.zeros(n_frames)
    pos = gaps[0]
    for run, gap, base in zip(runs, gaps[1:], bases):
        t = np.arange(run) * HOP_S
        rate, phase = rng.uniform(4.5, 6.5), rng.uniform(0, 2 * math.pi)
        f0[pos : pos + run] = base * (1 + voice.vibrato_depth * np.sin(2 * math.pi * rate * t + phase))
        pos += run + gap
    return np.clip(f0, 0.0, voice.f0_hi)


def formant_taps(rng: np.random.Generator, n_frames: int, shift: float = 1.0) -> ltv.LtvFirCoeffs:
    """Three drifting resonances per frame, as truncated damped sinusoids."""
    centers = np.array([rng.uniform(500, 800), rng.uniform(1000, 1800), rng.uniform(2300, 3000)])
    bandwidths = rng.uniform(80, 160, size=3)
    gains = 10 ** (np.array([0.0, -6.0, -12.0]) / 20)
    drift = rng.uniform(0.03, 0.08, size=3) * np.sin(
        2 * math.pi * np.outer(np.arange(n_frames) / 100.0, rng.uniform(0.2, 0.6, size=3))
        + rng.uniform(0, 2 * math.pi, size=3)
    )
    omega = 2 * math.pi * shift * centers * (1 + drift) / FS  # frames x 3
    radius = np.exp(-math.pi * bandwidths / FS)
    t = np.arange(N_TAPS)
    taps = np.einsum(
        "i,it,fit->ft",
        gains * 2 * (1 - radius),
        radius[:, None] ** t,
        np.sin(omega[:, :, None] * (t + 1)),
    )
    return ltv.LtvFirCoeffs(taps, HOP_S, FS)


def _voice(rng, excitation: AudioSignal, n_frames: int, shift=1.0, noise_db=-70.0) -> AudioSignal:
    """Excitation through drifting formants plus white noise ``noise_db`` below it.

    The default noise stays low because the fit is ill-conditioned between
    harmonics: interpolating its taps amplifies target noise, and at -40 dB
    the fit_resynth resynthesis SNR falls to about 0 dB.
    """
    clean = ltv.apply_ltv(excitation, formant_taps(rng, n_frames, shift)).samples
    sigma = 10 ** (noise_db / 20) * math.sqrt(np.mean(clean**2))
    return AudioSignal(clean + sigma * rng.standard_normal(len(clean)), FS)


def make_utterance(workload: str, seed: int, index: int, in_dir: Path, audio_seconds=10.0) -> Utterance:
    """Write one seeded input set for ``workload`` into ``in_dir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    n_frames = round(audio_seconds / HOP_S)
    n = n_frames * HOP
    voice = HIGH_VOICE if workload == "mel_resynth" else LOW_VOICE
    p = lambda name: in_dir / f"u{index}_{name}"  # noqa: E731

    # the jobs read the track back from text, so generate from what they read
    signal_core.write_f0_track(p("f0.txt"), F0Track(f0_contour(rng, voice, n_frames), HOP_S))
    track = signal_core.read_f0_track(p("f0.txt"), HOP_S)
    excitation = signal_core.sine_excitation(signal_core.interpolate_f0(track, FS, n))
    u = Utterance(track, {"f0": p("f0.txt")})

    if workload == "fit_resynth":
        u.paths["target"], u.paths["noise"] = p("target.wav"), p("noise.wav")
        wav_io.write_wav(u.paths["target"], _voice(rng, excitation, n_frames))
        wav_io.write_wav(u.paths["noise"], signal_core.gaussian_noise(n, FS, int(rng.integers(2**31))))
    elif workload == "mel_resynth":
        u.paths["voice"], u.paths["excitation"] = p("voice.wav"), p("excitation.wav")
        wav_io.write_wav(u.paths["voice"], _voice(rng, excitation, n_frames))
        wav_io.write_wav(u.paths["excitation"], excitation)
    else:
        u.paths["reference"], u.paths["candidate"] = p("reference.wav"), p("candidate.wav")
        wav_io.write_wav(u.paths["reference"], _voice(rng, excitation, n_frames))
        wav_io.write_wav(u.paths["candidate"], _voice(rng, excitation, n_frames, 1.03, -30.0))
    return u


def make_pool(workload: str, seed: int, in_dir: Path, audio_seconds=10.0) -> list[Utterance]:
    return [make_utterance(workload, seed, i, in_dir, audio_seconds) for i in range(POOL_SIZE)]


def input_properties(pool: list[Utterance]) -> dict:
    """Voicing, harmonic count and rank-deficiency share over the pool."""
    f0 = np.concatenate([u.track.values for u in pool])
    voiced = f0[f0 > 0]
    k = np.floor(FS / (2 * voiced))
    return {
        "utterances": len(pool),
        "frames_per_job": len(pool[0].track),
        "audio_s_per_job": len(pool[0].track) * HOP_S,
        "voiced_frac": len(voiced) / len(f0),
        "mean_harmonics": float(k.mean()),
        "min_harmonics": int(k.min()),
        "max_harmonics": int(k.max()),
        "rank_deficient_frac": float(np.mean(2 * k < N_TAPS)),
    }


# ------------------------------------------------------------------ counts


def refined_frac(pool: list[Utterance]) -> float:
    """Voiced reference frames that ``refine_pitch`` refines, over voiced frames."""
    refined = voiced = 0
    for u in pool:
        x = wav_io.read_wav(u.paths["candidate"])
        refined += int(np.count_nonzero(np.isfinite(metrics.refine_pitch(x, u.track))))
        voiced += int(np.count_nonzero(u.track.voiced_mask))
    return refined / voiced


def harmonic_samples(f0: np.ndarray) -> int:
    """Sum of the harmonic count K(n) over voiced samples."""
    v = f0[f0 > 0]
    return int(np.floor(FS / (2.0 * v)).sum())


def fit_counts(x: AudioSignal, hop: int, n_taps: int) -> dict:
    """Frames whose lagged-excitation block is non-zero, over all frames."""
    n = len(x)
    nz = np.concatenate(([0], np.cumsum(x.samples != 0)))
    starts = np.arange(math.ceil(n / hop)) * hop
    lo = np.maximum(starts - n_taps + 1, 0)
    hi = np.minimum(starts + hop, n)
    return {"work": int(np.count_nonzero(nz[hi] > nz[lo])), "frames": len(starts)}


# ---------------------------------------------------------------- I/O spans


def read_wav(tr, path) -> AudioSignal:
    with tr.span("wav_io", lambda: {"work": os.path.getsize(path)}):
        return wav_io.read_wav(path)


def write_wav(tr, path, x: AudioSignal) -> None:
    with tr.span("wav_io", lambda: {"work": os.path.getsize(path)}):
        wav_io.write_wav(path, x)


def read_coeffs(tr, path) -> ltv.LtvFirCoeffs:
    with tr.span("ltv.coeff_io", lambda: {"work": os.path.getsize(path)}):
        return ltv.read_coeffs(path)


def write_coeffs(tr, path, h: ltv.LtvFirCoeffs) -> None:
    with tr.span("ltv.coeff_io", lambda: {"work": os.path.getsize(path)}):
        ltv.write_coeffs(path, h)


def apply_ltv(tr, x: AudioSignal, h: ltv.LtvFirCoeffs, interpolate: bool) -> AudioSignal:
    name = "ltv.apply_ltv.interp" if interpolate else "ltv.apply_ltv.held"
    with tr.span(name, lambda: {"work": len(x) * h.n_taps}):
        return ltv.apply_ltv(x, h, interpolate_taps=interpolate)


def fit(tr, x: AudioSignal, y: AudioSignal, cfg: ltv.FitConfig) -> ltv.LtvFirCoeffs:
    name = FIT_RIDGE if cfg.ridge_lambda > 0 else FIT_MIN_NORM
    with tr.span(name, lambda: fit_counts(x, round(cfg.frame_hop_seconds * FS), cfg.n_taps)):
        return ltv.fit_coeffs_least_squares(x, y, cfg)


def mel_spectrogram(tr, x: AudioSignal) -> spectral.MelSpectrogram:
    cfg = spectral.StftConfig()
    with tr.span("spectral.mel_spectrogram", lambda: {"work": spectral.n_frames_for(len(x), cfg.hop_size)}):
        return spectral.mel_spectrogram(x, cfg)


# -------------------------------------------------------------------- jobs


def job_fit_resynth(tr, u: Utterance, wd: Path) -> dict:
    with tr.span("cli.excite"):
        track = signal_core.read_f0_track(u.paths["f0"], HOP_S)
        n = int(round(len(track) * HOP_S * FS))
        with tr.span("signal_core.interpolate_f0", lambda: {"work": n}):
            f0 = signal_core.interpolate_f0(track, FS, n)
        with tr.span("signal_core.sine_excitation", lambda: {"work": harmonic_samples(f0.values)}):
            excitation = signal_core.sine_excitation(f0, ExcitationConfig())
        write_wav(tr, wd / "excitation.wav", excitation)

    with tr.span("cli.fit"):
        x = read_wav(tr, wd / "excitation.wav")
        target = read_wav(tr, u.paths["target"])
        write_coeffs(tr, wd / "fit.ltvf", fit(tr, x, target, ltv.FitConfig()))

    with tr.span("cli.filter"):
        x = read_wav(tr, wd / "excitation.wav")
        y = apply_ltv(tr, x, read_coeffs(tr, wd / "fit.ltvf"), interpolate=True)
        write_wav(tr, wd / "filtered.wav", y)

    with tr.span("cli.condition"):
        bundle = conditioning.stack_channels(
            noise=read_wav(tr, u.paths["noise"]),
            raw_excitation=read_wav(tr, wd / "excitation.wav"),
            filtered_excitation=read_wav(tr, wd / "filtered.wav"),
        )
        with tr.span(
            "conditioning.downsample_multiscale",
            lambda: {"work": bundle.length * len(bundle.names)},
        ):
            pyramid = conditioning.downsample_multiscale(bundle)
        written = []
        with tr.span(
            "conditioning.export", lambda: {"work": sum(os.path.getsize(f) for f in written)}
        ):
            written += conditioning.export_conditioning(pyramid, wd / "cond")

    return {
        "n": n,
        "sample_f0": f0.values,
        "excitation": excitation.samples,
        "target": target.samples,
        "filtered": y.samples,
        "pyramid_lengths": [
            [len(c) for c in level.channels.values()] for level in pyramid.levels
        ],
    }


def job_mel_resynth(tr, u: Utterance, wd: Path) -> dict:
    with tr.span("cli.mel"):
        voice = read_wav(tr, u.paths["voice"])
        mel = mel_spectrogram(tr, voice)
        with tr.span("tensor_io", lambda: {"work": os.path.getsize(wd / "mel.hmx")}):
            tensor_io.write_feature_file(wd / "mel.hmx", mel.frames, mel.hop_seconds)

    with tr.span("cli.estimate"):
        with tr.span("tensor_io", lambda: {"work": os.path.getsize(wd / "mel.hmx")}):
            frames, _ = tensor_io.read_feature_file(wd / "mel.hmx")
        mel = spectral.MelSpectrogram(frames.astype(np.float64), spectral.StftConfig(), FS)
        with tr.span("ltv.estimate_coeffs_from_mel", lambda: {"work": mel.n_frames}):
            coeffs = ltv.estimate_coeffs_from_mel(mel, n_taps=N_TAPS)
        write_coeffs(tr, wd / "estimate.ltvf", coeffs)

    with tr.span("cli.filter"):
        x = read_wav(tr, u.paths["excitation"])
        y = apply_ltv(tr, x, read_coeffs(tr, wd / "estimate.ltvf"), interpolate=False)
        write_wav(tr, wd / "filtered.wav", y)

    # The refit stays in float64 memory: the f32 WAV and LTVF files would add
    # ~1e-7 of rounding, and the check is about the fit's exact inversion.
    with tr.span("refit"):
        refit = fit(tr, x, y, ltv.FitConfig(ridge_lambda=0.0))
        y2 = apply_ltv(tr, x, refit, interpolate=False)
    return {"filtered": y.samples, "refiltered": y2.samples}


def job_score(tr, u: Utterance, wd: Path) -> dict:
    with tr.span("cli.metrics"):
        x = read_wav(tr, u.paths["candidate"])
        y = read_wav(tr, u.paths["reference"])
        result = {}
        resolutions = metrics.MrStftConfig().resolutions
        with tr.span(
            "metrics.mr_stft_loss",
            lambda: {"work": sum(2 * spectral.n_frames_for(len(x), r.hop_size) for r in resolutions)},
        ):
            loss = metrics.mr_stft_loss(x, y)
        result.update(mr_stft_sc=loss.sc, mr_stft_mag=loss.mag, mr_stft_total=loss.total)
        result["mel_mae"] = metrics.mel_mae(mel_spectrogram(tr, x), mel_spectrogram(tr, y))
        track = signal_core.read_f0_track(u.paths["f0"], HOP_S)
        with tr.span(
            "metrics.pitch_jitter",
            lambda: {"work": int(np.count_nonzero(track.voiced_mask)), "frames": len(track)},
        ):
            result["pitch_jitter_cents"] = metrics.pitch_jitter(x, track)
        with tr.span("metrics.uv_error_rate", lambda: {"work": len(track)}):
            result["uv_error_rate"] = metrics.uv_error_rate(x, track)
    return result


# ------------------------------------------------------------------ checks


def snr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    err = float(np.sum((reference - estimate) ** 2))
    return math.inf if err == 0 else 10 * math.log10(float(np.sum(reference**2)) / err)


def check_fit_resynth(out: dict) -> list[str]:
    problems = []
    unvoiced = out["sample_f0"] == 0
    bad = np.count_nonzero(out["excitation"][unvoiced] != 0)
    if bad:
        problems.append(f"{bad} unvoiced excitation samples are not exactly zero")
    snr = snr_db(out["target"], out["filtered"])
    if not snr >= SNR_FLOOR_DB:
        problems.append(f"resynthesis SNR {snr:.2f} dB below the {SNR_FLOOR_DB} dB floor")
    n = out["n"]
    expected = [[n // f] * 3 for f in PYRAMID_FACTORS]
    if out["pyramid_lengths"] != expected:
        problems.append(f"pyramid lengths {out['pyramid_lengths']}, expected {expected}")
    return problems


def check_mel_resynth(out: dict) -> list[str]:
    err = float(np.max(np.abs(out["refiltered"] - out["filtered"])))
    if not err <= REFIT_TOL:
        return [f"min-norm refit differs from the held-tap output by {err:.3g}"]
    return []


def check_score(out: dict) -> list[str]:
    problems = [f"{k} is not finite" for k, v in out.items() if not math.isfinite(v)]
    if not 0.0 <= out["uv_error_rate"] <= 1.0:
        problems.append(f"uv_error_rate {out['uv_error_rate']} outside [0, 1]")
    return problems


WORKLOADS = ("fit_resynth", "mel_resynth", "score")
JOBS = {"fit_resynth": job_fit_resynth, "mel_resynth": job_mel_resynth, "score": job_score}
CHECKS = {"fit_resynth": check_fit_resynth, "mel_resynth": check_mel_resynth, "score": check_score}
