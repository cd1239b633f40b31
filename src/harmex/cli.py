"""Command-line entry point tying the pipeline together.

Subcommands: excite, filter, estimate, fit, mel, loudness, metrics,
condition, demo.  Options resolve as defaults < config file (--config or
$HARMEX_CONFIG) < explicit flags, and every run writes its fully-resolved
configuration next to its outputs so it can be reproduced from that file.

``COMMANDS`` maps each option key to (coercer, default), the default read
from the library signature that owns it; from it come the flags (``--`` +
key, ``_`` -> ``-``), the typing of flag and config values, and the run
manifest keys.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import conditioning as cond
from . import ltv, metrics, spectral, tensor_io, wav_io
from .errors import ConfigError, HarmexError, check_count, check_integer
from .signal_core import (
    DEFAULT_HOP_SECONDS, DEFAULT_SAMPLE_RATE, ExcitationConfig, F0Track,
    gaussian_noise, hop_samples, interpolate_f0, read_f0_track, sine_excitation, write_f0_track,
)
from .spectral import StftConfig

CONFIG_ENV = "HARMEX_CONFIG"


# ------------------------------------------------------------------ coercers
# Each takes a flag string or a JSON config value and returns the typed
# value, raising TypeError, ValueError or OverflowError on anything else.


def _scalar(kind, *accepted):
    def coerce(value):
        if isinstance(value, bool) or not isinstance(value, (str, *accepted)):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        value = kind(value)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        return value

    return coerce


_int = _scalar(int, int)
_float = _scalar(float, int, float)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _csv(item):
    """Comma-separated string -> tuple; the run manifest joins it back."""

    def coerce(value):
        if not isinstance(value, str):
            raise TypeError(f"expected a comma-separated string, got {value!r}")
        return tuple(item(part.strip()) for part in value.split(",") if part.strip())

    return coerce


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def _from(fn, **coercers) -> dict:
    return {name: (coerce, _default(fn, name)) for name, coerce in coercers.items()}


# ------------------------------------------------------------ config, manifest


def _load_config(path: str | None) -> dict:
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors are ValueErrors
        raise ConfigError(f"cannot load config: {exc}", path=path)
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object", path=path)
    return config


def _resolve(options: dict, args: argparse.Namespace, config: dict) -> dict:
    """defaults < config file < flags; flag and config values share one coercer."""
    resolved = {}
    for key, (coerce, default) in options.items():
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
            if key not in config or (value is None and default is None):
                resolved[key] = value
                continue
        try:
            resolved[key] = coerce(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {key}: {exc}") from None
    return resolved


def _jsonable(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return value


def _write_run_config(path, subcommand: str, entries: dict) -> None:
    payload = {"subcommand": subcommand, **{k: _jsonable(entries[k]) for k in sorted(entries)}}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------- subcommands
# Each takes the parsed arguments and the resolved options and returns any
# entries it adds to the run manifest.


def _cmd_excite(args, r):
    track = read_f0_track(args.f0_file, hop_seconds=r["hop"])
    fs = r["sample_rate"]
    n_samples = r["n_samples"]
    if n_samples is None:
        n_samples = check_count("n_samples", len(track) * r["hop"] * fs)
    cfg = ExcitationConfig(r["amplitude"], r["seed"], r["k_max"])
    excitation = sine_excitation(interpolate_f0(track, fs, n_samples), cfg)
    return {"clipped": wav_io.write_wav(args.out, excitation, r["encoding"])}


def _cmd_filter(args, r):
    x = wav_io.read_wav(args.wav_file)
    y = ltv.apply_ltv(x, ltv.read_coeffs(args.coeff_file), r["interpolate_taps"])
    return {"clipped": wav_io.write_wav(args.out, y, r["encoding"])}


def _cmd_estimate(args, r):
    mel = tensor_io.read_mel_file(args.mel_file)
    ltv.write_coeffs(args.out, ltv.estimate_coeffs_from_mel(mel, r["n_taps"], r["floor_db"]))


def _cmd_fit(args, r):
    excitation = wav_io.read_wav(args.excitation_wav)
    target = wav_io.read_wav(args.target_wav)
    cfg = ltv.FitConfig(r["n_taps"], r["ridge_lambda"], r["hop"])
    ltv.write_coeffs(args.out, ltv.fit_coeffs_least_squares(excitation, target, cfg))


def _cmd_mel(args, r):
    x = wav_io.read_wav(args.wav_file)
    stft = StftConfig(r["fft_size"], r["win_size"], r["hop_size"])
    mel = spectral.mel_spectrogram(x, stft, r["n_mels"], r["f_min"], r["f_max"])
    tensor_io.write_mel_file(args.out, mel)


def _cmd_loudness(args, r):
    values, hop_seconds = spectral.loudness(wav_io.read_wav(args.wav_file), hop=r["hop_size"])
    tensor_io.write_feature_file(args.out, values[:, None], hop_seconds)


def _cmd_metrics(args, r):
    x = wav_io.read_wav(args.wav_x)
    y = wav_io.read_wav(args.wav_y)
    result = {}
    if args.mr_stft:
        loss = metrics.mr_stft_loss(x, y)
        result.update(mr_stft_sc=loss.sc, mr_stft_mag=loss.mag, mr_stft_total=loss.total)
    if args.mel_mae:
        result["mel_mae"] = metrics.mel_mae(spectral.mel_spectrogram(x), spectral.mel_spectrogram(y))
    if args.pitch_jitter or args.uv_error:
        if not args.f0:
            raise ConfigError("--pitch-jitter/--uv-error need an --f0 track")
        track = read_f0_track(args.f0, hop_seconds=r["hop"])
        if args.pitch_jitter:
            result["pitch_jitter_cents"] = metrics.pitch_jitter(x, track, r["search_cents"])
        if args.uv_error:
            result["uv_error_rate"] = metrics.uv_error_rate(x, track, r["energy_threshold_db"])
    print(json.dumps(result))


def _cmd_condition(args, r):
    paths = zip(cond.CHANNEL_ORDER, (args.noise_wav, args.raw_wav, args.filtered_wav))
    signals = {name: wav_io.read_wav(path) for name, path in paths if path}
    pyramid = cond.downsample_multiscale(cond.stack_channels(**signals), r["factors"])
    return {"written": cond.export_conditioning(pyramid, args.out_prefix)}


def _demo_formant_coeffs(n_frames: int, stft: StftConfig, fs: float, rng) -> ltv.LtvFirCoeffs:
    """Slowly drifting formant-like spectral envelopes, one FIR per frame."""
    freqs = np.arange(stft.n_bins) * fs / stft.fft_size
    centers = np.array([700.0, 1200.0, 2600.0])
    widths = np.array([130.0, 180.0, 280.0])
    gains_db = np.array([0.0, -6.0, -12.0])
    drift = rng.uniform(-0.08, 0.08, size=3)

    phase = np.sin(2 * math.pi * np.arange(n_frames) / max(n_frames, 1))
    sweep = centers * (1.0 + drift * phase[:, None])  # frames x formants
    peaks = gains_db[:, None] - 0.5 * ((freqs - sweep[..., None]) / widths[:, None]) ** 2
    mag_db = np.maximum(peaks.max(axis=1), -45.0) - 20.0 * (freqs / fs)  # gentle spectral tilt
    taps = ltv.minimum_phase_fir(10 ** (mag_db / 20.0), ltv.DEFAULT_N_TAPS, stft.fft_size)
    return ltv.LtvFirCoeffs(taps, stft.hop_size / fs, fs)


def _cmd_demo(args, r):
    fs, hop_s, duration, seed = r["sample_rate"], r["hop"], r["duration"], r["seed"]
    stft = StftConfig(hop_size=hop_samples(hop_s, fs))
    n_frames = check_count("frames", duration / hop_s)
    n_samples = check_count("n_samples", duration * fs)
    check_integer("seed", seed, minimum=0)  # default_rng(-1) raises a bare ValueError

    frame_t = np.arange(n_frames) * hop_s
    f0 = 220.0 * (1.0 + 0.02 * np.sin(2 * math.pi * 5.0 * frame_t))
    voiced = (frame_t >= 0.2) & (frame_t <= duration - 0.2)
    track = F0Track(np.where(voiced, f0, 0.0), hop_s)
    excitation = sine_excitation(interpolate_f0(track, fs, n_samples))
    envelope = _demo_formant_coeffs(n_frames, stft, fs, np.random.default_rng(seed))
    target = ltv.apply_ltv(excitation, envelope)
    mel = spectral.mel_spectrogram(target, stft)
    loudness, loudness_hop = spectral.loudness(target, hop=stft.hop_size)
    fitted = ltv.fit_coeffs_least_squares(excitation, target, ltv.FitConfig(frame_hop_seconds=hop_s))
    filtered = ltv.apply_ltv(excitation, fitted)
    report = {
        "mr_stft_raw_vs_target": metrics.mr_stft_loss(excitation, target).total,
        "mr_stft_filtered_vs_target": metrics.mr_stft_loss(filtered, target).total,
        "pitch_jitter_cents": metrics.pitch_jitter(excitation, track),
        "uv_error_rate": metrics.uv_error_rate(excitation, track),
    }
    bundle = cond.stack_channels(gaussian_noise(n_samples, fs, seed + 1), excitation, filtered)
    pyramid = cond.downsample_multiscale(bundle)

    out = Path(args.out_dir)  # made once every artifact is computed: a refused input leaves no file
    out.mkdir(parents=True, exist_ok=True)
    write_f0_track(out / "f0.txt", track)
    wav_io.write_wav(out / "excitation.wav", excitation)
    wav_io.write_wav(out / "target.wav", target)
    tensor_io.write_mel_file(out / "target_mel.hmx", mel)
    tensor_io.write_feature_file(out / "target_loudness.hmx", loudness[:, None], loudness_hop)
    ltv.write_coeffs(out / "fitted.ltvf", fitted)
    wav_io.write_wav(out / "filtered.wav", filtered)
    (out / "metrics.json").write_text(json.dumps(report, indent=2) + "\n")
    cond.export_conditioning(pyramid, out / "conditioning")


# ---------------------------------------------------------------------- table


class Command(NamedTuple):
    """One subcommand.  Bare ``files`` are positional inputs; of the ``--``
    ones, ``--out*`` is required.  ``switches`` are not config keys."""

    run: Callable[[argparse.Namespace, dict], dict | None]
    help: str
    files: tuple[str, ...]
    options: dict
    manifest: str | None = "{out}.run.json"
    switches: tuple[str, ...] = ()


_ENCODING = _from(wav_io.write_wav, encoding=_scalar(str))
_SAMPLE_RATE = {"sample_rate": (_float, DEFAULT_SAMPLE_RATE)}
_HOP = {"hop": (_float, DEFAULT_HOP_SECONDS)}

COMMANDS = {
    "excite": Command(
        _cmd_excite, "synthesize sine excitation from an f0 track file", ("f0_file", "--out"), {
            **_SAMPLE_RATE, **_HOP,
            **_from(ExcitationConfig, amplitude=_float, seed=_int),
            "k_max": (_int, _default(ExcitationConfig, "k_max_cap")),
            "n_samples": (_int, None),  # None: the length the f0 track covers
            **_ENCODING,
        }),
    "filter": Command(
        _cmd_filter, "apply a coefficient file to a WAV", ("wav_file", "coeff_file", "--out"),
        {**_ENCODING, **_from(ltv.apply_ltv, interpolate_taps=_bool)}),
    "estimate": Command(
        _cmd_estimate, "version-2 mel file -> minimum-phase coefficients", ("mel_file", "--out"),
        _from(ltv.estimate_coeffs_from_mel, n_taps=_int, floor_db=_float)),
    "fit": Command(
        _cmd_fit, "least-squares coefficients from excitation and target WAVs",
        ("excitation_wav", "target_wav", "--out"), {
            **_from(ltv.FitConfig, n_taps=_int, ridge_lambda=_float),
            "hop": (_float, _default(ltv.FitConfig, "frame_hop_seconds")),
        }),
    "mel": Command(
        _cmd_mel, "WAV -> log-mel feature file", ("wav_file", "--out"),
        {**_from(StftConfig, fft_size=_int, win_size=_int, hop_size=_int),
         **_from(spectral.mel_spectrogram, n_mels=_int, f_min=_float, f_max=_float)}),
    "loudness": Command(
        _cmd_loudness, "WAV -> log-RMS feature file", ("wav_file", "--out"),
        {"hop_size": (_int, _default(spectral.loudness, "hop"))}),
    "metrics": Command(
        _cmd_metrics, "compare two WAVs; emits one JSON line", ("wav_x", "wav_y", "--f0"), {
            **_HOP,
            **_from(metrics.pitch_jitter, search_cents=_float),
            **_from(metrics.uv_error_rate, energy_threshold_db=_float),
        }, manifest=None, switches=("--mr-stft", "--mel-mae", "--pitch-jitter", "--uv-error")),
    "condition": Command(
        _cmd_condition, "stack channels and export multi-scale tensors",
        ("--noise-wav", "--raw-wav", "--filtered-wav", "--out-prefix"),
        _from(cond.downsample_multiscale, factors=_csv(_int)), manifest="{out_prefix}_run.json"),
    "demo": Command(
        _cmd_demo, "end-to-end synthetic-vowel walkthrough", ("--out-dir",), {
            **_SAMPLE_RATE, "seed": (_int, 1234), "duration": (_float, 2.0), **_HOP,
        }, manifest="{out_dir}/run_config.json"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors fail as bad options do: one ``config`` JSON line, exit 1."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="harmex",
        description="Harmonic excitation synthesis, LTV filtering, and vocoder conditioning",
    )
    parser.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV})")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.files:
            if arg.startswith("--"):
                p.add_argument(arg, required=arg.startswith("--out"))
            else:
                p.add_argument(arg)
        for arg in command.switches:
            p.add_argument(arg, action="store_true")
        for key, (coerce, _) in command.options.items():
            if coerce is _bool:  # the one on/off option, named for turning it off
                p.add_argument("--no-interp-taps", dest=key, action="store_false", default=None)
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.subcommand]
        resolved = _resolve(command.options, args, _load_config(args.config))
        extra = command.run(args, resolved) or {}
        if command.manifest:
            names = [arg.lstrip("-").replace("-", "_") for arg in command.files]
            files = {name: getattr(args, name) for name in names}
            path = command.manifest.format_map(vars(args))
            _write_run_config(path, args.subcommand, {**resolved, **files, **extra})
    except (HarmexError, OSError, MemoryError) as exc:
        category = getattr(exc, "category", "memory" if isinstance(exc, MemoryError) else "io")
        print(json.dumps({"category": category, "message": str(exc) or repr(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
