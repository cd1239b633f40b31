import contextlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmex
from harmex import cli, read_coeffs, read_feature_file, read_wav, write_feature_file
from harmex.cli import main
from test_admission import DRAWN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def f0_file(tmp_path):
    path = tmp_path / "f0.txt"
    values = ["0.0"] * 10 + ["220.0"] * 80 + ["0.0"] * 10
    path.write_text("\n".join(values) + "\n")
    return path


class TestExcite:
    def test_basic(self, tmp_path, f0_file, capsys):
        out = tmp_path / "exc.wav"
        code, _, _ = run(capsys, "excite", str(f0_file), "--out", str(out))
        assert code == 0
        x = read_wav(out)
        assert len(x) == 16000
        assert (out.parent / "exc.wav.run.json").exists()

    def test_all_zero_track_gives_silence(self, tmp_path, capsys):
        f0 = tmp_path / "z.txt"
        f0.write_text("0\n" * 50)
        out = tmp_path / "z.wav"
        code, _, _ = run(capsys, "excite", str(f0), "--out", str(out))
        assert code == 0
        x = read_wav(out)
        assert len(x) == 8000
        assert np.all(x.samples == 0.0)

    def test_seed_sets_the_onset_phase_and_phase_init_is_ignored(self, tmp_path, f0_file, capsys):
        """The seed alone sets the onset phases; a config key no option reads, such as ``phase_init``,
        changes nothing."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phase_init": "random"}))
        excite = ["excite", str(f0_file), "--out"]
        assert run(capsys, *excite, str(tmp_path / "zero"))[0] == 0
        assert run(capsys, "--config", str(cfg), *excite, str(tmp_path / "ignored"))[0] == 0
        assert run(capsys, *excite, str(tmp_path / "seed"), "--seed", "3")[0] == 0
        manifest = json.loads((tmp_path / "zero.run.json").read_text())
        assert manifest["seed"] is None and "phase_init" not in manifest
        zero = (tmp_path / "zero").read_bytes()
        assert (tmp_path / "ignored").read_bytes() == zero != (tmp_path / "seed").read_bytes()


class TestFitFilterMetrics:
    def test_construct_recover_via_cli(self, tmp_path, f0_file, capsys):
        exc = tmp_path / "exc.wav"
        assert run(capsys, "excite", str(f0_file), "--out", str(exc))[0] == 0

        # target: excitation passed through a mild fixed filter
        from harmex import AudioSignal, write_wav

        x = read_wav(exc)
        taps = np.zeros(64)
        taps[0], taps[1], taps[5] = 0.9, -0.3, 0.1
        y = np.convolve(x.samples, taps)[: len(x)]
        target = tmp_path / "target.wav"
        write_wav(target, AudioSignal(y, x.sample_rate))

        coeff = tmp_path / "fit.ltvf"
        code, _, _ = run(
            capsys, "fit", str(exc), str(target), "--out", str(coeff), "--ridge-lambda", "0"
        )
        assert code == 0
        assert read_coeffs(coeff).n_taps == 64

        filtered = tmp_path / "filtered.wav"
        code, _, _ = run(
            capsys, "filter", str(exc), str(coeff), "--out", str(filtered), "--no-interp-taps"
        )
        assert code == 0

        code, out, _ = run(capsys, "metrics", str(filtered), str(target), "--mr-stft")
        assert code == 0
        result = json.loads(out)
        assert result["mr_stft_total"] < 1e-3

    def test_metrics_length_mismatch_error(self, tmp_path, capsys):
        from harmex import AudioSignal, gaussian_noise, write_wav

        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(a, gaussian_noise(1000, 16000, 0))
        write_wav(b, gaussian_noise(1001, 16000, 0))
        code, _, err = run(capsys, "metrics", str(a), str(b), "--mr-stft")
        assert code != 0
        assert json.loads(err)["category"] == "length-mismatch"

    def test_mel_mae(self, tmp_path, f0_file, capsys):
        from harmex import gaussian_noise, mel_mae, mel_spectrogram, write_wav

        exc, noise = tmp_path / "exc.wav", tmp_path / "noise.wav"
        run(capsys, "excite", str(f0_file), "--out", str(exc))
        write_wav(noise, gaussian_noise(16000, 16000, 3))
        code, out, _ = run(capsys, "metrics", str(exc), str(noise), "--mel-mae")
        assert code == 0
        want = mel_mae(mel_spectrogram(read_wav(exc)), mel_spectrogram(read_wav(noise)))
        assert json.loads(out) == {"mel_mae": want}

    def test_pitch_metrics(self, tmp_path, f0_file, capsys):
        exc = tmp_path / "exc.wav"
        run(capsys, "excite", str(f0_file), "--out", str(exc))
        code, out, _ = run(
            capsys,
            "metrics", str(exc), str(exc),
            "--f0", str(f0_file), "--pitch-jitter", "--uv-error",
        )
        assert code == 0
        result = json.loads(out)
        assert result["pitch_jitter_cents"] < 1.0
        assert result["uv_error_rate"] == 0.0
        assert "mr_stft_total" not in result


class TestFeatureCommands:
    def test_mel_estimate_filter_chain(self, tmp_path, f0_file, capsys):
        exc = tmp_path / "exc.wav"
        run(capsys, "excite", str(f0_file), "--out", str(exc))
        mel = tmp_path / "mel.hmx"
        assert run(capsys, "mel", str(exc), "--out", str(mel))[0] == 0
        data, hop = read_feature_file(mel)
        assert data.shape == (100, 80)
        assert hop == pytest.approx(0.010)

        coeff = tmp_path / "est.ltvf"
        assert run(capsys, "estimate", str(mel), "--out", str(coeff))[0] == 0
        h = read_coeffs(coeff)
        assert (h.n_frames, h.n_taps) == (100, 64)

        out = tmp_path / "shaped.wav"
        assert run(capsys, "filter", str(exc), str(coeff), "--out", str(out))[0] == 0

    @pytest.mark.parametrize("options", [["--f-max", "7000"], ["--hop-size", "80", "--f-min", "50"]])
    def test_estimate_takes_the_mel_file_geometry(self, tmp_path, f0_file, capsys, options):
        """A default estimate on a non-default mel file gives the taps of that file's geometry."""
        from harmex import estimate_coeffs_from_mel
        from harmex.tensor_io import read_mel_file

        exc = tmp_path / "exc.wav"
        run(capsys, "excite", str(f0_file), "--out", str(exc))
        mel = tmp_path / "mel.hmx"
        assert run(capsys, "mel", str(exc), "--out", str(mel), *options)[0] == 0
        coeff = tmp_path / "est.ltvf"
        assert run(capsys, "estimate", str(mel), "--out", str(coeff))[0] == 0

        expected = estimate_coeffs_from_mel(read_mel_file(mel))
        h = read_coeffs(coeff)
        np.testing.assert_array_equal(h.taps, expected.taps.astype(np.float32))
        assert h.hop_seconds == expected.hop_seconds
        manifest = json.loads((tmp_path / "est.ltvf.run.json").read_text())
        assert set(manifest) == {"subcommand", "mel_file", "out", "n_taps", "floor_db"}

    def test_loudness(self, tmp_path, f0_file, capsys):
        exc = tmp_path / "exc.wav"
        run(capsys, "excite", str(f0_file), "--out", str(exc))
        out = tmp_path / "loud.hmx"
        assert run(capsys, "loudness", str(exc), "--out", str(out))[0] == 0
        data, _ = read_feature_file(out)
        assert data.shape == (100, 1)


class TestCondition:
    def test_export(self, tmp_path, f0_file, capsys):
        exc = tmp_path / "exc.wav"
        run(capsys, "excite", str(f0_file), "--out", str(exc))
        prefix = tmp_path / "cond"
        code, _, _ = run(
            capsys, "condition", "--raw-wav", str(exc), "--out-prefix", str(prefix)
        )
        assert code == 0
        for suffix, length in (("x8", 2000), ("x48", 333), ("x240", 66)):
            data, _ = read_feature_file(f"{prefix}_{suffix}.hmx")
            assert data.shape == (length, 1)


class TestConfigPrecedence:
    def test_config_file_then_flags(self, tmp_path, f0_file, capsys, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"amplitude": 0.5}))
        out = tmp_path / "a.wav"
        run(capsys, "--config", str(config), "excite", str(f0_file), "--out", str(out))
        resolved = json.loads((tmp_path / "a.wav.run.json").read_text())
        assert resolved["amplitude"] == 0.5

        out2 = tmp_path / "b.wav"
        run(
            capsys,
            "--config", str(config),
            "excite", str(f0_file), "--out", str(out2), "--amplitude", "0.2",
        )
        resolved2 = json.loads((tmp_path / "b.wav.run.json").read_text())
        assert resolved2["amplitude"] == 0.2

    def test_env_config(self, tmp_path, f0_file, capsys, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"amplitude": 0.33}))
        monkeypatch.setenv("HARMEX_CONFIG", str(config))
        out = tmp_path / "c.wav"
        run(capsys, "excite", str(f0_file), "--out", str(out))
        resolved = json.loads((tmp_path / "c.wav.run.json").read_text())
        assert resolved["amplitude"] == 0.33


class TestDemo:
    def test_demo_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code, _, _ = run(capsys, "demo", "--out-dir", str(out), "--duration", "1.0")
        assert code == 0
        for name in (
            "f0.txt", "excitation.wav", "target.wav", "filtered.wav",
            "fitted.ltvf", "target_mel.hmx", "target_loudness.hmx",
            "metrics.json", "run_config.json",
            "conditioning_x8.hmx", "conditioning_x48.hmx", "conditioning_x240.hmx",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "metrics.json").read_text())
        assert report["mr_stft_filtered_vs_target"] < report["mr_stft_raw_vs_target"]

    def test_default_demo_scores_are_pinned(self, tmp_path, capsys):
        """The default demo's ``metrics.json``, which pins the formant envelope it filters with.

        Held to AVX2 by ``NPY_DISABLE_CPU_FEATURES``, numpy moved these by at most 1.6e-11
        relative, so 1e-9 holds at each SIMD dispatch level.
        """
        assert run(capsys, "demo", "--out-dir", str(tmp_path))[0] == 0
        assert json.loads((tmp_path / "metrics.json").read_text()) == pytest.approx({
            "mr_stft_raw_vs_target": 6.062311190706434,
            "mr_stft_filtered_vs_target": 0.0343812291124838,
            "pitch_jitter_cents": 6.923640349571255,
            "uv_error_rate": 0.0,
        }, rel=1e-9, abs=0)


@pytest.fixture
def inputs(tmp_path, f0_file, capsys):
    """Input files for the bad-input cases below, built through the CLI."""
    from dataclasses import replace

    from harmex import LtvFirCoeffs, write_coeffs
    from harmex.tensor_io import read_mel_file, write_mel_file

    wav = tmp_path / "exc.wav"
    assert run(capsys, "excite", str(f0_file), "--out", str(wav))[0] == 0
    empty_wav = tmp_path / "empty.wav"
    assert run(capsys, "excite", str(f0_file), "--n-samples", "0", "--out", str(empty_wav))[0] == 0
    mel = tmp_path / "mel.hmx"
    assert run(capsys, "mel", str(wav), "--out", str(mel))[0] == 0
    mel_v1 = tmp_path / "mel_v1.hmx"  # the same frames and hop without the geometry
    write_feature_file(mel_v1, *read_feature_file(mel))
    loud = tmp_path / "loud.hmx"
    assert run(capsys, "loudness", str(wav), "--out", str(loud))[0] == 0
    cond = tmp_path / "cond"
    assert run(capsys, "condition", "--raw-wav", str(wav), "--out-prefix", str(cond))[0] == 0
    spectrogram = read_mel_file(mel)
    loud_mel = tmp_path / "loud_mel.hmx"
    loud_frames = np.where(np.arange(spectrogram.n_mels) == 40, 3e38, spectrogram.frames)
    write_mel_file(loud_mel, replace(spectrogram, frames=loud_frames))
    geometry = {}  # one f64 of the version-2 header changed; it follows magic + 3 u32
    for name, offset, value in (
        ("hop_mismatch_mel", 16, 0.02), ("zero_rate_mel", 24, 0.0), ("nyquist_mel", 64, 9000.0)
    ):
        raw = bytearray(mel.read_bytes())
        struct.pack_into("<d", raw, offset, value)
        geometry[name] = tmp_path / f"{name}.hmx"
        geometry[name].write_bytes(bytes(raw))
    ltvf = tmp_path / "c.ltvf"
    write_coeffs(ltvf, LtvFirCoeffs(np.zeros((100, 4)), 0.010, 16000))
    bad_hops = {}
    for name, hop_seconds in (("nan_hop", float("nan")), ("sub_hop", 1e-5)):  # 1e-5 s: 0.16 samples
        path = bad_hops[name] = tmp_path / f"{name}.ltvf"
        raw = bytearray(ltvf.read_bytes())
        struct.pack_into("<d", raw, 16, hop_seconds)  # hop_seconds follows magic + 3 u32
        path.write_bytes(bytes(raw))
    no_frames = bytearray(ltvf.read_bytes()[:32])  # magic, 3 u32 and 2 f64: no taps follow
    struct.pack_into("<I", no_frames, 8, 0)  # the row count
    (tmp_path / "no_frames.ltvf").write_bytes(bytes(no_frames))
    huge_hop = bytearray(ltvf.read_bytes()[:48])  # the header and one frame of four f32 taps
    struct.pack_into("<I", huge_hop, 8, 1)  # the row count
    struct.pack_into("<d", huge_hop, 16, 1e15)  # 1.6e19 samples at 16 kHz: one frame covers all
    (tmp_path / "huge_hop.ltvf").write_bytes(bytes(huge_hop))
    utf16_f0 = tmp_path / "utf16_f0.txt"
    utf16_f0.write_bytes("100.0\n".encode("utf-16"))  # starts with the \xff\xfe mark
    snan = {}  # each file's last f32 value made a signaling NaN
    for name, good in (("snan_wav", wav), ("snan_mel", mel), ("snan_ltvf", ltvf)):
        snan[name] = tmp_path / f"{name}{good.suffix}"
        snan[name].write_bytes(good.read_bytes()[:-4] + struct.pack("<I", 0x7F800001))
    return {"f0": f0_file, "wav": wav, "empty_wav": empty_wav, "mel": mel, "mel_v1": mel_v1,
            "loud": loud, "cond_x8": f"{cond}_x8.hmx", "no_frames": tmp_path / "no_frames.ltvf",
            "huge_hop": tmp_path / "huge_hop.ltvf",
            "loud_mel": loud_mel, "ltvf": ltvf, **geometry, **bad_hops, "utf16_f0": utf16_f0, **snan,
            "out": tmp_path / "out.wav", "dir": tmp_path, "unmade": tmp_path / "unmade"}


EXCITE = ("excite", "{f0}", "--out", "{out}")
CONDITION = ("condition", "--raw-wav", "{wav}", "--out-prefix", "{out}")
PITCH = ("metrics", "{wav}", "{wav}", "--f0", "{f0}", "--pitch-jitter")


@pytest.mark.parametrize(
    "argv, config, category",
    [
        (EXCITE + ("--hop", "nan"), None, "config"),
        (EXCITE, {"seed": "abc"}, "config"),
        (EXCITE, {"amplitude": [1]}, "config"),
        (EXCITE + ("--k-max", "0"), None, "config"),
        (CONDITION + ("--factors", "8,x"), None, "config"),
        (CONDITION, {"factors": [8, 6]}, "config"),
        (("excite", "{f0}", "--out", "{dir}"), None, "io"),
        (("filter", "{wav}", "{nan_hop}", "--out", "{out}"), None, "format"),
        (("filter", "{wav}", "{sub_hop}", "--out", "{out}"), None, "format"),
        (("estimate", "{hop_mismatch_mel}", "--out", "{out}"), None, "format"),
        (("excite", "{utf16_f0}", "--out", "{out}"), None, "format"),
        (("estimate", "{mel}", "--n-taps", "1500", "--out", "{out}"), None, "config"),
        (("estimate", "{loud_mel}", "--out", "{out}"), None, "domain"),
        (PITCH + ("--search-cents=-50",), None, "config"),
        (PITCH + ("--search-cents", "0"), None, "config"),
        (PITCH + ("--search-cents", "1e9"), None, "config"),
        (PITCH + ("--search-cents", "nan"), None, "config"),
        (PITCH + ("--hop", "1e-5"), None, "config"),
        (("metrics", "{wav}", "{wav}", "--pitch-jitter"), None, "config"),
        (("filter", "{wav}", "{ltvf}", "--out", "{out}"), {"interpolate_taps": "no"}, "config"),
        (("metrics", "{wav}", "{wav}", "--f0", "{f0}", "--uv-error", "--hop", "1e-5"), None, "config"),
        (("estimate", "{mel}", "--hop-size", "160", "--out", "{out}"), None, "config"),
        (("fit", "{wav}", "{wav}", "--hop", "1e-5", "--out", "{out}"), None, "config"),
        (("fit", "{wav}", "{wav}", "--n-taps", "3000000000", "--out", "{out}"), None, "config"),
        # hops of 2**31 samples or more: each array they would size is refused before it is made
        (("fit", "{wav}", "{wav}", "--hop", "1e15", "--out", "{out}"), None, "config"),
        (("filter", "{wav}", "{huge_hop}", "--out", "{out}"), None, "format"),
        (PITCH + ("--hop", "1e30"), None, "config"),
        (("mel", "{snan_wav}", "--out", "{out}"), None, "format"),
        (("estimate", "{snan_mel}", "--out", "{out}"), None, "format"),
        (("filter", "{wav}", "{snan_ltvf}", "--out", "{out}"), None, "format"),
        (EXCITE + ("--hop", "1e308"), None, "config"),
        (EXCITE + ("--hop", "1e-5", "--n-samples", "100000"), None, "config"),
        (EXCITE + ("--sample-rate", "1e308"), None, "config"),
        (("demo", "--out-dir", "{dir}", "--duration", "1e308"), None, "config"),
        (("demo", "--out-dir", "{dir}", "--hop", "1e-300"), None, "config"),
        (EXCITE + ("--seed", "-1"), None, "config"),
        (EXCITE + ("--phase-init", "random"), None, "config"),
        (("demo", "--out-dir", "{unmade}", "--seed", "-5"), None, "config"),
        # refused after the first artifacts are computed: the demo writes nothing
        (("demo", "--out-dir", "{unmade}", "--sample-rate", "1000"), None, "config"),
        (("demo", "--out-dir", "{unmade}", "--duration", "1e-9"), None, "config"),
        # each of these three would allocate petabytes
        (("loudness", "{wav}", "--hop-size", "1000000000000000", "--out", "{out}"), None, "config"),
        (("mel", "{wav}", "--fft-size", "1000000000000000", "--out", "{out}"), None, "config"),
        (CONDITION + ("--factors", "1000000000000000"), None, "config"),
        (("fit", "{empty_wav}", "{empty_wav}", "--out", "{out}"), None, "domain"),
        (("loudness", "{empty_wav}", "--out", "{out}"), None, "domain"),
        (("mel", "{empty_wav}", "--out", "{out}"), None, "domain"),
        (("filter", "{wav}", "{no_frames}", "--out", "{out}"), None, "format"),
        (("mel", "{wav}", "--n-mels", "0", "--out", "{out}"), None, "config"),
        (("estimate", "{zero_rate_mel}", "--out", "{out}"), None, "format"),
        (("estimate", "{mel_v1}", "--out", "{out}"), None, "format"),
        (("estimate", "{nyquist_mel}", "--out", "{out}"), None, "format"),
        (("estimate", "{loud}", "--out", "{out}"), None, "format"),
        (("estimate", "{cond_x8}", "--out", "{out}"), None, "format"),
        (EXCITE + ("--amplitude", "1e308"), None, "domain"),
        (EXCITE + ("--amplitude", "1e38"), None, "format"),
        # an encoding write_wav does not know, as a flag and from a config file: no file is made
        (("excite", "{f0}", "--encoding", "bogus", "--out", "{unmade}"), None, "config"),
        (("excite", "{f0}", "--out", "{unmade}"), {"encoding": ["pcm16"]}, "config"),
        (("fit", "{wav}", "{empty_wav}", "--out", "{out}"), None, "length-mismatch"),
        (("fit", "{wav}", "{wav}", "--out", "{out}", "--n-taps"), None, "config"),
        (("fit", "{wav}", "{wav}"), None, "config"),
        (("bogus", "{wav}"), None, "config"),
    ],
    ids=[
        "hop-nan", "seed-str", "amplitude-list", "k-max-zero",
        "factors-not-int", "factors-list", "out-is-dir", "ltvf-nan-hop",
        "ltvf-hop-below-one-sample", "mel-hop-mismatch",
        "f0-not-utf8", "n-taps-above-fft-size", "mel-overflow",
        "search-cents-negative", "search-cents-zero", "search-cents-1e9", "search-cents-nan",
        "pitch-hop-below-one-sample", "pitch-jitter-without-f0", "interpolate-taps-str",
        "uv-hop-below-one-sample",
        "estimate-unknown-flag", "fit-hop-below-one-sample",
        "fit-n-taps-3e9", "fit-hop-1e15", "ltvf-hop-1e15", "pitch-hop-1e30",
        "wav-signaling-nan", "mel-signaling-nan", "ltvf-signaling-nan",
        "excite-hop-1e308", "excite-hop-1e-5-n-samples", "excite-sample-rate-1e308", "demo-duration-1e308", "demo-hop-1e-300",
        "excite-seed-negative", "excite-phase-init-flag", "demo-seed-negative",
        "demo-sample-rate-1000", "demo-duration-1e-9", "loudness-hop-1e15", "mel-fft-size-1e15",
        "condition-factor-1e15", "fit-empty-wavs", "loudness-empty-wav", "mel-empty-wav",
        "filter-no-frames", "mel-n-mels-0",
        "estimate-sample-rate-0", "estimate-mel-v1", "estimate-f-max-above-nyquist",
        "estimate-loudness-file",
        "estimate-conditioning-file", "excite-amplitude-1e308", "excite-amplitude-1e38",
        "excite-encoding-bogus", "excite-encoding-list",
        "fit-length-mismatch",
        "usage-missing-value", "usage-missing-out", "usage-unknown-subcommand",
    ],
)
@pytest.mark.filterwarnings("error")  # a warning would print to stderr outside pytest
def test_bad_input_exits_1_with_one_json_error(tmp_path, inputs, capsys, argv, config, category):
    argv = [a.format(**inputs) for a in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + argv
    code, _, err = run(capsys, *argv)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["category"] == category
    assert not inputs["unmade"].exists()


@pytest.mark.parametrize("value", [["pcm16"], None, 16], ids=["list", "null", "number"])
def test_config_encoding_must_be_a_string(tmp_path, f0_file, capsys, value):
    """A config value that is not a string is reported as itself, not as the name ``str`` makes of it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"encoding": value}))
    out = tmp_path / "exc.wav"
    code, _, err = run(capsys, "--config", str(cfg), "excite", str(f0_file), "--out", str(out))
    assert code == 1
    [line] = err.strip().splitlines()
    assert json.loads(line) == {"category": "config", "message": f"invalid encoding: expected str, got {value!r}"}
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "{", "[1, 2]"], ids=["missing", "bad-json", "json-array"])
def test_unusable_config_file_exits_1_with_one_json_error(tmp_path, f0_file, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "exc.wav"
    code, _, err = run(capsys, "--config", str(cfg), "excite", str(f0_file), "--out", str(out))
    assert code == 1
    [line] = err.strip().splitlines()
    assert json.loads(line)["category"] == "config"
    assert not out.exists()


@pytest.mark.parametrize(
    "exc", [MemoryError(), MemoryError("Unable to allocate 12.8 GiB")], ids=["bare", "numpy"]
)
def test_memory_error_exits_1_with_one_json_error(tmp_path, f0_file, capsys, monkeypatch, exc):
    """A request past the memory it can get is category ``memory``, not a traceback."""

    def exhausted(args, resolved):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "excite", cli.COMMANDS["excite"]._replace(run=exhausted))
    code, _, err = run(capsys, "excite", str(f0_file), "--out", str(tmp_path / "exc.wav"))
    assert code == 1
    [line] = err.strip().splitlines()
    assert json.loads(line) == {"category": "memory", "message": str(exc) or "MemoryError()"}


MANIFEST_SUFFIXES = ("run.json", "run_config.json")
REPLAYS = {  # subcommand: (input arguments, non-default options, output flag, output name)
    "excite": (["{f0}"], ["--amplitude", "0.3", "--seed", "7",
                          "--k-max", "5", "--encoding", "pcm16"], "--out", "exc.wav"),
    "filter": (["{wav}", "{ltvf}"], ["--encoding", "pcm16", "--no-interp-taps"], "--out", "y.wav"),
    "estimate": (["{mel}"], ["--n-taps", "32", "--floor-db", "-40"], "--out", "est.ltvf"),
    "fit": (["{wav}", "{wav}"], ["--n-taps", "16", "--ridge-lambda", "0.001", "--hop", "0.02"],
            "--out", "fit.ltvf"),
    "mel": (["{wav}"], ["--fft-size", "512", "--win-size", "320", "--hop-size", "80",
                        "--n-mels", "40", "--f-max", "7000"], "--out", "mel.hmx"),
    "loudness": (["{wav}"], ["--hop-size", "80"], "--out", "loud.hmx"),
    "condition": (["--raw-wav", "{wav}", "--noise-wav", "{wav}"],
                  ["--factors", "4,5"], "--out-prefix", "cond"),
    "demo": ([], ["--duration", "0.6", "--seed", "7", "--hop", "0.005"], "--out-dir", "demo"),
}


@pytest.mark.parametrize("subcommand", sorted(REPLAYS))
def test_run_manifest_replays_byte_identically(tmp_path, f0_file, capsys, subcommand):
    """Feeding a run's manifest back as --config, with no option flags, redoes the run."""
    src = tmp_path / "in"
    src.mkdir()
    files = {"f0": f0_file, "wav": src / "exc.wav", "mel": src / "mel.hmx", "ltvf": src / "c.ltvf"}
    assert run(capsys, "excite", str(f0_file), "--out", str(files["wav"]))[0] == 0
    assert run(capsys, "mel", str(files["wav"]), "--out", str(files["mel"]))[0] == 0
    assert run(capsys, "fit", str(files["wav"]), str(files["wav"]), "--out", str(files["ltvf"]))[0] == 0

    inputs, options, out_flag, out_name = REPLAYS[subcommand]
    inputs = [subcommand] + [a.format(**files) for a in inputs]
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert run(capsys, *inputs, *options, out_flag, str(first / out_name))[0] == 0
    manifest = next(p for p in first.rglob("*.json") if p.name.endswith(MANIFEST_SUFFIXES))
    assert run(capsys, "--config", str(manifest), *inputs, out_flag, str(second / out_name))[0] == 0

    def outputs(d):
        return {
            p.relative_to(d): p.read_bytes()
            for p in d.rglob("*")
            if p.is_file() and not p.name.endswith(MANIFEST_SUFFIXES)
        }

    assert outputs(first) and outputs(first) == outputs(second)


def test_cli_never_imports_scipy(tmp_path):
    """scipy.signal alone took 1.4 s of every CLI call's start-up; keep it out."""
    probe = (
        "import json, sys\n"
        "import harmex, harmex.cli\n"
        "code = harmex.cli.main(['demo', '--out-dir', sys.argv[1]])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'code': code, 'scipy': loaded}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(harmex.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"code": 0, "scipy": []}


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    """A 1 s demo's f0, WAV and mel files and an ``.ltvf`` estimated from the mel file.

    With its 100 mel frames, check_count refuses the largest fft_size one changed byte gives
    (2**26), which would otherwise ask for gigabytes.
    """
    d = tmp_path_factory.mktemp("demo")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["demo", "--duration", "1", "--out-dir", str(d)]) == 0
        assert main(["estimate", str(d / "target_mel.hmx"), "--out", str(d / "c.ltvf")]) == 0
    return {"f0": d / "f0.txt", "wav": d / "excitation.wav", "mel": d / "target_mel.hmx",
            "ltvf": d / "c.ltvf"}


MUTATED_CALLS = {  # the file whose bytes change: the call that reads it
    "f0": ("excite", "{f0}"),
    "wav": ("filter", "{wav}", "{ltvf}"),
    "ltvf": ("filter", "{wav}", "{ltvf}"),
    "mel": ("estimate", "{mel}"),
}


@pytest.mark.filterwarnings("error")  # a warning would print to stderr outside pytest
@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(MUTATED_CALLS)),
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=6),
    keep=st.integers(0, 10**6),
)
def test_mutated_file_exits_0_or_1_with_one_json_error(
    tmp_path_factory, demo_files, kind, edits, keep
):
    """Changed or truncated bytes of any file the CLI reads: a result, or one JSON error line."""
    d = tmp_path_factory.mktemp("mutated")
    mutated = d / demo_files[kind].name
    raw = bytearray(demo_files[kind].read_bytes())
    for pos, value in edits:
        raw[pos % len(raw)] = value
    mutated.write_bytes(bytes(raw[: keep % (len(raw) + 1)]))
    files = {**demo_files, kind: mutated}
    argv = [a.format(**files) for a in MUTATED_CALLS[kind]] + ["--out", str(d / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        [line] = err.getvalue().splitlines()
        assert json.loads(line)["category"]


# the demo file each input argument of a subcommand reads
ARGV_FILES = {"f0_file": "f0", "--f0": "f0", "coeff_file": "ltvf", "mel_file": "mel"}


@pytest.mark.filterwarnings("error")  # a warning would print to stderr outside pytest
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_drawn_flags_exit_0_or_1_with_one_json_error(tmp_path_factory, demo_files, data):
    """Any subcommand with some of its flags, each a drawn value or its default, on the demo
    files: a result, or one JSON error line."""
    name = data.draw(st.sampled_from(sorted(cli.COMMANDS)), "subcommand")
    command = cli.COMMANDS[name]
    out = tmp_path_factory.mktemp("argv") / "out"
    argv = [name]
    for arg in command.files:
        path = str(out) if arg.startswith("--out") else str(demo_files[ARGV_FILES.get(arg, "wav")])
        argv += [arg, path] if arg.startswith("--") else [path]
    if command.switches:
        argv += data.draw(st.lists(st.sampled_from(command.switches), unique=True), "switches")
    for key in data.draw(st.lists(st.sampled_from(sorted(command.options)), unique=True), "flags"):
        coerce, default = command.options[key]
        if coerce is cli._bool:  # the one flag without a value
            argv.append("--no-interp-taps")
        else:  # "--flag=value", so that "-inf" is not read as a flag
            value = data.draw(st.sampled_from([*DRAWN, cli._jsonable(default)]), key)
            argv.append(f"--{key.replace('_', '-')}={value}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), argv
    if code == 1:
        [line] = err.getvalue().splitlines()
        assert json.loads(line)["category"]


# config values besides the drawn scalars: a numeric string, a finite value whose products pass
# 2**31 (a hop of 1e15 s), and JSON lists and objects
CONFIG_EXTRAS = ["1.5", 1e15, [], [8, "a"], [1.5, None], {}, {"a": 1}, {"value": [0.01]}]


@pytest.mark.filterwarnings("error")  # a warning would print to stderr outside pytest
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_drawn_config_exits_0_or_1_with_one_json_error(tmp_path_factory, demo_files, data):
    """Any subcommand, with a ``--config`` JSON object over some of its option keys, each a
    drawn value, a list, an object or its default, on the demo files: a result, or one JSON
    error line.

    Two decisions stand here.  A numeric string such as ``"1.5"`` is accepted, since flag and
    config values share one coercer and a flag is a string.  An ``OSError`` is categorized: the
    CLI reports it as category ``io``, like any other error, in one JSON line.
    """
    name = data.draw(st.sampled_from(sorted(cli.COMMANDS)), "subcommand")
    command = cli.COMMANDS[name]
    d = tmp_path_factory.mktemp("config")
    argv = [name]
    for arg in command.files:
        path = d / "out" if arg.startswith("--out") else demo_files[ARGV_FILES.get(arg, "wav")]
        argv += [arg, str(path)] if arg.startswith("--") else [str(path)]
    if command.switches:
        argv += data.draw(st.lists(st.sampled_from(command.switches), unique=True), "switches")
    config = {}
    for key in data.draw(st.lists(st.sampled_from(sorted(command.options)), unique=True), "keys"):
        default = cli._jsonable(command.options[key][1])
        config[key] = data.draw(st.sampled_from([*DRAWN, *CONFIG_EXTRAS, default]), key)
    (d / "config.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(d / "config.json"), *argv])
    assert code in (0, 1), (config, argv)
    if code == 1:
        [line] = err.getvalue().splitlines()
        assert json.loads(line)["category"]
