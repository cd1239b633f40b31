"""Tests of the benchmark itself, on short (1 s) seeded utterances.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NULL_TRACER, Tracer  # noqa: E402

AUDIO_S = 1.0


def short_run(workload, seed, trace, setup_repeats=1):
    return run.run(
        workload, seed, 0.0, trace, audio_seconds=AUDIO_S, min_jobs=1, setup_repeats=setup_repeats
    )


@pytest.fixture
def job_output(tmp_path):
    def make(workload, seed=3):
        u = wl.make_utterance(workload, seed, 0, tmp_path, AUDIO_S)
        out = wl.JOBS[workload](NULL_TRACER, u, tmp_path)
        assert wl.CHECKS[workload](out) == []
        return out

    return make


def counts(report):
    return {
        k: v["value"] for k, v in report["metrics"].items() if k.endswith((".calls", ".work", "_frac"))
    }


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_runs_pass_checks_and_repeat_counts(workload):
    first, second = short_run(workload, 4, True), short_run(workload, 4, True)
    assert first["jobs"]["failed"] == 0, first["failures"]
    per_layer = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} <= set(first["metrics"])
    assert counts(first) == counts(second)
    assert first["inputs"] == second["inputs"]


def test_untraced_run_reports_every_end_to_end_metric():
    report = short_run("score", 5, trace=False, setup_repeats=2)
    assert report["jobs"]["failed"] == 0, report["failures"]
    assert len(report["setup_s_samples"]) == 2
    end_to_end = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    for m in end_to_end:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
        assert report["metrics"][m["name"]]["value"] > 0


def test_inputs_follow_the_seed(tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (
        wl.make_utterance("fit_resynth", seed, 1, d, AUDIO_S) for seed, d in zip((9, 9, 10), dirs)
    )
    assert a.paths["target"].read_bytes() == b.paths["target"].read_bytes()
    assert not np.array_equal(a.track.values, c.track.values)


def test_fit_resynth_check_rejects_nonzero_unvoiced_sample(job_output):
    out = job_output("fit_resynth")
    out["excitation"][np.flatnonzero(out["sample_f0"] == 0)[0]] = 1e-300
    assert any("unvoiced" in p for p in wl.check_fit_resynth(out))


def test_fit_resynth_check_rejects_low_snr(job_output):
    out = job_output("fit_resynth")
    out["filtered"] = out["filtered"] * 0.5
    assert any("SNR" in p for p in wl.check_fit_resynth(out))


def test_fit_resynth_check_rejects_wrong_pyramid_length(job_output):
    out = job_output("fit_resynth")
    out["pyramid_lengths"][2][1] += 1
    assert any("pyramid" in p for p in wl.check_fit_resynth(out))


def test_mel_resynth_check_rejects_inexact_refit(job_output):
    out = job_output("mel_resynth")
    out["refiltered"][100] += 1e-8
    assert wl.check_mel_resynth(out)


@pytest.mark.parametrize("key,value", [("mr_stft_total", np.nan), ("uv_error_rate", 1.5)])
def test_score_check_rejects_bad_values(job_output, key, value):
    out = job_output("score")
    out[key] = value
    assert wl.check_score(out)


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", lambda: {"work": 3}):
            pass
    outer, inner = tr.spans
    assert inner.parent == outer.id and inner.counts == {"work": 3}
    assert tr.self_times()[0] == pytest.approx(outer.duration - inner.duration)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
