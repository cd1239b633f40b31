"""harmex benchmark runner.

Run from the root of a checkout:

    python3 bench/run.py --workload fit_resynth --seed 1 --seconds 25 --trace 0

Makes a pool of seeded 10 s, 16 kHz utterances, then runs jobs through the
public harmex functions one at a time from this process (a closed loop with
one client, as a CLI caller waits for each result) until ``--seconds`` of job
time have passed and at least MIN_JOBS jobs have run, checking every job's
output after its timed region.  BLAS and OpenMP run one thread: on a small
shared machine a second thread made ``mel_resynth`` slower and noisier and
left ``score`` no faster.

The second-last stdout line is a JSON report (environment, input
properties, every metric with its unit, tail percentile, failures); the
last line is ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
A traced run alternates traced and untraced jobs, so the tracing overhead is
measured in the same run; its spans are written to ``bench/out/`` as JSONL.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1

TAIL_BEYOND = 10  # samples beyond the reported tail percentile
MIN_JOBS = 2 * TAIL_BEYOND + 1  # so the tail percentile is at least the median
MAX_LOOP_S = 150.0  # keeps a run inside its time limit if jobs get very slow
SETUP_REPEATS = 5  # spread over the run, so their median spans its slow and fast spells


def _percentile_tail(times: list[float]) -> dict:
    """Highest percentile of ``times`` with at least TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / len(ordered),
        "samples": len(ordered),
        "beyond": len(ordered) - rank,
    }


def measure_setup_s() -> float:
    """Fresh-interpreter wall time of ``import harmex``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import harmex"], env=env, cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": NPROC,
        "cpu": cpu,
        "machine": platform.machine(),
    }


def _layer_stats(tracer, jobs: list[dict]) -> dict:
    """Per-layer metrics from the traced jobs of one run.

    Times (self_ms, share, work_per_s) are over every traced job.  Counts
    (calls, work, ratios) are per job averaged over the pool's utterances,
    each of which always gives the same counts, so they repeat exactly for
    a seed however many jobs the run fits in.
    """
    import workloads as wl

    traced = [j for j in jobs if j["traced"]]
    job_s = sum(j["seconds"] for j in traced)
    span_self = dict.fromkeys(wl.LAYER_SPANS, 0.0)
    per_job: dict[int, dict[str, Counter]] = {}
    for sp, st in zip(tracer.spans, tracer.self_times()):
        if sp.name in span_self:
            span_self[sp.name] += st
            entry = per_job.setdefault(sp.job, {}).setdefault(sp.name, Counter())
            entry["calls"] += 1
            entry.update(sp.counts)
    # every job on one utterance gives the same counts: keep one per utterance
    per_utt = {jobs[j]["utterance"]: counts for j, counts in per_job.items()}

    n_utt = len(per_utt)
    out = {}
    for name in wl.LAYER_SPANS:
        entries = [per_utt[u].get(name, Counter()) for u in per_utt]
        calls = sum(e["calls"] for e in entries) / n_utt
        work = sum(e["work"] for e in entries) / n_utt
        self_s = span_self[name] / len(traced)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.work"] = (work, wl.WORK_UNITS[name].removesuffix("/s"))
        out[f"{name}.self_ms"] = (1e3 * self_s, "ms")
        out[f"{name}.share"] = (span_self[name] / job_s, "ratio")
        out[f"{name}.work_per_s"] = (work / self_s if self_s > 0 else 0.0, wl.WORK_UNITS[name])
        if name in (wl.FIT_RIDGE, wl.FIT_MIN_NORM):
            frames = sum(e["frames"] for e in entries)
            solved = sum(e["work"] for e in entries)
            out[f"{name}.solved_frac"] = (solved / frames if frames else 0.0, "ratio")
    attributed = sum(span_self.values())
    out["job.unattributed_ms"] = (1e3 * (job_s - attributed) / len(traced), "ms")
    out["job.unattributed_share"] = ((job_s - attributed) / job_s, "ratio")
    return out


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    audio_seconds: float = 10.0,
    min_jobs: int = MIN_JOBS,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """One benchmark run; returns the report holding every metric."""
    import workloads as wl
    from spans import NULL_TRACER, Tracer

    setup: list[float] = []
    setup_repeats = 0 if trace else setup_repeats
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    jobs, failures = [], []

    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
        in_dir, wd = Path(tmp, "in"), Path(tmp, "job")
        in_dir.mkdir()
        wd.mkdir()
        pool = wl.make_pool(workload, seed, in_dir, audio_seconds)

        def attempt(tr, utt: int, label) -> float:
            """Run and check one job; returns its wall time, failures recorded."""
            problems = []
            t0 = time.perf_counter()
            try:
                with tr.span(f"job.{workload}"):
                    out = wl.JOBS[workload](tr, pool[utt], wd)
            except Exception as exc:  # a failed job counts against error_rate; the run goes on
                out = None
                problems.append(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if out is not None:
                problems += wl.CHECKS[workload](out)
            if problems:
                failures.append({"job": label, "utterance": utt, "problems": problems})
            return dt

        # untimed warm-up on the last utterance, so the first timed job differs
        attempt(NULL_TRACER, len(pool) - 1, "warm-up")

        busy = 0.0
        loop_start = time.perf_counter()
        while True:
            # set-up samples go between jobs, evenly over the run's job time
            due = 1 + int(busy / seconds * (setup_repeats - 1)) if seconds > 0 else setup_repeats
            while len(setup) < min(due, setup_repeats):
                setup.append(measure_setup_s())
            traced_utts = {j["utterance"] for j in jobs if j["traced"]}
            done = busy >= seconds and len(jobs) >= min_jobs
            if trace:
                done = done and len(traced_utts) == len(pool)
            if done or (jobs and time.perf_counter() - loop_start > MAX_LOOP_S):
                break
            index = len(jobs)
            utt, traced = index % len(pool), trace and index % 2 == 1
            tracer.job = index
            dt = attempt(tracer if traced else NULL_TRACER, utt, index)
            busy += dt
            jobs.append({"utterance": utt, "traced": traced, "seconds": dt})

        while len(setup) < setup_repeats:
            setup.append(measure_setup_s())
        inputs = wl.input_properties(pool)
        # refine_pitch runs only inside pitch_jitter, so its give-ups are
        # counted here, after timing, on the same inputs
        refined = wl.refined_frac(pool) if trace and workload == "score" else 0.0

    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "env": environment(),
        "inputs": inputs,
        "load": "closed loop, one process, one job at a time",
    }
    attempted, failed = len(jobs) + 1, len(failures)
    untraced = [j["seconds"] for j in jobs if not j["traced"]]
    metrics = {"error_rate": (failed / attempted, "ratio")}
    if trace:
        traced_s = [j["seconds"] for j in jobs if j["traced"]]
        metrics.update(_layer_stats(tracer, jobs))
        metrics["trace.overhead_ms"] = (
            1e3 * (statistics.median(traced_s) - statistics.median(untraced)),
            "ms",
        )
        metrics["metrics.pitch_jitter.refined_frac"] = (refined, "ratio")
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        tail = _percentile_tail(untraced)
        metrics.update(
            {
                "audio_xrt": (inputs["audio_s_per_job"] * len(untraced) / sum(untraced), "s/s"),
                "job_ms_min": (1e3 * min(untraced), "ms"),
                "job_ms_p50": (1e3 * statistics.median(untraced), "ms"),
                "job_ms_tail": (1e3 * tail["value"], "ms"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
        )
        report["job_ms_tail"] = {k: v for k, v in tail.items() if k != "value"}
        report["setup_s_samples"] = setup
    report["jobs"] = {"attempted": attempted, "failed": failed, "untraced": len(untraced)}
    report["failures"] = failures[:5]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "harmex" / "__init__.py").is_file():
        print(f"error: no harmex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harmex

    if not Path(harmex.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported harmex from {harmex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {wl.WORKLOADS}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": report["jobs"]["failed"] == 0,
        "attempted": report["jobs"]["attempted"],
        "failed": report["jobs"]["failed"],
        "metrics": {m["name"]: report["metrics"][m["name"]] for m in names},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # before numpy loads, so its BLAS and OpenMP pools see the cap
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
