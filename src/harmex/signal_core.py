"""Pitch interpolation and additive sine-excitation synthesis.

The excitation is a sum of sinusoids at every integer multiple of the
fundamental that fits below Nyquist.  A single double-precision base phase
accumulator runs through each voiced region; harmonic ``k`` uses ``k`` times
the base phase, so all harmonics stay phase-locked and the accumulator drift
stays bounded over long files.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import SAMPLE_LIMIT, AliasingError, ConfigError, DomainError, FormatError
from .errors import LengthMismatchError, check_array, check_count, check_integer, check_positive
from .errors import check_type, from_file

TAU = 2.0 * math.pi

# Batched stages walk their rows in blocks whose transients hold about this
# many float64 elements (1 MiB); see ``_blocks``.
BLOCK_ELEMS = 1 << 17

# ``_each`` runs on this many threads: one per CPU the process may use.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

DEFAULT_SAMPLE_RATE = 16000
DEFAULT_HOP_SECONDS = 0.010


@dataclass(frozen=True)
class F0Track:
    """Frame-level pitch sequence in Hz; 0 marks unvoiced frames."""

    values: np.ndarray
    hop_seconds: float = DEFAULT_HOP_SECONDS

    def __post_init__(self):
        object.__setattr__(self, "values", check_array("f0 values", self.values, 1, minimum=0))
        check_positive("hop_seconds", self.hop_seconds)

    def __len__(self):
        return len(self.values)

    @property
    def voiced_mask(self) -> np.ndarray:
        return self.values > 0


@dataclass(frozen=True)
class SampleF0:
    """Sample-level pitch sequence, one Hz value per audio sample."""

    values: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "values", check_array("f0 values", self.values, 1, minimum=0))
        check_positive("sample_rate", self.sample_rate)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class AudioSignal:
    """Mono waveform with its sample rate; nominal range [-1, 1], admitted within +-SAMPLE_LIMIT."""

    samples: np.ndarray
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = check_array("audio samples", self.samples, 1, limit=SAMPLE_LIMIT)
        object.__setattr__(self, "samples", samples)
        check_positive("sample_rate", self.sample_rate)

    def __len__(self):
        return len(self.samples)


def _check_signals(**signals: AudioSignal) -> tuple[int, float]:
    """The one length and sample rate of signals used together, named by keyword.

    ConfigError if one is not an AudioSignal or the rates differ, then
    LengthMismatchError if the lengths differ.
    """
    for name, sig in signals.items():
        check_type(name, sig, AudioSignal)
    found = ", ".join(f"{name} {len(sig)} at {sig.sample_rate}" for name, sig in signals.items())
    if len({sig.sample_rate for sig in signals.values()}) > 1:
        raise ConfigError(f"sample-rate mismatch: {found}")
    if len({len(sig) for sig in signals.values()}) > 1:
        raise LengthMismatchError(f"length mismatch: {found}")
    first = next(iter(signals.values()))
    return len(first), first.sample_rate


@dataclass(frozen=True)
class ExcitationConfig:
    """Synthesis knobs the pitch track does not determine.

    amplitude is a global scale applied to the harmonic sum; the default 0.1
    keeps an 80-harmonic excitation inside the nominal range.  1.0 recovers
    the plain unit-amplitude sum.  Each voiced onset starts the base phase at
    0, or with a seed at a uniform draw in [0, 2*pi) from that seed's stream.
    k_max_cap freezes the harmonic count for experiments where harmonics
    popping in and out is unwanted.
    """

    amplitude: float = 0.1
    seed: int | None = None
    k_max_cap: int | None = None

    def __post_init__(self):
        check_positive("amplitude", self.amplitude)
        if self.seed is not None:
            object.__setattr__(self, "seed", check_integer("seed", self.seed, minimum=0))
        if self.k_max_cap is not None:
            cap = check_integer("k_max_cap", self.k_max_cap, minimum=1)
            object.__setattr__(self, "k_max_cap", cap)


def _voiced_runs(mask: np.ndarray):
    """Yield (start, stop) of maximal True runs, stop exclusive."""
    idx = np.flatnonzero(np.diff(np.concatenate(([0], mask.view(np.int8), [0]))))
    return list(zip(idx[0::2], idx[1::2]))


def _blocks(start: int, stop: int, row_elems: int) -> list[slice]:
    """Slices tiling rows [start, stop), each of at least one row and at most
    ``BLOCK_ELEMS // row_elems``, where a row's transients hold row_elems elements."""
    step = max(1, BLOCK_ELEMS // row_elems)
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def _each(fn, items) -> None:
    """Call ``fn(item)`` for each of ``items`` on up to ``WORKERS`` threads sharing one iterator;
    ``fn`` writes its output where its item says, and nothing comes back.

    The caller's thread is one of them, so no thread starts for one worker or
    one item.  Each other runs in a copy of the caller's context, so the
    caller's ``np.errstate`` holds there too.  After an error no item is
    handed out; every thread is joined and the first exception is raised here.
    """
    todo, lock, errors, end = iter(items), threading.Lock(), [], object()

    def work():
        while not errors:
            with lock:
                item = next(todo, end)
            if item is end:
                return
            try:
                fn(item)
            except BaseException as exc:  # raised again in the caller's thread
                errors.append(exc)

    started = []
    try:
        for _ in range(min(WORKERS, len(items)) - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            thread.start()
            started.append(thread)
        work()
    except BaseException as exc:  # a thread that did not start, or an interrupt
        errors.append(exc)
    for thread in started:
        thread.join()
    if errors:
        raise errors[0]


def hop_samples(hop_seconds: float, sample_rate: float) -> int:
    """The hop in whole samples; a non-finite hop, one rounding below 1 or one of 2**31 samples
    or more is an error."""
    check_positive("sample_rate", sample_rate)
    hop = float(check_array("hop_seconds", hop_seconds, 0, error=ConfigError)) * sample_rate
    if not math.isfinite(hop):
        raise ConfigError(f"hop of {hop_seconds} s at fs={sample_rate} is not finite in samples")
    if round(hop) < 1:
        raise ConfigError(f"hop of {hop_seconds} s is not at least one sample at fs={sample_rate}")
    return check_count("hop in samples", hop)


def frame_bounds(track: F0Track, sample_rate: float, n_samples: int) -> np.ndarray:
    """``len(track) + 1`` bounds b, clipped to n_samples: frame m owns samples [b[m], b[m+1]).

    Those are the n with ``floor((n + h/2) / h) == m``, h = hop_seconds * sample_rate unrounded.
    The hop must round to at least one sample (``hop_samples``).
    """
    hop_samples(track.hop_seconds, sample_rate)
    hop = track.hop_seconds * sample_rate
    m = np.arange(len(track) + 1)

    def past(n):  # sample n belongs to frame m or a later one, by the owner map's own rounding
        return np.floor((n + hop / 2) / hop) >= m

    bounds = np.clip(np.ceil(m * hop - hop / 2), 0, n_samples).astype(np.intp)
    # the owner map is monotone and the estimate off by rounding: a step or two settles each bound
    while True:
        down = (bounds > 0) & past(bounds - 1)
        up = (bounds < n_samples) & ~past(bounds)
        if not (down.any() or up.any()):
            return bounds
        bounds += up.view(np.int8) - down.view(np.int8)


def frame_centers(n_frames: int, hop_seconds: float, sample_rate: float) -> np.ndarray:
    """Sample nearest each center ``m * hop_seconds * sample_rate``, ties up; see refine_pitch."""
    hop_samples(hop_seconds, sample_rate)
    return np.floor(np.arange(n_frames) * (hop_seconds * sample_rate) + 0.5).astype(np.intp)


def interpolate_f0(track: F0Track, sample_rate: float, n_samples: int) -> SampleF0:
    """Linearly interpolate a frame-level track to sample level.

    Frame m sits at sample ``m * hop_seconds * sample_rate``, unrounded, and
    fills the samples it owns (``frame_bounds``; the last frame fills the rest).
    Interpolation runs only between the centers of frames in the same voiced
    run, whose endpoint values are held to the voicing boundary; every sample
    of an unvoiced frame is exactly zero.
    """
    check_type("track", track, F0Track)
    hop_samples(track.hop_seconds, sample_rate)  # checks sample_rate first
    hop = track.hop_seconds * sample_rate
    n_samples = check_count("n_samples", check_integer("n_samples", n_samples, minimum=0))
    coverage = (len(track) + 1) * hop  # through one hop past the last frame
    if n_samples > math.ceil(coverage):
        raise LengthMismatchError(
            f"n_samples={n_samples} exceeds track coverage {math.ceil(coverage)}"
        )

    out = np.zeros(n_samples)
    bounds = frame_bounds(track, sample_rate, n_samples)
    bounds[-1] = n_samples
    for start, stop in _voiced_runs(track.voiced_mask):
        lo, hi = bounds[start], bounds[stop]
        centers = np.arange(start, stop) * hop
        out[lo:hi] = np.interp(np.arange(lo, hi), centers, track.values[start:stop])
    return SampleF0(out, sample_rate)


def harmonic_count(f0: float, sample_rate: float) -> int:
    """Number of harmonics of f0 that fit at or below Nyquist."""
    check_positive("f0", f0, error=DomainError)
    check_positive("sample_rate", sample_rate)
    return int(math.floor(sample_rate / (2.0 * f0)))


def sine_excitation(f0: SampleF0, cfg: ExcitationConfig = ExcitationConfig()) -> AudioSignal:
    """Synthesize the harmonic excitation driven by a sample-level pitch.

    Voiced samples are ``amplitude * sum_k sin(k * phi[n])`` with the base
    phase accumulated as ``phi[n] = phi[n-1] + 2*pi*f0[n]/fs`` and the
    harmonic count recomputed per sample; unvoiced samples are exactly zero.
    The base phase restarts per cfg.seed at each voiced onset.

    The sum is ``sum_{k=1..K} sin(k*phi) = sin(K*phi/2) * sin((K+1)*phi/2) /
    sin(phi/2)`` with each sample's own K, on every voiced sample and with no
    fallback.  phi > pi is first folded to phi - 2*pi, exact by Sterbenz's
    lemma, so that sin(phi/2) keeps full relative precision next to multiples
    of 2*pi (unfolded, phi/2 sits next to pi there); phi = 0 gives 0.
    Since |sum_k sin(k*phi)| <= K, an amplitude whose product with the largest
    K reaches SAMPLE_LIMIT is a DomainError naming it, before any synthesis.
    """
    check_type("f0", f0, SampleF0)
    check_type("cfg", cfg, ExcitationConfig)
    v = f0.values
    fs = f0.sample_rate
    if np.any(v >= fs / 2):
        raise AliasingError("f0 at or above Nyquist")

    voiced = v > 0
    with np.errstate(over="ignore"):  # an inf count fails its check or gives way to the cap
        k_top = float(np.floor(fs / (2.0 * v.min(where=voiced, initial=np.inf))))
        if cfg.k_max_cap is not None:
            k_top = min(k_top, cfg.k_max_cap)
        check_count("harmonic count", k_top)  # < 2**31: every count is an exact whole float
        if cfg.amplitude * k_top >= SAMPLE_LIMIT:  # |sum_k sin(k*phi)| <= K
            raise DomainError(
                f"amplitude {cfg.amplitude!r} times the largest harmonic count {k_top:.0f} "
                f"reaches the sample limit {SAMPLE_LIMIT:.0e}".replace("e+", "e")
            )

        out = np.zeros(len(v))
        rng = None if cfg.seed is None else np.random.default_rng(cfg.seed)
        for start, stop in _voiced_runs(voiced):
            seg = v[start:stop]
            phi0 = 0.0 if rng is None else float(rng.uniform(0.0, TAU))
            base = (phi0 + np.cumsum(TAU * seg / fs)) % TAU
            base -= TAU * (base > math.pi)

            k_count = np.floor(fs / (2.0 * seg))
            if cfg.k_max_cap is not None:
                np.minimum(k_count, cfg.k_max_cap, out=k_count)

            half = 0.5 * base
            den = np.sin(half)
            den[den == 0] = np.inf
            acc = np.sin(k_count * half) * np.sin((k_count + 1) * half) / den
            out[start:stop] = cfg.amplitude * acc

    return AudioSignal(out, fs)


def gaussian_noise(n_samples: int, sample_rate: float, seed: int) -> AudioSignal:
    """Seeded i.i.d. standard-normal noise; identical seed, identical bits."""
    n_samples = check_count("n_samples", check_integer("n_samples", n_samples, minimum=0))
    rng = np.random.default_rng(check_integer("seed", seed, minimum=0))
    return AudioSignal(rng.standard_normal(n_samples), sample_rate)


def read_f0_track(path, hop_seconds: float = DEFAULT_HOP_SECONDS) -> F0Track:
    """Read a plain-text pitch track: one decimal Hz value per line."""
    check_positive("hop_seconds", hop_seconds)  # the caller's, not the file's
    values = []
    with open(path, encoding="utf-8", errors="replace") as fh:  # bad bytes fail float()
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise FormatError(f"bad f0 value on line {line_no}: {line!r}", path=path)
    return from_file(path, F0Track, values, hop_seconds)


def write_f0_track(path, track: F0Track) -> None:
    check_type("track", track, F0Track)
    with open(path, "w") as fh:
        for value in track.values:
            fh.write(f"{value:.6f}\n")
