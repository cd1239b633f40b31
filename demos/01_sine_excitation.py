"""Synthesize a harmonic sine excitation from a pitch track.

Builds a 2-second vibrato pitch contour with unvoiced edges, upsamples it to
sample rate, synthesizes the full harmonic stack, and verifies the two
headline properties: unvoiced regions are exactly silent, and the spectrum is
a clean harmonic comb.

Run:  python3 demos/01_sine_excitation.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from harmex import (
    ExcitationConfig,
    F0Track,
    harmonic_count,
    interpolate_f0,
    sine_excitation,
    write_wav,
)

FS = 16000
HOP_S = 0.010

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

# 2 s contour: 220 Hz with 5 Hz vibrato, voiced only in the middle 1.6 s
n_frames = 200
t = np.arange(n_frames) * HOP_S
f0 = 220.0 * (1.0 + 0.02 * np.sin(2 * np.pi * 5.0 * t))
voiced = (t >= 0.2) & (t <= 1.8)
track = F0Track(np.where(voiced, f0, 0.0), HOP_S)

n_samples = n_frames * int(FS * HOP_S)
sample_f0 = interpolate_f0(track, FS, n_samples)
excitation = sine_excitation(sample_f0, ExcitationConfig(seed=0))

write_wav(out_dir / "excitation.wav", excitation)
print(f"wrote {out_dir / 'excitation.wav'} ({n_samples} samples @ {FS} Hz)")

silent = excitation.samples[sample_f0.values == 0.0]
print(f"unvoiced samples exactly zero: {bool((silent == 0.0).all())}")
print(f"harmonics under Nyquist at 220 Hz: K = {harmonic_count(220.0, FS)}")

# spectrum of the steady middle second: energy concentrates on the comb
mid = excitation.samples[int(0.5 * FS) : int(1.5 * FS)]
spectrum = np.abs(np.fft.rfft(mid * np.hanning(len(mid))))
peak_hz = np.argmax(spectrum) * FS / len(mid)
print(f"strongest spectral peak near {peak_hz:.1f} Hz (f0 sweeps 215.6..224.4 Hz)")
