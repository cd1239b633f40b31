"""Shape an excitation with a time-varying filter, then recover the filter.

A vowel-like target is made by passing a sine excitation through drifting
formant resonances.  The per-frame least-squares fit then recovers filter
coefficients from the (excitation, target) pair alone, and refiltering shows
how much closer the fitted output is to the target than the raw excitation.

Run:  python3 demos/02_fit_and_filter.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from harmex import (
    ExcitationConfig,
    F0Track,
    LtvFirCoeffs,
    StftConfig,
    apply_ltv,
    fit_coeffs_least_squares,
    interpolate_f0,
    minimum_phase_fir,
    mr_stft_loss,
    sine_excitation,
    write_coeffs,
    write_wav,
)

FS = 16000
HOP = 160

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

n_frames = 100
track = F0Track(np.full(n_frames, 180.0), 0.010)
sample_f0 = interpolate_f0(track, FS, n_frames * HOP)
excitation = sine_excitation(sample_f0, ExcitationConfig(seed=1))

# two formants that glide over the course of a second
stft = StftConfig()
freqs = np.arange(stft.n_bins) * FS / stft.fft_size
frame = np.arange(n_frames)[:, None]
f1 = 700.0 + 200.0 * frame / n_frames
f2 = 1800.0 - 400.0 * frame / n_frames
mag_db = np.full((n_frames, stft.n_bins), -40.0)
for center, width in ((f1, 120.0), (f2, 180.0)):
    mag_db = np.maximum(mag_db, -0.5 * ((freqs - center) / width) ** 2)
taps = minimum_phase_fir(10 ** (mag_db / 20.0), 64, stft.fft_size)  # one row per frame
envelope = LtvFirCoeffs(taps, 0.010, FS)

target = apply_ltv(excitation, envelope)
write_wav(out_dir / "vowel_target.wav", target)

fitted = fit_coeffs_least_squares(excitation, target)
write_coeffs(out_dir / "vowel_fitted.ltvf", fitted)
filtered = apply_ltv(excitation, fitted)
write_wav(out_dir / "vowel_filtered.wav", filtered)

raw = mr_stft_loss(excitation, target).total
fit = mr_stft_loss(filtered, target).total
print(f"multi-resolution STFT loss, raw excitation vs target: {raw:.4f}")
print(f"multi-resolution STFT loss, fitted filter vs target:  {fit:.4f}")
print(f"reduction: {100 * (1 - fit / raw):.1f}%")
print(f"artifacts in {out_dir}/")
