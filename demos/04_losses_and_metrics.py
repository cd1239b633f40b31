"""Spectral losses and pitch-quality metrics on synthetic signals.

Shows the multi-resolution STFT loss on known cases (identical signals, a
gain mismatch), the weighted training-style loss combination, and pitch
jitter / voicing-decision error on excitations that do and do not follow
their reference pitch track.

Run:  python3 demos/04_losses_and_metrics.py
"""

import numpy as np

from harmex import (
    AudioSignal,
    ExcitationConfig,
    F0Track,
    combined_loss,
    interpolate_f0,
    mr_stft_loss,
    pitch_jitter,
    sine_excitation,
    uv_error_rate,
)

FS = 16000
HOP = 160

n_frames = 100
track = F0Track(np.full(n_frames, 220.0), 0.010)
sample_f0 = interpolate_f0(track, FS, n_frames * HOP)
clean = sine_excitation(sample_f0, ExcitationConfig(seed=4))

same = mr_stft_loss(clean, clean)
print(f"loss(x, x):        sc={same.sc:.3g}  mag={same.mag:.3g}  total={same.total:.3g}")
doubled = mr_stft_loss(AudioSignal(2.0 * clean.samples, FS), clean)
print(
    f"loss(2x, x):       sc={doubled.sc:.6f}  mag={doubled.mag:.6f}"
    f"  (expected sc=1, mag=ln 2={np.log(2):.6f})"
)
print(f"combined_loss(l_dec=0.01, l_adv=0.1, l_stft=0.5) = "
      f"{combined_loss(l_dec=0.01, l_adv=0.1, l_stft=0.5):.4f}  (0.5 + 200*0.01 + 4*0.1)")

print(f"\npitch jitter of excitation vs its own track: "
      f"{pitch_jitter(clean, track):.2e} cents")
print(f"voicing-decision error rate: {uv_error_rate(clean, track):.3f}")

# a contour that alternates +/-50 cents frame to frame reads as ~100 cents
ratio = 2.0 ** (50.0 / 1200.0)
per_frame = np.where(np.arange(n_frames) % 2 == 0, 220.0 * ratio, 220.0 / ratio)
n = n_frames * HOP
idx = np.minimum((np.arange(n) + HOP // 2) // HOP, n_frames - 1)
wobble = AudioSignal(0.1 * np.sin(np.cumsum(2 * np.pi * per_frame[idx] / FS)), FS)
print(f"jitter of +/-50-cent alternation: {pitch_jitter(wobble, track):.1f} cents")
