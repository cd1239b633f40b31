"""Build multi-scale conditioning tensors from excitation and noise channels.

Stacks a noise channel with raw and filtered excitation at audio rate, then
decimates the bundle through the factor chain 8 -> 6 -> 5 (240x total) with
anti-aliasing filters, and exports one feature-tensor file per scale.

Run:  python3 demos/03_multiscale_conditioning.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from harmex import (
    ExcitationConfig,
    F0Track,
    downsample_multiscale,
    export_conditioning,
    gaussian_noise,
    interpolate_f0,
    read_feature_file,
    sine_excitation,
    stack_channels,
)

FS = 16000
HOP = 160

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

n_frames = 200
track = F0Track(np.full(n_frames, 150.0), 0.010)
n_samples = n_frames * HOP
sample_f0 = interpolate_f0(track, FS, n_samples)
excitation = sine_excitation(sample_f0, ExcitationConfig(seed=2))
noise = gaussian_noise(n_samples, FS, seed=3)

bundle = stack_channels(noise=noise, raw_excitation=excitation)
pyramid = downsample_multiscale(bundle, factors=(8, 6, 5))

for level in pyramid.levels:
    rate = FS / level.cumulative_factor
    length = len(level.channels["noise"])
    print(f"scale x{level.cumulative_factor}: {length} samples @ {rate:.1f} Hz")

paths = export_conditioning(pyramid, out_dir / "cond")
for path in paths:
    data, hop = read_feature_file(path)
    print(f"wrote {path}: shape {data.shape}, hop {hop * 1000:.3f} ms")
