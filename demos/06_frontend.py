"""Feature extraction on synthetic audio: framing, the 123-dim layout, and
what the sliding-window normalizer does to a drifting signal."""

import numpy as np

from qasr.frontend import (
    NORM_WINDOW,
    SAMPLE_RATE,
    extract_features,
    frame_signal,
    sliding_normalize,
)

rng = np.random.default_rng(1)

print("== framing ==")
audio = rng.uniform(-0.3, 0.3, size=SAMPLE_RATE)  # one second
frames = frame_signal(audio)
print(f"{audio.size} samples -> {frames.shape[0]} frames of {frames.shape[1]} samples")

print("\n== features ==")
feats = extract_features(audio)
print(f"feature matrix {feats.shape}: 41 static + 41 delta + 41 double-delta")

print("\n== normalization flattens loudness drift ==")
t = np.arange(12 * SAMPLE_RATE) / SAMPLE_RATE  # 12 s crescendo
swell = np.sin(2 * np.pi * 440 * t) * np.linspace(0.02, 0.8, t.size)
raw = extract_features(swell, norm="none")
normed = sliding_normalize(raw, NORM_WINDOW)
energy = raw[:, 40]
z_energy = normed[:, 40]
q = len(energy) // 4
print(f"raw log-energy drifts:       quarter means "
      f"{energy[:q].mean():6.2f} {energy[q:2*q].mean():6.2f} "
      f"{energy[2*q:3*q].mean():6.2f} {energy[3*q:].mean():6.2f}")
print(f"normalized energy is level:  quarter means "
      f"{z_energy[:q].mean():6.2f} {z_energy[q:2*q].mean():6.2f} "
      f"{z_energy[2*q:3*q].mean():6.2f} {z_energy[3*q:].mean():6.2f}")
