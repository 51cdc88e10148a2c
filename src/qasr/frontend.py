"""Audio frontend: 40-bin log-mel filterbank plus energy, deltas and
double-deltas (123 dims total), framed every 10 ms over 25 ms Hamming
windows, with centered sliding-window normalization.

The normalizer standardizes each dimension against the statistics of a
300-frame window centered on the frame (clipped at stream edges, so short
streams degrade to whole-utterance normalization). A causal trailing-window
variant and a global precomputed-statistics variant exist for low-latency
setups; the feature-file header records which one produced the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

__all__ = [
    "FrontendConfig",
    "frame_signal",
    "mel_filterbank",
    "logmel_energy",
    "add_deltas",
    "sliding_normalize",
    "global_normalize",
    "extract_features",
    "read_wav",
    "write_feature_file",
    "read_feature_file",
]

STATIC_DIM = 41  # 40 mel bins + energy
FEATURE_DIM = 3 * STATIC_DIM
LOG_FLOOR = -10.0  # natural-log floor; silence maps here exactly


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = 16000
    window_s: float = 0.025
    hop_s: float = 0.010
    n_mels: int = 40
    n_fft: int = 512
    norm_window: int = 300

    @property
    def window(self) -> int:
        return int(self.window_s * self.sample_rate)

    @property
    def hop(self) -> int:
        return int(self.hop_s * self.sample_rate)


def frame_signal(samples, cfg: FrontendConfig = FrontendConfig()) -> np.ndarray:
    """Slice a mono signal into Hamming-weighted frames.

    Returns (n_frames, window) with n_frames = floor((len - win)/hop) + 1,
    zero frames for signals shorter than one window.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a mono signal")
    win, hop = cfg.window, cfg.hop
    if len(x) < win:
        return np.zeros((0, win))
    n = (len(x) - win) // hop + 1
    idx = np.arange(win)[None, :] + hop * np.arange(n)[:, None]
    return x[idx] * np.hamming(win)


def mel_filterbank(cfg: FrontendConfig = FrontendConfig()) -> np.ndarray:
    """Triangular filters on the mel scale, (n_mels, n_fft//2 + 1)."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    nyquist = cfg.sample_rate / 2.0
    mel_pts = np.linspace(to_mel(0.0), to_mel(nyquist), cfg.n_mels + 2)
    hz_pts = from_mel(mel_pts)
    bin_freqs = np.arange(cfg.n_fft // 2 + 1) * cfg.sample_rate / cfg.n_fft
    bank = np.zeros((cfg.n_mels, len(bin_freqs)))
    for m in range(cfg.n_mels):
        left, center, right = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rise = (bin_freqs - left) / (center - left)
        fall = (right - bin_freqs) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(rise, fall))
    return bank


def logmel_energy(frames, cfg: FrontendConfig = FrontendConfig(), bank=None) -> np.ndarray:
    """Per-frame [40 log-mel, log-energy]; frames are already windowed."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if bank is None:
        bank = mel_filterbank(cfg)
    spec = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    power = np.abs(spec) ** 2
    mel = power @ bank.T
    floor = np.exp(LOG_FLOOR)
    logmel = np.log(np.maximum(mel, floor))
    energy = np.log(np.maximum(np.sum(frames**2, axis=1), floor))
    return np.hstack([logmel, energy[:, None]])


def add_deltas(static) -> np.ndarray:
    """Append regression deltas and double-deltas (window +-2, edges
    replicated): D_t = sum_n n (c_{t+n} - c_{t-n}) / (2 sum_n n^2)."""
    static = np.atleast_2d(np.asarray(static, dtype=np.float64))
    delta = _regression_delta(static)
    ddelta = _regression_delta(delta)
    return np.hstack([static, delta, ddelta])


def _regression_delta(seq, width: int = 2):
    T = seq.shape[0]
    denom = 2.0 * sum(n * n for n in range(1, width + 1))
    padded = np.vstack([seq[:1]] * width + [seq] + [seq[-1:]] * width) if T else seq
    out = np.zeros_like(seq)
    for n in range(1, width + 1):
        out += n * (padded[width + n : width + n + T] - padded[width - n : width - n + T])
    return out / denom


def sliding_normalize(seq, window: int = 300, causal: bool = False) -> np.ndarray:
    """Standardize each dimension against a per-frame sliding window.

    Centered mode spans (window-1)//2 frames each side (299 effective for
    the default 300), clipped at the edges; causal mode uses the trailing
    window only. Streams shorter than the window degrade to global stats.
    """
    seq = np.atleast_2d(np.asarray(seq, dtype=np.float64))
    T = seq.shape[0]
    if T == 0:
        return seq.copy()
    # anchoring on the first frame keeps the cumulative sums small; the
    # standardization itself is shift-invariant, and constant input comes
    # out exactly zero
    dev = seq - seq[0]
    half = (window - 1) // 2
    csum = np.vstack([np.zeros((1, seq.shape[1])), np.cumsum(dev, axis=0)])
    csq = np.vstack([np.zeros((1, seq.shape[1])), np.cumsum(dev**2, axis=0)])
    t = np.arange(T)
    if causal:
        lo = np.maximum(0, t - (window - 1))
        hi = t + 1
    else:
        lo = np.maximum(0, t - half)
        hi = np.minimum(T, t + half + 1)
    count = (hi - lo)[:, None].astype(np.float64)
    mean = (csum[hi] - csum[lo]) / count
    var = (csq[hi] - csq[lo]) / count - mean**2
    std = np.sqrt(np.maximum(var, 0.0))
    return (dev - mean) / np.maximum(std, 1e-5)


def global_normalize(seq, mean, std) -> np.ndarray:
    """Normalization against precomputed (training-set) statistics."""
    return (np.asarray(seq, dtype=np.float64) - mean) / np.maximum(std, 1e-5)


def extract_features(
    samples,
    cfg: FrontendConfig = FrontendConfig(),
    norm: str = "centered",
    stats=None,
) -> np.ndarray:
    """Full pipeline: frames -> log-mel+energy -> deltas -> normalization.

    norm: "centered" | "causal" | "global" (requires stats=(mean, std)) |
    "none". Output is (n_frames, 123).
    """
    frames = frame_signal(samples, cfg)
    if frames.shape[0] == 0:
        return np.zeros((0, FEATURE_DIM))
    feats = add_deltas(logmel_energy(frames, cfg))
    if norm == "centered":
        feats = sliding_normalize(feats, cfg.norm_window)
    elif norm == "causal":
        feats = sliding_normalize(feats, cfg.norm_window, causal=True)
    elif norm == "global":
        if stats is None:
            raise ValueError("global normalization needs (mean, std) stats")
        feats = global_normalize(feats, *stats)
    elif norm != "none":
        raise ValueError(f"unknown normalization mode {norm!r}")
    return feats


def read_wav(path, expected_rate: int = 16000):
    """Mono 16-bit PCM WAV to float in [-1, 1)."""
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError("expected mono audio")
    if data.dtype != np.int16:
        raise ValueError(f"expected 16-bit PCM, got {data.dtype}")
    if rate != expected_rate:
        raise ValueError(f"expected {expected_rate} Hz, got {rate}")
    return data.astype(np.float64) / 32768.0


# ---------------------------------------------------------------------------
# Feature files: one ASCII header line, then float32 little-endian payload
# ---------------------------------------------------------------------------

_MAGIC = "ASRFEAT"


def write_feature_file(path, feats, norm: str = "centered"):
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float32))
    header = f"{_MAGIC} 1 {feats.shape[0]} {feats.shape[1]} {norm}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(feats.astype("<f4").tobytes())


def read_feature_file(path):
    """Returns (features float32 array, norm tag)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 5 or header[0] != _MAGIC or header[1] != "1":
            raise ValueError(f"{path}: not a feature file")
        frames, dim, norm = int(header[2]), int(header[3]), header[4]
        payload = fh.read()
    expected = frames * dim * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    feats = np.frombuffer(payload, dtype="<f4").reshape(frames, dim)
    return feats, norm
