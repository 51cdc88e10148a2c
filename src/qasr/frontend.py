"""Audio frontend: 40-bin log-mel filterbank plus energy, deltas and
double-deltas (123 dims total), framed every 10 ms over 25 ms Hamming
windows of 16 kHz audio. The constants below fix that geometry; FRAME_RATE
is the one frame rate of the engine's reports.

extract_features normalizes in one of three modes, and a feature file's
header records which: centered standardizes each dimension against a
NORM_WINDOW-frame window centered on the frame (clipped at stream edges,
so short streams degrade to whole-utterance statistics), causal against
the trailing window only, for low latency, and none leaves the values raw.
"""

from __future__ import annotations

import functools
import struct
import warnings

import numpy as np
from scipy.io import wavfile

__all__ = [
    "frame_signal",
    "mel_filterbank",
    "logmel_energy",
    "add_deltas",
    "sliding_normalize",
    "extract_features",
    "read_wav",
    "write_feature_file",
    "read_feature_file",
]

SAMPLE_RATE = 16000  # Hz, 16-bit mono PCM
WINDOW = 400  # samples in an analysis window (25 ms)
HOP = 160  # samples between frame starts (10 ms)
FRAME_RATE = SAMPLE_RATE / HOP  # frames per second of audio
N_MELS = 40
N_FFT = 512
NORM_WINDOW = 300  # frames in the sliding normalizer's window
STATIC_DIM = N_MELS + 1  # mel bins + energy
FEATURE_DIM = 3 * STATIC_DIM
LOG_FLOOR = -10.0  # natural-log floor; silence maps here exactly
NORM_MODES = ("centered", "causal", "none")


def frame_signal(samples) -> np.ndarray:
    """Slice a mono signal into Hamming-weighted frames.

    Returns (n_frames, WINDOW) with n_frames = floor((len - WINDOW)/HOP) + 1,
    zero frames for signals shorter than one window.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a mono signal")
    if len(x) < WINDOW:
        return np.zeros((0, WINDOW))
    n = (len(x) - WINDOW) // HOP + 1
    idx = np.arange(WINDOW)[None, :] + HOP * np.arange(n)[:, None]
    return x[idx] * np.hamming(WINDOW)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular filters on the mel scale, (N_MELS, N_FFT//2 + 1); built
    once and read-only."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    nyquist = SAMPLE_RATE / 2.0
    mel_pts = np.linspace(to_mel(0.0), to_mel(nyquist), N_MELS + 2)
    hz_pts = from_mel(mel_pts)
    bin_freqs = np.arange(N_FFT // 2 + 1) * SAMPLE_RATE / N_FFT
    bank = np.zeros((N_MELS, len(bin_freqs)))
    for m in range(N_MELS):
        left, center, right = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rise = (bin_freqs - left) / (center - left)
        fall = (right - bin_freqs) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(rise, fall))
    bank.flags.writeable = False
    return bank


def logmel_energy(frames) -> np.ndarray:
    """Per-frame [N_MELS log-mel, log-energy]; frames are already windowed."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    spec = np.fft.rfft(frames, n=N_FFT, axis=1)
    power = np.abs(spec) ** 2
    mel = power @ mel_filterbank().T
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


def sliding_normalize(seq, window: int = NORM_WINDOW, causal: bool = False) -> np.ndarray:
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


def _check_norm(norm):
    if norm not in NORM_MODES:
        raise ValueError(f"unknown normalization mode {norm!r}, not one of {NORM_MODES}")


def extract_features(samples, norm: str = "centered") -> np.ndarray:
    """Full pipeline: frames -> log-mel+energy -> deltas -> normalization.

    norm: one of NORM_MODES. Output is (n_frames, FEATURE_DIM).
    """
    _check_norm(norm)
    frames = frame_signal(samples)
    if frames.shape[0] == 0:
        return np.zeros((0, FEATURE_DIM))
    feats = add_deltas(logmel_energy(frames))
    if norm != "none":
        feats = sliding_normalize(feats, causal=norm == "causal")
    return feats


def read_wav(path):
    """Mono 16-bit PCM WAV at SAMPLE_RATE to float in [-1, 1). ValueError
    names the file when it cannot be read as such a WAV file, with what is
    wrong with its fmt chunk where that is why, and when its data chunk
    holds fewer bytes than its header gives."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)  # checked below
            rate, data = wavfile.read(path)
    except OSError:
        raise  # the file cannot be opened; the message names it
    except Exception as exc:  # noqa: BLE001 - a malformed header raises many types
        reason = _fmt_problem(path) or f"{type(exc).__name__}: {exc}"
        raise ValueError(f"{path}: not a readable WAV file ({reason})") from None
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype != np.int16:
        raise ValueError(f"{path}: expected 16-bit PCM, got {data.dtype}")
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate}")
    with open(path, "rb") as fh:
        declared, held = 0, 0
        for chunk_id, _, size, have in _riff_chunks(fh):
            if chunk_id == b"data":
                declared, held = size, have
    if len(data) < declared // 2:
        raise ValueError(f"{path}: the data chunk is cut short: it holds {held} of the "
                         f"{declared} bytes its header gives")
    return data.astype(np.float64) / 32768.0


def _riff_chunks(fh):
    """(id, offset, size its header gives, bytes the file holds of it) of
    each chunk that the chunk walk of wavfile.read reaches in the RIFF file
    open as fh; none in an RF64 or RIFX file."""
    head = fh.read(12)
    if head[:4] != b"RIFF" or len(head) < 8:
        return []
    length = fh.seek(0, 2)
    end = struct.unpack("<I", head[4:8])[0] + 8
    chunks, pos = [], 12
    while pos < end and pos + 8 <= length:
        fh.seek(pos)
        chunk_id, size = struct.unpack("<4sI", fh.read(8))
        chunks.append((chunk_id, pos, size, min(size, length - pos - 8)))
        pos += 8 + size + size % 2
    return chunks


def _fmt_problem(path):
    """What is wrong with the fmt chunk of the RIFF file at path that stops
    wavfile.read, or None."""
    with open(path, "rb") as fh:
        fmt = [chunk for chunk in _riff_chunks(fh) if chunk[0] == b"fmt "]
        if not fmt:
            return None
        _, pos, size, have = fmt[0]
        if have < size:
            return (f"the fmt chunk at byte {pos} gives {size} bytes, but {have} follow: "
                    "it runs past the end of the file, so no data chunk follows")
        fh.seek(pos + 10)  # the channel count
        if have >= 4 and struct.unpack("<H", fh.read(2))[0] == 0:
            return "the fmt chunk gives 0 channels"
    return None


# ---------------------------------------------------------------------------
# Feature files: one ASCII header line, then float32 little-endian payload
# ---------------------------------------------------------------------------

_MAGIC = "ASRFEAT"


def write_feature_file(path, feats, norm: str = "centered"):
    _check_norm(norm)
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float32))
    header = f"{_MAGIC} 1 {feats.shape[0]} {feats.shape[1]} {norm}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(feats.astype("<f4").tobytes())


def read_feature_file(path):
    """Returns (features float32 array, norm tag), the tag one of
    NORM_MODES. ValueError names the file."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if not (len(header) == 5 and header[:2] == [_MAGIC, "1"]
                and header[2].isdecimal() and header[3].isdecimal()):
            raise ValueError(f"{path}: not a feature file (header {' '.join(header)!r:.60})")
        frames, dim, norm = int(header[2]), int(header[3]), header[4]
        if norm not in NORM_MODES:
            raise ValueError(f"{path}: unknown normalization tag {norm!r}, not one of {NORM_MODES}")
        payload = fh.read()
    expected = frames * dim * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    feats = np.frombuffer(payload, dtype="<f4").reshape(frames, dim)
    return feats, norm
