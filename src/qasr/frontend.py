"""Audio frontend: 40-bin log-mel filterbank plus energy, deltas and
double-deltas (123 dims total), framed every 10 ms over 25 ms Hamming
windows of 16 kHz audio. The constants below fix that geometry; FRAME_RATE
is the one frame rate of the engine's reports.

extract_features normalizes in one of three modes, and a feature file's
header records which: centered standardizes each dimension against a
NORM_WINDOW-frame window centered on the frame (clipped at stream edges,
so short streams degrade to whole-utterance statistics), causal against
the trailing window only, for low latency, and none leaves the values raw.

read_wav reads a WAV file in one walk over its RIFF chunks that takes what
scipy.io.wavfile.read took: PCM, plain or WAVE_FORMAT_EXTENSIBLE, mono
16-bit at SAMPLE_RATE, from the last data chunk. It names what it refuses:
RF64 and RIFX files too, any data chunk that is not mono 16-bit PCM,
though a later fmt and data chunk would replace it, and an odd-sized data
chunk that another chunk follows, which scipy read from the pad byte on.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

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
    """Mono 16-bit PCM WAV at SAMPLE_RATE to float in [-1, 1), read as the
    module docstring says. ValueError names the file and what is wrong."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        ((pos, size, held), (channels, _, sample)), rate = _wav_chunks(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: not a readable WAV file ({exc})") from None
    if channels != 1:
        raise ValueError(f"{path}: expected mono audio, got {channels} channels")
    if sample != "16-bit PCM":
        raise ValueError(f"{path}: expected 16-bit PCM, got {sample}")
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate}")
    if held // 2 < size // 2:
        raise ValueError(f"{path}: the data chunk is cut short: it holds {held} of the {size} "
                         "bytes its header gives")
    return np.frombuffer(raw, "<i2", size // 2, pos + 8).astype(np.float64) / 32768.0


def _wav_chunks(raw: bytes):
    """((offset, size, bytes held), (channels, rate, sample type)) of the data
    chunk read_wav takes and its fmt chunk, and the last fmt chunk's rate,
    from a walk that steps as scipy's did; ValueError says what is wrong."""
    length, magic = len(raw), raw[:4]
    if magic in (b"RF64", b"RIFX"):
        raise ValueError(f"{magic.decode()} files are not read")
    if magic != b"RIFF":
        raise ValueError(f"its first 4 bytes are {magic!r}, not RIFF")
    if length < 12:
        raise ValueError(f"the file ends at byte {length}, inside its 12-byte RIFF header")
    if raw[8:12] != b"WAVE":
        raise ValueError(f"its RIFF form type is {raw[8:12]!r}, not WAVE")
    end = int.from_bytes(raw[4:8], "little") + 8
    pos, fmt, data = 12, None, None
    while pos < end and pos + 8 <= length:
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        have, step = min(size, length - pos - 8), size
        if chunk_id == b"fmt ":
            fmt, step = _fmt_chunk(raw, pos, size, have, whole=data is None)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError(f"the data chunk at byte {pos} comes before any fmt chunk")
            if fmt[0] == 0:
                raise ValueError("the fmt chunk gives 0 channels")
            data = (pos, size, have), fmt
            if fmt[0] != 1 or fmt[2] != "16-bit PCM":
                return data, fmt[1]  # refused; scipy would step over it by another rule
            step = size - size % 2  # scipy steps over the samples, not the pad byte
            if size % 2 and pos + 8 + size < end and pos + 16 + size <= length:
                # scipy read that chunk's header from the pad byte on
                raise ValueError(f"the data chunk at byte {pos} gives an odd {size} bytes, "
                                 "and another chunk follows it")
        pos += 8 + step + size % 2
    # as in scipy, a chunk header cut short fails, but for a cut id (1-3 bytes) or a
    # bare id other than fmt and data (4 bytes), which end the walk as the file's end does
    if pos < end and (4 < length - pos < 8 or raw[pos:] in (b"fmt ", b"data")):
        raise ValueError(f"the file ends at byte {length}, inside the chunk header at byte {pos}")
    if data is None:
        where = f"the {end - 8} bytes of its RIFF size" if pos >= end else f"its {length} bytes"
        raise ValueError(f"no {'data' if fmt else 'fmt'} chunk in {where}")
    return data, fmt[1]


def _fmt_chunk(raw, pos, size, have, whole):
    """(channels, rate, sample type) of the fmt chunk at pos, and how many of
    its bytes scipy reads. The file must hold its fields, and where whole,
    all of it: before any data chunk, a fmt chunk cut short leaves none."""
    extensible = size >= 18 and raw[pos + 8 : pos + 10] == b"\xfe\xff"  # WAVE_FORMAT_EXTENSIBLE
    if size < 16:
        raise ValueError(f"the fmt chunk at byte {pos} gives {size} bytes, fewer than its 16")
    if have < (size if whole else 16 + 2 * extensible):
        raise ValueError(f"the fmt chunk at byte {pos} gives {size} bytes, but {have} follow: it "
                         "runs past the end of the file, so no data chunk follows")
    tag, channels, rate, byte_rate, align, bits = struct.unpack_from("<HHIIHH", raw, pos + 8)
    if extensible and int.from_bytes(raw[pos + 24 : pos + 26], "little") < 22:
        raise ValueError(f"the fmt chunk at byte {pos} has no 22-byte extension")
    if extensible and raw[pos + 32 : pos + 48].endswith(bytes.fromhex("00001000800000aa00389b71")):
        tag = int.from_bytes(raw[pos + 32 : pos + 36], "little")  # the subformat's
    if tag not in (1, 3):
        raise ValueError(f"format tag {tag:#06x} is neither PCM nor IEEE float")
    if tag == 1 and byte_rate != rate * align:
        raise ValueError(f"the fmt chunk gives {byte_rate} bytes per second, not {rate} Hz "
                         f"times {align}-byte blocks")
    sample = ("16-bit PCM" if tag == 1 and align == 2 and not 1 <= bits <= 8 and bits <= 64
              else f"float{bits}" if tag == 3 else f"{bits}-bit PCM in {align}-byte blocks")
    return (channels, rate, sample), max(size, 40 if extensible else 16)


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
