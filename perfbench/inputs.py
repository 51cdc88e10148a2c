"""Seeded benchmark inputs: toy models, a word-level ARPA tri-gram, short
command-like WAV utterances and long busy feature streams.

Everything here is a pure function of its arguments, so the same seed
always yields byte-identical files. The acoustic and character-LM models
of the decode workloads come from a fixed toy seed: a deployed recognizer
keeps one model while its inputs change, and a per-seed model would let
the blank rate swing between runs.
"""

from __future__ import annotations

import io
import math

import numpy as np
from scipy.io import wavfile

from qasr.decoder import Alphabet
from qasr.toy import ToySpec, build_toy_models

MODEL_SEED = 31
SAMPLE_RATE = 16000
FRAME_RATE = 100.0

# word symbols: everything in the standard alphabet except the delimiter
# (space) and end of sentence (newline)
_ALPHABET = Alphabet.standard()
WORD_SYMBOLS = tuple(
    s for i, s in enumerate(_ALPHABET.symbols) if i not in (_ALPHABET.delimiter, _ALPHABET.eos)
)

# sizes of the generated ARPA model; every 1- and 2-symbol word is in the
# vocabulary so the short words a CTC beam completes hit real unigrams
ARPA_THREE_SYMBOL_WORDS = 6000
ARPA_RANDOM_BIGRAMS = 12000
ARPA_TRIGRAMS = 8000


def toy_models(preset_kwargs: dict, seed: int = MODEL_SEED):
    """(acoustic FloatModel, character-LM FloatModel) of the `small` preset."""
    return build_toy_models(ToySpec("small", seed=seed, **preset_kwargs))


def arpa_text(seed: int) -> str:
    """A back-off tri-gram over words spelled from Alphabet.standard().

    The vocabulary holds every 1- and 2-symbol word plus a seeded sample
    of 3-symbol words. Bi-grams cover every pair of 1-symbol words plus
    seeded random pairs; tri-grams are seeded triples of 1-symbol words.
    Log probabilities are Zipf-shaped so the unigram mass sums to one.
    """
    rng = np.random.default_rng([seed, 101])
    singles = list(WORD_SYMBOLS)
    pairs = [a + b for a in WORD_SYMBOLS for b in WORD_SYMBOLS]
    n3 = len(WORD_SYMBOLS) ** 3
    picks = rng.choice(n3, size=ARPA_THREE_SYMBOL_WORDS, replace=False)
    k = len(WORD_SYMBOLS)
    triples = [
        WORD_SYMBOLS[p // (k * k)] + WORD_SYMBOLS[(p // k) % k] + WORD_SYMBOLS[p % k]
        for p in sorted(picks)
    ]
    vocab = singles + pairs + triples
    rank = rng.permutation(len(vocab)) + 1
    zipf = 1.0 / rank
    uni_logp = np.log10(zipf / (zipf.sum() * 1.01))  # leave mass for <unk>
    uni_bow = rng.uniform(-0.6, -0.05, size=len(vocab))

    bigrams = {(a, b) for a in singles for b in singles}
    while len(bigrams) < len(singles) ** 2 + ARPA_RANDOM_BIGRAMS:
        i, j = rng.integers(0, len(vocab), size=2)
        bigrams.add((vocab[i], vocab[j]))
    bigrams = sorted(bigrams)
    trigrams = set()
    while len(trigrams) < ARPA_TRIGRAMS:
        i, j, m = rng.integers(0, len(singles), size=3)
        trigrams.add((singles[i], singles[j], singles[m]))
    trigrams = sorted(trigrams)

    bi_logp = rng.uniform(-2.5, -0.3, size=len(bigrams))
    bi_bow = rng.uniform(-0.5, 0.0, size=len(bigrams))
    tri_logp = rng.uniform(-2.0, -0.2, size=len(trigrams))

    buf = io.StringIO()
    buf.write("\\data\\\n")
    buf.write(f"ngram 1={len(vocab) + 1}\nngram 2={len(bigrams)}\nngram 3={len(trigrams)}\n")
    buf.write("\n\\1-grams:\n")
    buf.write(f"{math.log10(0.01 / 1.01):.6f}\t<unk>\n")
    for w, lp, bow in zip(vocab, uni_logp, uni_bow):
        buf.write(f"{lp:.6f}\t{w}\t{bow:.6f}\n")
    buf.write("\n\\2-grams:\n")
    for (a, b), lp, bow in zip(bigrams, bi_logp, bi_bow):
        buf.write(f"{lp:.6f}\t{a} {b}\t{bow:.6f}\n")
    buf.write("\n\\3-grams:\n")
    for (a, b, c), lp in zip(trigrams, tri_logp):
        buf.write(f"{lp:.6f}\t{a} {b} {c}\n")
    buf.write("\n\\end\\\n")
    return buf.getvalue()


def command_audio(seed: int, index: int, min_s: float = 1.5, max_s: float = 2.5) -> np.ndarray:
    """A short command-like utterance as 16 kHz mono int16 samples.

    Leading and trailing silence frame three to six voiced syllables. Each
    syllable is a harmonic series on a gliding pitch, shaped by two random
    formants and a smooth envelope, over a faint noise floor.
    """
    rng = np.random.default_rng([seed, 202, index])
    n = int(rng.uniform(min_s, max_s) * SAMPLE_RATE)
    out = rng.normal(0.0, 0.002, size=n)
    lead = int(rng.uniform(0.10, 0.20) * SAMPLE_RATE)
    tail = int(rng.uniform(0.10, 0.20) * SAMPLE_RATE)
    n_syl = int(rng.integers(3, 7))
    bounds = np.linspace(lead, n - tail, n_syl + 1).astype(int)
    for a, b in zip(bounds[:-1], bounds[1:]):
        length = int((b - a) * rng.uniform(0.6, 0.9))
        t = np.arange(length) / SAMPLE_RATE
        f0 = rng.uniform(100.0, 220.0) * (1.0 + rng.uniform(-0.15, 0.15) * t / max(t[-1], 1e-9))
        phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
        formants = rng.uniform([300.0, 900.0], [900.0, 2500.0])
        syl = np.zeros(length)
        for h in range(1, 30):
            fh = h * f0.mean()
            if fh >= SAMPLE_RATE / 2:
                break
            gain = sum(math.exp(-((fh - f) / 150.0) ** 2) for f in formants) + 0.02
            syl += gain / h * np.sin(h * phase)
        env = np.sin(np.pi * np.arange(length) / length) ** 2
        out[a : a + length] += syl * env * rng.uniform(0.5, 1.0)
    out *= 0.25 / max(np.max(np.abs(out)), 1e-9)
    return np.round(out * 32767.0).astype(np.int16)


def write_wav(path, samples: np.ndarray):
    wavfile.write(path, SAMPLE_RATE, samples)


def busy_features(seed: int, index: int, frames: int, dim: int) -> np.ndarray:
    """A normalized random walk, the criterion-9 stream shape: features
    that drift like real ones instead of flickering frame to frame."""
    rng = np.random.default_rng([seed, 303, index])
    feats = np.cumsum(rng.standard_normal((frames, dim)) * 0.4, axis=0)
    return (feats - feats.mean(axis=0)) / (feats.std(axis=0) + 1e-5)
