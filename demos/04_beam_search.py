"""CTC prefix beam search against exhaustive enumeration.

Runs the tree search on a tiny alphabet where every alignment path can be
enumerated, fuses a character LM and a word LM, and shows the online
behavior: width pruning and stable-prefix emission.
"""

import io

import numpy as np

from qasr.decoder import (
    Alphabet,
    BeamConfig,
    BeamSearch,
    TableCharLm,
    WordRescorer,
    brute_force_decode,
)
from qasr.wordlm import parse_arpa

rng = np.random.default_rng(3)
alphabet = Alphabet(symbols=("A", "B", " ", "\n"), delimiter=2, eos=3)

print("== beam equals enumeration on a tiny instance ==")
T = 5
y = rng.uniform(0.05, 1.0, size=(T, alphabet.posterior_dim))
y /= y.sum(axis=1, keepdims=True)
char_lm = TableCharLm.random(alphabet.n_labels, rng)
arpa = parse_arpa(io.StringIO(
    "\\data\\\nngram 1=3\nngram 2=1\n"
    "\\1-grams:\n-0.5\tA\t-0.2\n-0.8\tB\n-1.2\tAB\n"
    "\\2-grams:\n-0.4\tA B\n\\end\\\n"
))
word_lm = WordRescorer(arpa, lam=0.8, beta=0.2)
seq, score = brute_force_decode(y, alphabet, char_lm=char_lm, word_lm=word_lm, alpha=0.6)
bs = BeamSearch(alphabet, BeamConfig(beam_width=4096, prune_period=0, alpha=0.6),
                char_lm=char_lm, word_lm=word_lm)
for row in y:
    bs.step(row)
labels, bscore = bs.best_hypothesis()
print(f"  enumeration: {seq} score {score:.6f}")
print(f"  beam search: {labels} score {bscore:.6f}")

print("\n== online decoding with a narrow beam ==")
chunks = []
bs = BeamSearch(alphabet, BeamConfig(beam_width=4, prune_period=8), emit=chunks.append)
for t in range(64):
    row = rng.uniform(0.02, 1.0, size=alphabet.posterior_dim)
    row[alphabet.blank] += 1.5  # blank-heavy, like silence
    if t % 9 < 2:
        row[t % alphabet.n_labels] += 4.0  # bursts of evidence
    bs.step(row / row.sum())
print(f"  active hypotheses capped at 4: max seen = {bs.peak_active}")
print(f"  emitted so far: {''.join(chunks)!r} (stable, never retracted)")
print(f"  final transcript: {alphabet.text(bs.best_hypothesis()[0])!r}")
print(f"  width prunes: {bs.width_prunes}, depth prunes: {bs.depth_prunes}")
