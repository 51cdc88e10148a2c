"""Random toy models, a tiny ARPA file and a synthetic feature stream.

Trained acoustic models are not shipped, so every end-to-end path has to be
exercisable from a cold clone. The generator builds random float networks in
either the full target geometry ("small": 123 -> 3x256 -> 31 acoustic
model with a 30-dim character LM) or a miniature one ("tiny") that keeps
smoke tests fast, quantizes them into containers, and writes a matching
word list and feature stream. The acoustic output bias is tilted toward the
CTC blank, which is what real CTC models do and keeps the character
transition rate realistic.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .container import FloatModel, quantize_model, save_float_model
from .decoder import Alphabet
from .frontend import write_feature_file
from .rnn import LstmLayerParams, OutputLayerParams, layer_shapes

__all__ = ["ToySpec", "parse_toy_spec", "build_toy_models", "toy_arpa_text", "gen_toy"]

TINY_ALPHABET = Alphabet(symbols=("A", "B", "C", " ", "\n"), delimiter=3, eos=4)

PRESETS = {
    "tiny": dict(am_input=12, am_hidden=[16, 16], lm_hidden=[16], frames=120),
    "small": dict(am_input=123, am_hidden=[256, 256, 256], lm_hidden=[256, 256], frames=300),
}


class ToySpec:
    def __init__(self, preset="tiny", frames=None, seed=1, blank_bias=2.5, out_gain=1.0):
        if preset not in PRESETS:
            raise ValueError(f"unknown toy preset {preset!r} (use tiny or small)")
        base = PRESETS[preset]
        self.preset = preset
        self.alphabet = Alphabet.standard() if preset == "small" else TINY_ALPHABET
        self.am_input = base["am_input"]
        self.am_hidden = list(base["am_hidden"])
        self.lm_hidden = list(base["lm_hidden"])
        self.frames = base["frames"] if frames is None else int(frames)
        self.seed = int(seed)
        self.blank_bias = float(blank_bias)
        self.out_gain = float(out_gain)  # >1 peaks the posteriors


def parse_toy_spec(text: str) -> ToySpec:
    """'tiny' | 'small', optionally with ',key=value' pairs
    (frames, seed, blank_bias, out_gain)."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty toy spec")
    kwargs = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ValueError(f"bad toy spec field {p!r}")
        k, v = p.split("=", 1)
        if k in ("blank_bias", "out_gain"):
            kwargs[k] = float(v)
        elif k in ("frames", "seed"):
            kwargs[k] = int(v)
        else:
            raise ValueError(f"unknown toy spec field {k!r}")
    return ToySpec(parts[0], **kwargs)


def _random_layer(d, h, rng) -> LstmLayerParams:
    """Normal draws in layer_shapes order: matrices at deviation
    1/sqrt(fan-in), peepholes and biases at 0.1."""
    return LstmLayerParams(**{
        n: rng.normal(0.0, 1.0 / np.sqrt(s[1]) if len(s) == 2 else 0.1, size=s)
        for n, s in layer_shapes(d, h).items()
    })


def _random_output(h, labels, rng, blank_bias=0.0) -> OutputLayerParams:
    b = rng.normal(0.0, 0.1, size=labels)
    if blank_bias:
        b[-1] += blank_bias  # the blank sits on the last posterior index
    return OutputLayerParams(W=rng.normal(0.0, 1.0 / np.sqrt(h), size=(labels, h)), b=b)


def build_toy_models(spec: ToySpec):
    """(acoustic FloatModel, character-LM FloatModel) from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    alpha = spec.alphabet
    am_layers = []
    d = spec.am_input
    for h in spec.am_hidden:
        am_layers.append(_random_layer(d, h, rng))
        d = h
    am_out = _random_output(d, alpha.posterior_dim, rng, spec.blank_bias)
    am_out.W *= spec.out_gain
    am = FloatModel(kind="am", alphabet=alpha, layers=am_layers, output=am_out)
    lm_layers = []
    d = alpha.n_labels
    for h in spec.lm_hidden:
        lm_layers.append(_random_layer(d, h, rng))
        d = h
    lm = FloatModel(
        kind="lm",
        alphabet=alpha,
        layers=lm_layers,
        output=_random_output(d, alpha.n_labels, rng),
    )
    return am, lm


def toy_arpa_text(alphabet: Alphabet) -> str:
    """A handcrafted tri-gram over words spelled from the first letters."""
    a, b, c = alphabet.symbols[0], alphabet.symbols[1], alphabet.symbols[2]
    w = {"A": a, "B": b, "C": c, "AB": a + b, "BC": b + c, "ABC": a + b + c}
    buf = io.StringIO()
    buf.write("\\data\\\nngram 1=7\nngram 2=4\nngram 3=2\n")
    buf.write("\n\\1-grams:\n")
    buf.write(f"-0.7\t{w['A']}\t-0.30\n")
    buf.write(f"-0.9\t{w['B']}\t-0.25\n")
    buf.write(f"-1.1\t{w['C']}\t-0.20\n")
    buf.write(f"-1.3\t{w['AB']}\t-0.15\n")
    buf.write(f"-1.5\t{w['BC']}\t-0.10\n")
    buf.write(f"-1.7\t{w['ABC']}\n")
    buf.write("-2.0\t<unk>\n")
    buf.write("\n\\2-grams:\n")
    buf.write(f"-0.4\t{w['A']} {w['B']}\t-0.20\n")
    buf.write(f"-0.5\t{w['B']} {w['C']}\t-0.15\n")
    buf.write(f"-0.6\t{w['C']} {w['A']}\n")
    buf.write(f"-0.8\t{w['AB']} {w['C']}\n")
    buf.write("\n\\3-grams:\n")
    buf.write(f"-0.3\t{w['A']} {w['B']} {w['C']}\n")
    buf.write(f"-0.45\t{w['B']} {w['C']} {w['A']}\n")
    buf.write("\n\\end\\\n")
    return buf.getvalue()


def gen_toy(spec, out_dir, include_float: bool = True) -> dict:
    """Write containers, float models, a toy ARPA file and a synthetic
    feature stream into out_dir; returns the path map."""
    if isinstance(spec, str):
        spec = parse_toy_spec(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    am, lm = build_toy_models(spec)
    paths = {
        "am_float": out / "am_float.npz",
        "lm_float": out / "lm_float.npz",
        "am": out / "am.qnn",
        "lm": out / "lm.qnn",
        "arpa": out / "toy.arpa",
        "features": out / "stream.feat",
    }
    save_float_model(am, paths["am_float"])
    save_float_model(lm, paths["lm_float"])
    quantize_model(am, include_float=include_float).write(paths["am"])
    quantize_model(lm, include_float=include_float).write(paths["lm"])
    paths["arpa"].write_text(toy_arpa_text(spec.alphabet), encoding="utf-8")
    rng = np.random.default_rng(spec.seed + 1)
    # a normalized random walk drifts like real features rather than
    # flickering frame to frame
    steps = rng.standard_normal((spec.frames, spec.am_input)) * 0.4
    feats = np.cumsum(steps, axis=0)
    if spec.frames > 1:
        feats = (feats - feats.mean(axis=0)) / (feats.std(axis=0) + 1e-5)
    write_feature_file(paths["features"], feats, norm="none")
    return {k: str(v) for k, v in paths.items()}
