"""Float vs fixed-point LSTM forward passes.

Takes the random 123 -> 3x256 acoustic-model stack of the small toy
preset, quantizes it at several weight widths and tracks how far the
integer datapath drifts from the double-precision reference. More weight
bits, less drift.
"""

import numpy as np

from qasr.container import quantize_parts
from qasr.rnn import FORMATS, build_lut, lstm_step, zero_state
from qasr.toy import ToySpec, build_toy_models

rng = np.random.default_rng(7)
layers = build_toy_models(ToySpec("small"))[0].layers
xs = rng.uniform(-1, 1, size=(20, 123))

print("== activation lookup tables ==")
lut = build_lut("sigmoid")
print(f"sigmoid LUT: {lut.n} entries over [{lut.lo}, {lut.hi}], sigmoid(0) -> {lut.apply_real(0.0)}")
tanh = build_lut("tanh")
print(f"tanh odd symmetry exact: {np.array_equal(tanh.entries[1:], -tanh.entries[1:][::-1])}")

print("\n== float vs fixed drift by weight width ==")
# inputs in [-1, 1) at step 2^-7; quantize_parts chains each layer's
# signal scheme into the next (rnn.layer_formats)
for bits in (4, 5, 6, 8):
    quantize_parts(layers, dict(FORMATS, sig_in_exp=-7, weight_bits=bits, bias_bits=bits))
    stf = [zero_state(256) for _ in layers]
    stq = [zero_state(256) for _ in layers]
    worst = 0.0
    for x in xs:
        hf, hq = x, x
        for li, p in enumerate(layers):
            hf, stf[li] = lstm_step(p, hf, stf[li], mode="float")
            hq, stq[li] = lstm_step(p, hq, stq[li], mode="fixed")
        worst = max(worst, np.abs(hf - hq).max())
    print(f"  {bits}-bit weights, 8-bit signals, 16-bit cells: worst |h_f - h_q| = {worst:.4f}")
