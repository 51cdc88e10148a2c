"""The PE-array cycle model and its bit-exact datapath.

Reproduces the design-point cycle arithmetic for the 512-PE configuration,
shows how the counts scale with the array geometry, and demonstrates that
the hardware emulation returns exactly the same bits as the reference
fixed-point engine.
"""

import numpy as np

from qasr.hwsim import HwConfig, layer_cycles, network_cycles, realtime_budget, simulate_layer
from qasr.container import quantize_layer
from qasr.rnn import FORMATS, fixed_step_levels, layer_formats, zero_state
from qasr.toy import ToySpec, build_toy_models

print("== cycle model, 2 arrays x 256 PEs ==")
am = network_cycles([123, 256, 256, 256])
lm = network_cycles([30, 256, 256])
for lc in am.layers:
    print(f"  am layer {lc.input_dim:>3} -> {lc.hidden}: "
          f"{lc.input_path} + {lc.recurrent_path} = {lc.total} cycles")
print(f"  am total {am.total}, lm total {lm.total}")
budget = realtime_budget(100, 3840, am, lm)
print(f"  real-time budget at 100 fps + 3840 LM ops/s: {budget:,} cycles/s")

print("\n== scaling with array count ==")
for arrays in (1, 2, 4):
    lc = layer_cycles(256, 256, HwConfig(pe_arrays=arrays))
    print(f"  {arrays} arrays: square 256 layer = {lc.total} cycles")

print("\n== bit-exact against the reference fixed path ==")
# the first layer of the small toy acoustic model, 123 -> 256
rng = np.random.default_rng(11)
layer = build_toy_models(ToySpec("small"))[0].layers[0]
q = quantize_layer(layer, layer_formats(FORMATS, 1)[0])
x_lev = np.round(rng.uniform(-1, 1, q.input_dim) / q.fmt.sig_in.step)
ref_h, ref_c = fixed_step_levels(q, x_lev, np.zeros(q.hidden), np.zeros(q.hidden))
for fast in (False, True):
    hw_h, hw_st, cyc = simulate_layer(q, x_lev, zero_state(q.hidden), HwConfig(fast_mac=fast))
    tag = "fast mac" if fast else "clock-order product"
    print(f"  {tag:19s}: bits identical = {np.array_equal(hw_h, ref_h)}, "
          f"cycles = {cyc.total}")
